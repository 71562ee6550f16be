"""Circuit model tests: select logic, VCVS outputs, codec equivalence, power."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.circuit import (
    PROTOTYPE_BUDGET,
    CircuitConfig,
    ComponentBudget,
    ContributionKind,
    LevelSelect,
    circuit_encode,
    comparator_selects,
    default_thresholds,
    equivalent_mapping,
    estimate_power,
    level_contribution,
    prototype_config,
    vcvs_complement,
    vcvs_proportional,
)
from ajscc.mapping import Quantizer, encode


class TestConfig:
    def test_default_floor_thresholds(self):
        c = prototype_config()
        assert len(c.thresholds) == 10
        assert c.thresholds[0] == pytest.approx(0.3)
        assert c.thresholds[-1] == pytest.approx(3.0)
        assert c.vh_max == pytest.approx(3.0)

    def test_nearest_thresholds_sit_between_lines(self):
        got = default_thresholds(4, 1.0, Quantizer.NEAREST)
        assert got == (0.5, 1.5, 2.5)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            CircuitConfig(num_levels=4, thresholds=(0.3, 0.2, 0.5))
        with pytest.raises(ValueError):
            CircuitConfig(num_levels=4, thresholds=(0.3, 0.6))

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            CircuitConfig(num_levels=1)
        with pytest.raises(ValueError):
            CircuitConfig(delta_h=0.0)
        with pytest.raises(ValueError):
            CircuitConfig(v_r=-1.0)


class TestComparators:
    def test_bottom_of_range(self):
        sel = comparator_selects(prototype_config(), 0.0)
        assert sel[0] is LevelSelect.ON
        assert all(s is LevelSelect.BELOW for s in sel[1:])

    def test_hand_evaluated_floor_placement(self):
        # floor(0.95 / 0.3) = 3
        sel = comparator_selects(prototype_config(), 0.95)
        assert sel.index(LevelSelect.ON) == 3

    def test_top_of_range(self):
        c = prototype_config()
        sel = comparator_selects(c, c.vh_max)
        assert sel[-1] is LevelSelect.ON
        assert all(s is LevelSelect.ABOVE for s in sel[:-1])

    def test_exactly_one_level_on(self):
        c = prototype_config()
        for vh in np.linspace(0, c.vh_max, 57):
            sel = comparator_selects(c, vh)
            assert sum(s is LevelSelect.ON for s in sel) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            comparator_selects(prototype_config(), -0.1)
        with pytest.raises(ValueError):
            comparator_selects(prototype_config(), 3.1)


class TestVcvs:
    def test_proportional_endpoints_and_midpoint(self):
        c = prototype_config()
        assert vcvs_proportional(c, 0.0) == 0.0
        assert vcvs_proportional(c, c.vt_max) == pytest.approx(c.v_r)
        assert vcvs_proportional(c, c.vt_max / 2) == pytest.approx(c.v_r / 2)

    def test_complement_endpoints(self):
        c = prototype_config()
        assert vcvs_complement(c, 0.0) == pytest.approx(c.v_r)
        assert vcvs_complement(c, c.vt_max) == 0.0

    def test_complement_identity(self):
        c = prototype_config()
        for vt in np.linspace(0, c.vt_max, 41):
            assert vcvs_proportional(c, vt) + vcvs_complement(c, vt) == pytest.approx(c.v_r)

    def test_nonideal_outputs_clamp(self):
        c = CircuitConfig(gain_error=0.5, offset_error=0.4)
        assert vcvs_proportional(c, c.vt_max) == c.v_r
        assert vcvs_complement(c, c.vt_max) == 0.0
        c = CircuitConfig(offset_error=-0.2)
        assert vcvs_proportional(c, 0.0) == 0.0


class TestLevelContribution:
    def test_active_even_index_at_full_scale(self):
        c = prototype_config()
        got = level_contribution(c, 0, c.vt_max, 0.0)
        assert got.kind is ContributionKind.PARTIAL
        assert got.voltage == pytest.approx(c.v_r)

    def test_active_odd_index_at_full_scale(self):
        c = prototype_config()
        got = level_contribution(c, 1, c.vt_max, 0.35)
        assert got.kind is ContributionKind.PARTIAL
        assert got.voltage == pytest.approx(0.0)

    def test_levels_above_the_point_contribute_zero(self):
        c = prototype_config()
        got = level_contribution(c, 7, 0.4, 0.35)
        assert got == type(got)(ContributionKind.ZERO, 0.0)

    def test_ordering_around_active_level(self):
        c = prototype_config()
        rng = np.random.default_rng(9)
        for _ in range(50):
            vh = rng.uniform(0, c.vh_max)
            vt = rng.uniform(0, c.vt_max)
            active = comparator_selects(c, vh).index(LevelSelect.ON)
            kinds = [level_contribution(c, i, vt, vh).kind for i in range(c.num_levels)]
            assert kinds[:active] == [ContributionKind.FULL] * active
            assert kinds[active] is ContributionKind.PARTIAL
            assert kinds[active + 1 :] == [ContributionKind.ZERO] * (
                c.num_levels - active - 1
            )

    def test_bad_level_index_rejected(self):
        with pytest.raises(ValueError):
            level_contribution(prototype_config(), 11, 0.0, 0.0)


class TestCircuitEncode:
    def test_origin(self):
        assert circuit_encode(prototype_config(), 0.0, 0.0) == 0.0

    def test_top_corner_is_full_curve_length(self):
        c = prototype_config()
        assert circuit_encode(c, c.vt_max, c.vh_max) == pytest.approx(
            c.num_levels * c.v_r
        )

    @pytest.mark.parametrize("quantizer", list(Quantizer))
    def test_matches_codec_on_grid(self, quantizer):
        c = prototype_config(quantizer)
        m = equivalent_mapping(c)
        tol = 1e-9 * m.d_max
        for vt in np.linspace(0, c.vt_max, 60):
            x1 = vt * c.v_r / c.vt_max
            for vh in np.linspace(0, c.vh_max, 60):
                assert abs(circuit_encode(c, vt, vh) - encode(m, x1, vh)) <= tol

    def test_gain_error_breaks_equivalence(self):
        c = CircuitConfig(gain_error=0.05)
        m = equivalent_mapping(c)
        worst = max(
            abs(circuit_encode(c, vt, 0.35) - encode(m, vt * c.v_r / c.vt_max, 0.35))
            for vt in np.linspace(0, c.vt_max, 21)
        )
        assert worst > 1e-3

    def test_monotone_in_vh_at_zero_vt(self):
        c = prototype_config()
        values = [circuit_encode(c, 0.0, vh) for vh in np.linspace(0, c.vh_max, 101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_range_violations_rejected(self):
        c = prototype_config()
        with pytest.raises(ValueError):
            circuit_encode(c, -0.1, 0.0)
        with pytest.raises(ValueError):
            circuit_encode(c, 0.0, c.vh_max + 0.1)

    @given(
        vt=st.floats(0.0, 1.0),
        vh=st.floats(0.0, 3.0),
        gain_error=st.floats(-0.5, 0.5),
        offset_error=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=200)
    def test_output_bound_property(self, vt, vh, gain_error, offset_error):
        c = CircuitConfig(gain_error=gain_error, offset_error=offset_error)
        out = circuit_encode(c, vt, min(vh, c.vh_max))
        assert 0.0 <= out <= c.num_levels * c.v_r


@st.composite
def circuits_and_points(draw):
    """A random circuit and (vt, vh) points, some on thresholds and range ends."""
    num_levels = draw(st.integers(2, 24))
    delta_h = draw(st.floats(0.01, 2.0))
    vh_max = (num_levels - 1) * delta_h
    # positive gaps, scaled so the thresholds increase strictly inside [0, vh_max]
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=num_levels, max_size=num_levels)))
    thresholds = tuple(float(t) for t in np.cumsum(gaps)[:-1] * (vh_max / gaps.sum()))
    cfg = CircuitConfig(
        num_levels=num_levels,
        delta_h=delta_h,
        v_r=draw(st.floats(0.01, 10.0)),
        vt_max=draw(st.floats(0.01, 10.0)),
        quantizer=draw(st.sampled_from(list(Quantizer))),
        thresholds=thresholds,
        gain_error=draw(st.floats(-0.5, 0.5)),
        offset_error=draw(st.floats(-0.5, 0.5)),
    )
    vt = st.one_of(st.floats(0.0, cfg.vt_max), st.sampled_from([0.0, cfg.vt_max]))
    vh = st.one_of(st.floats(0.0, cfg.vh_max), st.sampled_from((0.0, cfg.vh_max) + thresholds))
    points = draw(st.lists(st.tuples(vt, vh), min_size=1, max_size=20))
    return cfg, np.array([p[0] for p in points]), np.array([p[1] for p in points])


class TestCircuitEncodeArrays:
    @given(circuits_and_points())
    @settings(max_examples=100, deadline=None)
    def test_array_equals_scalar_loop(self, drawn):
        cfg, vt, vh = drawn
        got = circuit_encode(cfg, vt, vh)
        assert np.array_equal(got, [circuit_encode(cfg, a, b) for a, b in zip(vt, vh)])
        # the per-level contributions summed in level order, the scalar circuit
        by_level = []
        for a, b in zip(vt, vh):
            total = 0.0
            for i in range(cfg.num_levels):
                total += level_contribution(cfg, i, a, b).voltage
            by_level.append(total)
        assert np.array_equal(got, by_level)
        # broadcasting a column of vt against a row of vh is the outer loop
        vt, vh = vt[:6], vh[:6]
        outer = circuit_encode(cfg, vt[:, None], vh[None, :])
        assert np.array_equal(outer, [[circuit_encode(cfg, a, b) for b in vh] for a in vt])

    def test_scalar_input_returns_float(self):
        c = prototype_config()
        scalars = [(0.3, 0.7), (np.float64(0.3), np.float64(0.7)), (np.array(0.3), np.array(0.7))]
        for vt, vh in scalars:
            assert type(circuit_encode(c, vt, vh)) is float
        got = circuit_encode(c, np.array([0.3]), 0.7)
        assert isinstance(got, np.ndarray) and got.shape == (1,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.1])
    def test_one_bad_vt_element_rejected(self, bad):
        c = prototype_config()
        with pytest.raises(ValueError, match="vt out of range"):
            circuit_encode(c, np.array([0.0, 0.5, bad]), np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -0.1, 3.1])
    def test_one_bad_vh_element_rejected(self, bad):
        c = prototype_config()
        with pytest.raises(ValueError, match="vh out of range"):
            circuit_encode(c, np.array([0.0, 0.5, 1.0]), np.array([0.0, bad, 2.0]))


class TestPower:
    def test_prototype_budget(self):
        watts = estimate_power(PROTOTYPE_BUDGET)
        assert watts == pytest.approx(128.3259e-6, rel=1e-12)
        assert 125e-6 <= watts <= 135e-6

    def test_empty_budget(self):
        assert estimate_power(ComponentBudget(0, 0, 0, 0.0, 0.0, 0.0)) == 0.0

    def test_single_component(self):
        assert estimate_power(ComponentBudget(1, 0, 0, 8e-6, 0.0, 0.0)) == 8e-6

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ComponentBudget(-1, 0, 0, 0.0, 0.0, 0.0)
