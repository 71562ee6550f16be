"""Circuit model tests: levels and VCVS outputs via circuit_encode, codec equivalence, power."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.circuit import (
    PROTOTYPE_BUDGET,
    CircuitConfig,
    ComponentBudget,
    circuit_encode,
    default_thresholds,
    equivalent_mapping,
    estimate_power,
)
from ajscc.mapping import Quantizer, encode


class TestConfig:
    def test_default_floor_thresholds(self):
        c = CircuitConfig()
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
        # a NaN comparator fails every ordering test, so it is named, not ordered
        for bad in ((0.3, math.nan), (0.3, math.inf), (-math.inf, 0.3)):
            with pytest.raises(ValueError, match="thresholds must be finite"):
                CircuitConfig(num_levels=3, thresholds=bad)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            CircuitConfig(num_levels=1)
        # an infinite v_r makes circuit_encode NaN, and an infinite vt_max a constant
        for name in ("delta_h", "v_r", "vt_max"):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    CircuitConfig(**{name: bad})
        # a fault that is not finite is bad input, not a fault to measure
        for name in ("gain_error", "offset_error"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    CircuitConfig(**{name: bad})

    def test_num_levels_must_be_an_integer(self):
        # range() takes neither 11.0 nor 2.5 as a count; a bool is not one either
        for bad in (11.0, 2.5, True, "11"):
            with pytest.raises(ValueError, match="num_levels"):
                CircuitConfig(num_levels=bad)
        c = CircuitConfig(num_levels=np.int64(4))
        assert type(c.num_levels) is int and len(c.thresholds) == 3

    def test_rejects_a_quantizer_that_is_not_a_quantizer(self):
        # the name "floor" is not Quantizer.FLOOR; taken as given it placed NEAREST thresholds
        with pytest.raises(ValueError, match="quantizer"):
            CircuitConfig(quantizer="floor")


# CircuitConfig(): 11 levels, delta_h = 0.3, v_r = vt_max = 1, floor thresholds
# at 0.3, 0.6, ..., 3.0.  vh = 0.0 lies inside level 0 (even), 0.35 inside
# level 1 (odd), 0.65 inside level 2 (even).
VH_LEVEL_0, VH_LEVEL_1, VH_LEVEL_2 = 0.0, 0.35, 0.65


def _active_level(cfg, vh):
    """The level the comparators select: the count of thresholds at or below vh."""
    return sum(t <= vh for t in cfg.thresholds)


class TestComparators:
    def test_bottom_of_range(self):
        c = CircuitConfig()
        # level 0 forwards the proportional VCVS and nothing sits below it
        assert circuit_encode(c, 0.25, 0.0) == pytest.approx(0.25 * c.v_r)

    def test_hand_evaluated_floor_placement(self):
        # floor(0.95 / 0.3) = 3, an odd level: 3 full levels plus the complement
        c = CircuitConfig()
        assert circuit_encode(c, 0.25, 0.95) == pytest.approx(3 * c.v_r + 0.75 * c.v_r)

    def test_top_of_range(self):
        c = CircuitConfig()
        # the last level (10, even) is active on top of 10 full levels
        assert circuit_encode(c, 0.25, c.vh_max) == pytest.approx(10 * c.v_r + 0.25 * c.v_r)

    def test_exactly_one_level_on(self):
        c = CircuitConfig()
        for vh in np.linspace(0, c.vh_max, 57):
            active = _active_level(c, vh)
            partial = 0.25 if active % 2 == 0 else 0.75
            # full levels below the active one, one partial level, nothing above
            assert circuit_encode(c, 0.25, vh) == pytest.approx((active + partial) * c.v_r)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            circuit_encode(CircuitConfig(), 0.0, -0.1)
        with pytest.raises(ValueError):
            circuit_encode(CircuitConfig(), 0.0, 3.1)


class TestVcvs:
    """The VCVS outputs, read through circuit_encode on an even and an odd level."""

    def test_proportional_endpoints_and_midpoint(self):
        c = CircuitConfig()
        assert circuit_encode(c, 0.0, VH_LEVEL_0) == 0.0
        assert circuit_encode(c, c.vt_max, VH_LEVEL_0) == pytest.approx(c.v_r)
        assert circuit_encode(c, c.vt_max / 2, VH_LEVEL_0) == pytest.approx(c.v_r / 2)
        assert circuit_encode(c, c.vt_max / 2, VH_LEVEL_2) == pytest.approx(2.5 * c.v_r)

    def test_complement_endpoints(self):
        c = CircuitConfig()
        assert circuit_encode(c, 0.0, VH_LEVEL_1) - c.v_r == pytest.approx(c.v_r)
        assert circuit_encode(c, c.vt_max, VH_LEVEL_1) - c.v_r == 0.0

    def test_complement_identity(self):
        c = CircuitConfig()
        for vt in np.linspace(0, c.vt_max, 41):
            proportional = circuit_encode(c, vt, VH_LEVEL_0)
            complement = circuit_encode(c, vt, VH_LEVEL_1) - c.v_r
            assert proportional + complement == pytest.approx(c.v_r)

    def test_nonideal_outputs_clamp(self):
        # 1.5 * vt + 0.4 overshoots v_r at full scale; the mux input clamps it
        c = CircuitConfig(gain_error=0.5, offset_error=0.4)
        assert circuit_encode(c, c.vt_max, VH_LEVEL_0) == c.v_r
        assert circuit_encode(c, c.vt_max, VH_LEVEL_1) == c.v_r
        c = CircuitConfig(gain_error=0.1, offset_error=0.05)
        assert circuit_encode(c, 0.9 * c.vt_max, VH_LEVEL_0) == c.v_r
        assert circuit_encode(c, 0.9 * c.vt_max, VH_LEVEL_1) == c.v_r
        # a negative offset pulls the proportional output below 0 V at vt = 0
        c = CircuitConfig(offset_error=-0.2)
        assert circuit_encode(c, 0.0, VH_LEVEL_0) == 0.0
        assert circuit_encode(c, 0.1 * c.vt_max, VH_LEVEL_0) == 0.0


class TestLevelContribution:
    def test_active_even_index_at_full_scale(self):
        c = CircuitConfig()
        assert circuit_encode(c, c.vt_max, VH_LEVEL_0) == pytest.approx(c.v_r)

    def test_active_odd_index_at_full_scale(self):
        # level 0 adds v_r, the active level 1 adds its complement, 0 V
        c = CircuitConfig()
        assert circuit_encode(c, c.vt_max, VH_LEVEL_1) == pytest.approx(c.v_r)

    def test_levels_above_the_point_contribute_zero(self):
        # levels 2..10 lie above vh = 0.35: the total stays v_r + (v_r - 0.4)
        c = CircuitConfig()
        assert circuit_encode(c, 0.4, VH_LEVEL_1) == pytest.approx(1.6 * c.v_r)

    def test_ordering_around_active_level(self):
        c = CircuitConfig()
        rng = np.random.default_rng(9)
        for _ in range(50):
            vh = rng.uniform(0, c.vh_max)
            vt = rng.uniform(0, c.vt_max)
            active = _active_level(c, vh)
            partial = vt if active % 2 == 0 else c.vt_max - vt
            assert circuit_encode(c, vt, vh) == pytest.approx(
                active * c.v_r + partial * c.v_r / c.vt_max
            )

    def test_bad_level_index_rejected(self):
        # vh_max selects the last level; no vh selects a level past it
        c = CircuitConfig()
        assert circuit_encode(c, 0.0, c.vh_max) == pytest.approx((c.num_levels - 1) * c.v_r)
        with pytest.raises(ValueError, match="vh out of range"):
            circuit_encode(c, 0.0, np.nextafter(c.vh_max, np.inf))


class TestCircuitEncode:
    def test_origin(self):
        assert circuit_encode(CircuitConfig(), 0.0, 0.0) == 0.0

    def test_top_corner_is_full_curve_length(self):
        c = CircuitConfig()
        assert circuit_encode(c, c.vt_max, c.vh_max) == pytest.approx(
            c.num_levels * c.v_r
        )

    @pytest.mark.parametrize("quantizer", list(Quantizer))
    def test_matches_codec_on_grid(self, quantizer):
        c = CircuitConfig(quantizer=quantizer)
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
        c = CircuitConfig()
        values = [circuit_encode(c, 0.0, vh) for vh in np.linspace(0, c.vh_max, 101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_range_violations_rejected(self):
        c = CircuitConfig()
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
            active = _active_level(cfg, b)
            raw = (1 + cfg.gain_error) * (cfg.v_r / cfg.vt_max) * a + cfg.offset_error
            on = raw if active % 2 == 0 else cfg.v_r - raw
            on = min(max(on, 0.0), cfg.v_r)
            total = 0.0
            for i in range(cfg.num_levels):
                total += cfg.v_r if i < active else on if i == active else 0.0
            by_level.append(total)
        assert np.array_equal(got, by_level)
        # broadcasting a column of vt against a row of vh is the outer loop
        vt, vh = vt[:6], vh[:6]
        outer = circuit_encode(cfg, vt[:, None], vh[None, :])
        assert np.array_equal(outer, [[circuit_encode(cfg, a, b) for b in vh] for a in vt])

    def test_scalar_input_returns_float(self):
        c = CircuitConfig()
        scalars = [(0.3, 0.7), (np.float64(0.3), np.float64(0.7)), (np.array(0.3), np.array(0.7))]
        for vt, vh in scalars:
            assert type(circuit_encode(c, vt, vh)) is float
        got = circuit_encode(c, np.array([0.3]), 0.7)
        assert isinstance(got, np.ndarray) and got.shape == (1,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.1])
    def test_one_bad_vt_element_rejected(self, bad):
        c = CircuitConfig()
        with pytest.raises(ValueError, match="vt out of range"):
            circuit_encode(c, np.array([0.0, 0.5, bad]), np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -0.1, 3.1])
    def test_one_bad_vh_element_rejected(self, bad):
        c = CircuitConfig()
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
