"""Codec tests: frozen examples, an independent curve-length oracle, properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.experiments import DEFAULT_L_GRID
from ajscc.mapping import (
    DecodedPair,
    MappingConfig,
    Quantizer,
    decode,
    encode,
    quantize_level,
)


def cfg(d_max=5.0, levels=5, v2=1.0, quantizer=Quantizer.FLOOR):
    return MappingConfig(d_max, levels, v2, quantizer)


# ---------------------------------------------------------------------------
# independent oracle: scalar transcription of the folded curve-length formula

def curve_length(c: MappingConfig, x1: float, x2: float) -> float:
    if c.quantizer is Quantizer.FLOOR:
        k = math.floor(x2 / c.delta)
    else:
        k = math.floor(x2 / c.delta + 0.5)
    k = min(k, c.num_levels - 1)
    if k % 2 == 0:
        return k * c.v1 + x1
    return k * c.v1 + c.v1 - x1


class TestConfig:
    def test_derived_fields_small(self):
        c = cfg(5, 5, 1.0)
        assert c.v1 == 1.0
        assert c.delta == 0.25

    def test_derived_fields_optimum_size(self):
        c = cfg(5, 73, 1.0)
        assert c.v1 == pytest.approx(0.0684931506849315, abs=1e-15)
        assert c.delta == pytest.approx(1.0 / 72.0, abs=1e-15)

    def test_smallest_legal_level_count(self):
        c = cfg(1, 2, 1.0)
        assert c.v1 == 0.5
        assert c.delta == 1.0

    def test_span_times_levels_is_amplitude_limit(self):
        c = cfg(5, 73, 1.0)
        assert c.v1 * c.num_levels == pytest.approx(c.d_max, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_max=5, num_levels=1, v2=1.0),
            dict(d_max=0, num_levels=5, v2=1.0),
            dict(d_max=-1, num_levels=5, v2=1.0),
            dict(d_max=5, num_levels=5, v2=0.0),
            dict(d_max=math.nan, num_levels=5, v2=1.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MappingConfig(**kwargs)

    def test_rejects_a_quantizer_that_is_not_a_quantizer(self):
        # the name "floor" is not Quantizer.FLOOR; taken as given it quantized as NEAREST
        with pytest.raises(ValueError, match="quantizer"):
            MappingConfig(5, 11, 1, quantizer="floor")


class TestQuantize:
    def test_origin(self):
        assert quantize_level(cfg(), 0.0) == 0

    def test_direct_floor_evaluation(self):
        assert quantize_level(cfg(), 0.26) == 1

    def test_top_of_range_clamps_to_last_line(self):
        assert quantize_level(cfg(), 1.0) == 4

    def test_nearest_rounds_to_closest_line(self):
        c = cfg(quantizer=Quantizer.NEAREST)
        assert quantize_level(c, 0.26) == 1
        assert quantize_level(c, 0.13) == 1
        assert quantize_level(c, 0.12) == 0

    def test_nearest_ties_round_up(self):
        c = cfg(quantizer=Quantizer.NEAREST)
        assert quantize_level(c, 0.125) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize_level(cfg(), 1.5)
        with pytest.raises(ValueError):
            quantize_level(cfg(), -0.1)

    def test_vectorized(self):
        ks = quantize_level(cfg(), np.array([0.0, 0.26, 1.0]))
        assert list(ks) == [0, 1, 4]


class TestEncode:
    def test_level_zero_is_identity_in_x1(self):
        assert encode(cfg(), 0.3, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_odd_level_folds_back(self):
        assert encode(cfg(), 0.3, 0.26) == pytest.approx(1.7, abs=1e-15)

    def test_top_corner_reaches_amplitude_limit(self):
        # k = 4 (even), so the output is 4*v1 + x1 = d_max exactly
        assert encode(cfg(), 1.0, 1.0) == pytest.approx(5.0, abs=1e-12)

    def test_rejects_out_of_range_x1(self):
        with pytest.raises(ValueError):
            encode(cfg(), 1.5, 0.5)
        with pytest.raises(ValueError):
            encode(cfg(), -0.1, 0.5)

    def test_matches_curve_length_oracle_on_grid(self):
        for quantizer in Quantizer:
            c = cfg(5, 7, 1.0, quantizer)
            x1s = np.linspace(0.0, c.v1, 1000)
            x2s = np.linspace(0.0, c.v2, 1000)
            g1, g2 = np.meshgrid(x1s, x2s)
            got = encode(c, g1.ravel(), g2.ravel())
            want = np.array(
                [curve_length(c, a, b) for a, b in zip(g1.ravel(), g2.ravel())]
            )
            assert np.max(np.abs(got - want)) <= 1e-12


class TestDecode:
    def test_inverts_fold(self):
        dec = decode(cfg(), 1.7)
        assert dec == DecodedPair(pytest.approx(0.3, abs=1e-15), 0.25, 1)

    def test_origin(self):
        assert decode(cfg(), 0.0) == DecodedPair(0.0, 0.0, 0)

    def test_top_corner(self):
        dec = decode(cfg(), 5.0)
        assert dec.x1_hat == pytest.approx(1.0, abs=1e-12)
        assert dec.x2_hat == pytest.approx(1.0, abs=1e-12)
        assert dec.level_index == 4

    def test_clamps_received_voltage(self):
        assert decode(cfg(), 7.3) == decode(cfg(), 5.0)
        assert decode(cfg(), -0.2) == decode(cfg(), 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decode(cfg(), math.nan)
        with pytest.raises(ValueError):
            decode(cfg(), math.inf)

    def test_reconstruction_sits_on_a_line(self):
        c = cfg(5, 9, 1.0)
        rng = np.random.default_rng(3)
        dec = decode(c, rng.uniform(0, 5, 1000))
        assert np.allclose(dec.x2_hat, dec.level_index * c.delta)
        assert np.all((dec.x1_hat >= 0) & (dec.x1_hat <= c.v1))


class TestRoundTrip:
    @pytest.mark.parametrize("quantizer", list(Quantizer))
    def test_bulk_random_roundtrip(self, quantizer):
        c = cfg(5, 73, 1.0, quantizer)
        rng = np.random.default_rng(11)
        n = 100_000
        x1 = rng.uniform(0, c.v1, n)
        x2 = rng.uniform(0, c.v2, n)
        vd = encode(c, x1, x2)
        assert vd.min() >= 0.0 and vd.max() <= c.d_max
        dec = decode(c, vd)
        bound2 = c.delta if quantizer is Quantizer.FLOOR else c.delta / 2
        assert np.max(np.abs(dec.x1_hat - x1)) <= 1e-12
        assert np.max(np.abs(dec.x2_hat - x2)) <= bound2


class TestLevelArray:
    """A config of an array of level counts is, element by element, the scalar config at that count.

    Every element must equal the scalar codec bit for bit: the level sweep
    decodes all its level counts through one such config.
    """

    LEVELS = np.array(DEFAULT_L_GRID)

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    @pytest.mark.parametrize("quantizer", list(Quantizer))
    def test_equals_the_scalar_codec(self, quantizer):
        levels = cfg(5.0, self.LEVELS, 1.0, quantizer)
        scalars = [cfg(5.0, int(n), 1.0, quantizer) for n in self.LEVELS]
        rng = np.random.default_rng(3)
        # the corners of the source square, then uniform draws
        units = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        units += [tuple(u) for u in rng.uniform(size=(20, 2)).tolist()]
        for u1, u2 in units:
            ks = quantize_level(levels, u2 * levels.v2)
            assert ks.tolist() == [quantize_level(c, u2 * c.v2) for c in scalars], (u1, u2)
            vds = encode(levels, u1 * levels.v1, u2 * levels.v2)
            want = [encode(c, u1 * c.v1, u2 * c.v2) for c in scalars]
            assert self.bits(vds) == self.bits(want), (u1, u2)
            # received voltages on the curve, off it, and outside [0, d_max]
            for shift in (0.0, 3e-4, -0.37, 6.0, -1.0):
                dec = decode(levels, vds + shift)
                pairs = [decode(c, vd + shift) for c, vd in zip(scalars, vds.tolist())]
                assert self.bits(dec.x1_hat) == self.bits([p.x1_hat for p in pairs]), (u1, u2, shift)
                assert self.bits(dec.x2_hat) == self.bits([p.x2_hat for p in pairs]), (u1, u2, shift)
                assert dec.level_index.tolist() == [p.level_index for p in pairs]

    def test_top_corner_clip(self):
        # at the top corner k*v1 + v1 overshoots d_max by an ulp for some L;
        # encode clips it to d_max at every level count of the array
        v1 = cfg(5.0, self.LEVELS).v1
        overshoot = (self.LEVELS - 1) * v1 + v1 > 5.0
        assert overshoot.any()
        for quantizer in Quantizer:
            levels = cfg(5.0, self.LEVELS, 1.0, quantizer)
            for u1 in (0.0, 1.0):
                vds = encode(levels, u1 * levels.v1, 1.0)
                # an even top line ends at x1 = v1, an odd one at x1 = 0
                top = (self.LEVELS - 1) % 2 == (0 if u1 else 1)
                assert np.all(vds[top & overshoot] == 5.0)
                want = [
                    encode(cfg(5.0, int(n), 1.0, quantizer), u1 * v, 1.0)
                    for n, v in zip(self.LEVELS, v1)
                ]
                assert self.bits(vds) == self.bits(want)

    def test_scalar_voltage_decodes_at_every_level_count(self):
        levels = cfg(5.0, np.array([10, 20, 73]), 1.0, Quantizer.NEAREST)
        dec = decode(levels, 2.5)
        pairs = [decode(cfg(5.0, n, 1.0, Quantizer.NEAREST), 2.5) for n in (10, 20, 73)]
        assert dec.level_index.tolist() == [p.level_index for p in pairs]
        assert self.bits(dec.x1_hat) == self.bits([p.x1_hat for p in pairs])
        assert self.bits(dec.x2_hat) == self.bits([p.x2_hat for p in pairs])

    def test_rejects_a_level_count_below_two(self):
        with pytest.raises(ValueError, match="num_levels must be >= 2"):
            cfg(5.0, np.array([10, 1, 20]))

    def test_rejects_a_fractional_level_count(self):
        # a fractional count would run the codec on fractional lines; numpy
        # holds 2**64 as an object, which its ufuncs do not take
        for levels in (5.5, np.array([10.5, 20.0]), math.inf, np.array([10.0, math.nan]), 2**64):
            with pytest.raises(ValueError, match="whole number"):
                cfg(5.0, levels)

    def test_whole_level_counts_of_any_type(self):
        # integer arrays, and integral floats as scalars or elements
        assert cfg(5.0, 11.0) == cfg(5.0, 11)
        assert cfg(5.0, 2**64 - 1).num_levels == 2**64 - 1
        for levels in (np.array([10, 20]), np.array([10.0, 20.0])):
            c = cfg(5.0, levels)
            assert self.bits(c.v1) == self.bits([5.0 / 10, 5.0 / 20])


# ---------------------------------------------------------------------------
# properties

configs = st.builds(
    MappingConfig,
    d_max=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    num_levels=st.integers(2, 400),
    v2=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    quantizer=st.sampled_from(Quantizer),
)
unit = st.floats(0.0, 1.0, allow_nan=False)


@given(configs, unit, unit)
@settings(max_examples=300)
def test_amplitude_bound_property(c, u1, u2):
    vd = encode(c, u1 * c.v1, u2 * c.v2)
    assert 0.0 <= vd <= c.d_max


@given(configs, unit, unit)
@settings(max_examples=300)
def test_roundtrip_property(c, u1, u2):
    x1, x2 = u1 * c.v1, u2 * c.v2
    dec = decode(c, encode(c, x1, x2))
    slack = 1e-9 * max(1.0, c.d_max)
    assert abs(dec.x1_hat - x1) <= slack
    base = c.delta if c.quantizer is Quantizer.FLOOR else c.delta / 2
    err2 = abs(dec.x2_hat - x2)
    # a float-rounding edge at a fold boundary may shift the detected line by one
    on_fold_edge = min(x1, c.v1 - x1) <= 32 * np.finfo(float).eps * max(1.0, c.d_max)
    assert err2 <= base + slack or (on_fold_edge and err2 <= base + c.delta + slack)


@given(configs, unit, unit)
@settings(max_examples=300)
def test_monotone_level_index_property(c, ua, ub):
    lo, hi = sorted((ua * c.v2, ub * c.v2))
    assert quantize_level(c, lo) <= quantize_level(c, hi)


@given(configs, unit, unit, unit)
@settings(max_examples=300)
def test_affine_within_level_property(c, u2, ua, ub):
    """Within one line the encoder has slope +1 (even) or -1 (odd) in x1."""
    x2 = u2 * c.v2
    k = quantize_level(c, x2)
    a, b = sorted((ua * c.v1, ub * c.v1))
    diff = encode(c, b, x2) - encode(c, a, x2)
    expected = (b - a) if k % 2 == 0 else -(b - a)
    assert diff == pytest.approx(expected, abs=1e-9 * max(1.0, c.d_max))
