"""FDMA cluster tests: band plans, joint capture, solo equivalence, diversity."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.mapping import MappingConfig
from ajscc.multisensor import FdmaPlan, assign_channels, receive_clusters, simulate_cluster
from ajscc.signal_chain import ChannelSpec, FmConfig, capture, receive_points
from oracle import cluster_chain

FM = FmConfig()
CODEC = MappingConfig(5.0, 11, 1.0)
NO_NOISE = ChannelSpec(snr_db=math.inf)


class TestAssignChannels:
    def test_single_band_starts_at_guard(self):
        plan = assign_channels(1, FM, 5.0)
        assert plan.offsets == (1000.0,)
        assert plan.band(0) == (1000.0, 6000.0)

    def test_three_bands(self):
        plan = assign_channels(3, FM, 5.0, guard_hz=1000.0)
        assert plan.offsets == (1000.0, 7000.0, 13000.0)

    def test_capacity_limit(self):
        # 5 bands of 6 kHz fit under the 32768 Hz Nyquist edge; 6 do not
        assert assign_channels(5, FM, 5.0).offsets[-1] == 25000.0
        with pytest.raises(ValueError):
            assign_channels(6, FM, 5.0)
        with pytest.raises(ValueError):
            assign_channels(11, FM, 5.0)
        # 4 x (5000 + 3192) Hz = 32768 Hz: the top band would end exactly at
        # Nyquist, where the cluster cannot search it
        with pytest.raises(ValueError, match="Nyquist"):
            assign_channels(4, FM, 5.0, guard_hz=3192.0)
        assert assign_channels(4, FM, 5.0, guard_hz=3191.0).band(3)[1] < FM.sample_rate / 2

    def test_rejects_zero_sensors(self):
        with pytest.raises(ValueError):
            assign_channels(0, FM, 5.0)


class TestFdmaPlan:
    def test_shared_band_rejected(self):
        with pytest.raises(ValueError):
            FdmaPlan(offsets=(1000.0, 1000.0), guard_hz=1000.0, band_width_hz=5000.0)

    def test_guard_violation_rejected(self):
        with pytest.raises(ValueError):
            FdmaPlan(offsets=(1000.0, 6500.0), guard_hz=1000.0, band_width_hz=5000.0)

    def test_negative_offset_rejected(self):
        # a band below DC would fail in capture or be searched clipped at bin 0
        with pytest.raises(ValueError, match="below DC"):
            FdmaPlan(offsets=(-3000.0,), guard_hz=0.0, band_width_hz=5000.0)
        with pytest.raises(ValueError, match="below DC"):
            FdmaPlan(offsets=(6000.0, -1e-9), guard_hz=0.0, band_width_hz=5000.0)

    def test_touching_bands_with_zero_guard_allowed(self):
        plan = FdmaPlan(offsets=(0.0, 5000.0), guard_hz=0.0, band_width_hz=5000.0)
        assert plan.band(1) == (5000.0, 10000.0)

    def test_non_finite_fields_rejected(self):
        # a NaN guard would pass every spacing check and only fail in capture
        for offsets, guard, width in [
            ((math.nan,), 0.0, 10.0),
            ((0.0, math.inf), 0.0, 10.0),
            ((0.0,), math.nan, 10.0),
            ((0.0,), math.inf, 10.0),
            ((0.0,), 0.0, math.inf),
            ((0.0,), 0.0, math.nan),
        ]:
            with pytest.raises(ValueError, match="finite"):
                FdmaPlan(offsets=offsets, guard_hz=guard, band_width_hz=width)


class TestCapture:
    def test_noiseless_antennas_match_one_antenna(self):
        truths = [(0.2, 0.3), (0.1, 0.8)]
        plan = assign_channels(2, FM, 5.0)
        one = simulate_cluster(CODEC, truths, plan, FM, NO_NOISE)
        assert simulate_cluster(CODEC, truths, plan, FM, NO_NOISE, antennas=3) == one

    def test_noiseless_capture_is_tone_sum(self):
        # a sensor at the origin is a unit cosine at its band offset
        plan = assign_channels(1, FM, 5.0)
        (res,) = simulate_cluster(CODEC, [(0.0, 0.0)], plan, FM, NO_NOISE)
        n = np.arange(FM.num_samples)
        spectrum = np.abs(np.fft.rfft(np.cos(2 * np.pi * 1000.0 / 65536.0 * n)))
        assert res.peak_hz == np.argmax(spectrum) == 1000.0
        assert res.vd_hat == res.vd_true == 0.0

    def test_channel_gain_and_seed_reach_capture(self):
        # at -35 dB the band argmaxes move with the received level (the SNR:
        # a tone gain g is the SNR raised by 20*log10(g) dB) and the channel
        # seed, so a field the cluster dropped would break the match with
        # the oracle
        truths = [(0.11, 0.27), (0.35, 0.62), (0.02, 0.93)]
        plan = assign_channels(3, FM, 5.0)
        base = ChannelSpec(snr_db=-35.0, rng_seed=3)
        variants = [
            dataclasses.replace(base, rng_seed=4),
            dataclasses.replace(base, snr_db=-35.0 + 20.0 * math.log10(3.0)),
        ]
        peaks = {}
        for ch in [base, *variants]:
            peaks[ch] = [r.peak_hz for r in simulate_cluster(CODEC, truths, plan, FM, ch)]
            assert peaks[ch] == [peak for _, peak, _ in cluster_chain(CODEC, truths, plan, FM, ch)]
        for ch in variants:
            assert peaks[ch] != peaks[base]


class TestSimulateCluster:
    def test_single_sensor_roundtrip(self):
        plan = assign_channels(1, FM, 5.0)
        (res,) = simulate_cluster(CODEC, [(0.21, 0.58)], plan, FM, NO_NOISE)
        assert abs(res.vd_hat - res.vd_true) <= 0.5 / FM.scale + 1e-9
        assert abs(res.decoded.x1_hat - 0.21) <= 0.5 / FM.scale + 1e-9

    @given(
        truths=st.lists(
            st.tuples(st.floats(0.0, CODEC.v1), st.floats(0.0, CODEC.v2)), min_size=1, max_size=5
        ),
        geometry=st.one_of(
            st.just((16, 65536.0)), st.tuples(st.integers(8, 16), st.floats(1000.0, 200_000.0))
        ),
        antennas=st.integers(1, 3),
        snr_db=st.sampled_from([math.inf, -20.0, -30.0]),
        rng_seed=st.integers(0, 2**62),
    )
    @settings(max_examples=50, deadline=None)
    def test_peak_is_band_argmax_of_combined_spectrum(
        self, truths, geometry, antennas, snr_db, rng_seed
    ):
        # records of 2^8..2^16 samples at any rate; the scale keeps the
        # default geometry's 1000 Hz per volt and fits five bands below Nyquist
        record_exp, sample_rate = geometry
        fm = FmConfig(
            scale=1000.0 * sample_rate / 65536.0,
            sample_rate=sample_rate,
            record_seconds=2**record_exp / sample_rate,
        )
        plan = assign_channels(len(truths), fm, CODEC.d_max, guard_hz=fm.scale)
        ch = ChannelSpec(snr_db=snr_db, rng_seed=rng_seed)
        results = simulate_cluster(CODEC, truths, plan, fm, ch, antennas=antennas)
        expected = cluster_chain(CODEC, truths, plan, fm, ch, antennas)
        assert [(r.vd_true, r.peak_hz, r.vd_hat) for r in results] == expected

    def test_three_sensors_noiseless_match_solo_runs(self):
        truths = [(0.11, 0.27), (0.35, 0.62), (0.02, 0.93)]
        plan = assign_channels(3, FM, 5.0)
        joint = simulate_cluster(CODEC, truths, plan, FM, NO_NOISE)
        for i, truth in enumerate(truths):
            solo_plan = FdmaPlan(
                offsets=(plan.offsets[i],),
                guard_hz=plan.guard_hz,
                band_width_hz=plan.band_width_hz,
            )
            (solo,) = simulate_cluster(CODEC, [truth], solo_plan, FM, NO_NOISE)
            assert joint[i].peak_hz == solo.peak_hz
            assert joint[i].vd_hat == solo.vd_hat
            assert joint[i].decoded == solo.decoded

    def test_mismatched_plan_length_rejected(self):
        plan = assign_channels(3, FM, 5.0)
        with pytest.raises(ValueError):
            simulate_cluster(CODEC, [(0.1, 0.1), (0.2, 0.2)], plan, FM, NO_NOISE)

    def test_sensor_wider_than_its_band_rejected(self):
        wide = MappingConfig(8.0, 11, 1.0)  # 8 kHz of tones in a 5 kHz band
        plan = assign_channels(1, FM, 5.0)
        with pytest.raises(ValueError, match="wider"):
            simulate_cluster(wide, [(0.1, 0.1)], plan, FM, NO_NOISE)


class TestClusterLayout:
    """receive_clusters: the tone layout and read-back that simulate_cluster and the SDR sweep share."""

    TRUTHS = [(0.11, 0.27), (0.35, 0.62), (0.02, 0.93)]

    def test_noiseless_read_back_is_the_explicit_chain(self):
        plan = assign_channels(3, FM, 5.0)
        vds, peaks, vd_hats = receive_clusters(CODEC, plan, FM, [(NO_NOISE, self.TRUTHS)])
        expected = cluster_chain(CODEC, self.TRUTHS, plan, FM, NO_NOISE)
        assert list(zip(vds[0].tolist(), peaks[0].tolist(), vd_hats[0].tolist())) == expected
        assert np.all(np.abs(vd_hats - vds) <= 0.5 / FM.scale)

    def test_peak_is_read_back_relative_to_its_band(self):
        # vd = 1.25 and 3.5 V put both tones on a bin: 1000 + 1250 and 7000 + 3500 Hz
        codec = MappingConfig(5.0, 5, 1.0)
        plan = assign_channels(2, FM, 5.0)
        point = (NO_NOISE, [(0.75, 0.25), (0.5, 0.75)])
        vds, peaks, vd_hats = receive_clusters(codec, plan, FM, [point])
        assert peaks.tolist() == [[2250.0, 10500.0]]
        assert vd_hats.tolist() == vds.tolist() == [[1.25, 3.5]]

    def test_results_are_points_by_bands(self):
        plan = assign_channels(3, FM, 5.0)
        channels = [ChannelSpec(-20.0, 5), ChannelSpec(-35.0, 5), ChannelSpec(-35.0, 6), NO_NOISE]
        points = [(ch, self.TRUTHS[i:] + self.TRUTHS[:i]) for i, ch in enumerate(channels)]
        results = receive_clusters(CODEC, plan, FM, points, antennas=2)
        assert [a.shape for a in results] == [(4, 3)] * 3
        for i, (ch, truths) in enumerate(points):
            got = list(zip(*(a[i].tolist() for a in results)))
            assert got == cluster_chain(CODEC, truths, plan, FM, ch, antennas=2)

    def test_truth_count_must_match_the_plan(self):
        plan = assign_channels(3, FM, 5.0)
        for truths in (self.TRUTHS[:2], self.TRUTHS * 2, []):
            with pytest.raises(ValueError, match="matching lengths"):
                receive_clusters(CODEC, plan, FM, [(NO_NOISE, self.TRUTHS), (NO_NOISE, truths)])


class TestDiversity:
    """The noncoherent antenna combine inside signal_chain.receive_points."""

    BANDS = [(1000.0, 6000.0), (7000.0, 12000.0)]
    FREQS = [3456.7, 9876.5]

    def test_single_spectrum_identity(self):
        # one antenna: the combine is that antenna's own magnitude spectrum
        ch = ChannelSpec(snr_db=-30.0, rng_seed=11)
        (samples,) = capture(FM, ch, self.FREQS)
        own = np.abs(np.fft.rfft(samples))
        expected = [float(lo + np.argmax(own[int(lo) : int(hi) + 1])) for lo, hi in self.BANDS]
        assert receive_points(FM, [(ch, self.FREQS, self.BANDS)]) == [expected]

    def test_identical_spectra_keep_argmax(self):
        # noiseless antennas see identical spectra, whose combine is the
        # spectrum itself: the peaks equal the one-antenna peaks
        point = (NO_NOISE, self.FREQS, self.BANDS)
        one = receive_points(FM, [point])
        assert receive_points(FM, [point], antennas=3) == one == [[3457.0, 9877.0]]

    def test_empty_rejected(self):
        # no antenna means no spectrum to combine
        with pytest.raises(ValueError, match="antennas"):
            receive_points(FM, [(NO_NOISE, self.FREQS, self.BANDS)], antennas=0)
        with pytest.raises(ValueError, match="antennas"):
            simulate_cluster(CODEC, [(0.1, 0.1)], assign_channels(1, FM, 5.0), FM, NO_NOISE, 0)

    def test_two_capture_combining_reduces_miss_rate(self):
        # at -30 dB single captures miss the tone peak noticeably more often
        plan = assign_channels(1, FM, 5.0)
        misses = {1: 0, 2: 0}
        for antennas in (1, 2):
            for trial in range(100):
                ch = ChannelSpec(snr_db=-30.0, rng_seed=trial)
                (res,) = simulate_cluster(CODEC, [(0.37, 0.53)], plan, FM, ch, antennas=antennas)
                if abs(res.vd_hat - res.vd_true) > 1e-3:
                    misses[antennas] += 1
        assert misses[2] <= misses[1]
        assert misses[1] > 0
