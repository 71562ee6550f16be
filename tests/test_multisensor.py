"""FDMA cluster tests: the band layout, joint capture, solo equivalence, diversity."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.mapping import MappingConfig, decode, encode
from ajscc.multisensor import assign_channels, receive_clusters
from ajscc.signal_chain import ChannelSpec, FmConfig, capture, receive_points
from oracle import cluster_chain, fdma_bands

FM = FmConfig()
CODEC = MappingConfig(5.0, 11, 1.0)
NO_NOISE = ChannelSpec(snr_db=math.inf)


class TestAssignChannels:
    def test_single_band_starts_at_guard(self):
        assert assign_channels(1, FM, 5.0, 1000.0) == [(1000.0, 6000.0)]

    def test_three_bands(self):
        bands = assign_channels(3, FM, 5.0, 1000.0)
        assert bands == [(1000.0, 6000.0), (7000.0, 12000.0), (13000.0, 18000.0)]

    def test_capacity_limit(self):
        # 5 bands of 6 kHz fit under the 32768 Hz Nyquist edge; 6 do not
        assert assign_channels(5, FM, 5.0, 1000.0)[-1] == (25000.0, 30000.0)
        with pytest.raises(ValueError):
            assign_channels(6, FM, 5.0, 1000.0)
        with pytest.raises(ValueError):
            assign_channels(11, FM, 5.0, 1000.0)
        # 4 x (5000 + 3192) Hz = 32768 Hz: the top band would end exactly at
        # Nyquist, where the cluster cannot search it
        with pytest.raises(ValueError, match="Nyquist"):
            assign_channels(4, FM, 5.0, 3192.0)
        assert assign_channels(4, FM, 5.0, 3191.0)[3][1] < FM.sample_rate / 2

    def test_rejects_zero_sensors(self):
        with pytest.raises(ValueError):
            assign_channels(0, FM, 5.0, 1000.0)

    def test_touching_bands_with_zero_guard_allowed(self):
        assert assign_channels(2, FM, 5.0, 0.0) == [(0.0, 5000.0), (5000.0, 10000.0)]

    def test_guard_must_be_finite_and_non_negative(self):
        # a NaN guard would pass the capacity check and only fail in capture
        for guard_hz in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError, match="guard_hz"):
                assign_channels(1, FM, 5.0, guard_hz)

    def test_codec_range_must_be_positive(self):
        # a band of no or negative width holds no tone, and a NaN one no bin
        for d_max in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="d_max"):
                assign_channels(1, FM, d_max, 1000.0)
        with pytest.raises(ValueError, match="Nyquist"):
            assign_channels(1, FM, math.inf, 1000.0)


def receive(truths, ch=NO_NOISE, antennas=1, guard_hz=1000.0, codec=CODEC, fm=FM):
    """receive_clusters at one point (ch, truths): (vd, peak, vd_hat) per band, as cluster_chain."""
    vds, peaks, vd_hats = receive_clusters(codec, fm, [ch], [truths], antennas, guard_hz)
    return list(zip(vds[0].tolist(), peaks[0].tolist(), vd_hats[0].tolist()))


class TestCapture:
    def test_noiseless_antennas_match_one_antenna(self):
        truths = [[(0.2, 0.3), (0.1, 0.8)]]
        one = receive_clusters(CODEC, FM, [NO_NOISE], truths, 1, 1000.0)
        three = receive_clusters(CODEC, FM, [NO_NOISE], truths, 3, 1000.0)
        assert [a.tolist() for a in three] == [a.tolist() for a in one]

    def test_noiseless_capture_is_tone_sum(self):
        # a sensor at the origin is a unit cosine at its band offset
        ((vd, peak, vd_hat),) = receive([(0.0, 0.0)])
        n = np.arange(FM.num_samples)
        spectrum = np.abs(np.fft.rfft(np.cos(2 * np.pi * 1000.0 / 65536.0 * n)))
        assert peak == np.argmax(spectrum) == 1000.0
        assert vd_hat == vd == 0.0

    def test_channel_gain_and_seed_reach_capture(self):
        # at -35 dB the band argmaxes move with the received level (the SNR:
        # a tone gain g is the SNR raised by 20*log10(g) dB) and the channel
        # seed, so a field the cluster dropped would break the match with
        # the oracle
        truths = [(0.11, 0.27), (0.35, 0.62), (0.02, 0.93)]
        base = ChannelSpec(snr_db=-35.0, rng_seed=3)
        channels = [
            base,
            dataclasses.replace(base, rng_seed=4),
            dataclasses.replace(base, snr_db=-35.0 + 20.0 * math.log10(3.0)),
        ]
        _, peaks, _ = receive_clusters(CODEC, FM, channels, [truths] * 3, 1, 1000.0)
        for ch, row in zip(channels, peaks.tolist()):
            assert row == [peak for _, peak, _ in cluster_chain(CODEC, truths, FM, ch)]
        assert peaks.tolist()[1] != peaks.tolist()[0] != peaks.tolist()[2]


class TestReceiveClusters:
    """receive_clusters: the tone layout and read-back of the SDR sweep and the cluster demo."""

    TRUTHS = [(0.11, 0.27), (0.35, 0.62), (0.02, 0.93)]

    def test_single_sensor_roundtrip(self):
        _, _, vd_hats = receive_clusters(CODEC, FM, [NO_NOISE], [[(0.21, 0.58)]], 1, 1000.0)
        dec = decode(CODEC, vd_hats)
        assert abs(vd_hats[0, 0] - encode(CODEC, 0.21, 0.58)) <= 0.5 / FM.scale + 1e-9
        assert abs(dec.x1_hat[0, 0] - 0.21) <= 0.5 / FM.scale + 1e-9

    @given(
        truths=st.lists(
            st.tuples(st.floats(0.0, CODEC.v1), st.floats(0.0, CODEC.v2)), min_size=1, max_size=5
        ),
        geometry=st.one_of(
            st.just((16, 65536.0)), st.tuples(st.integers(8, 16), st.floats(1000.0, 200_000.0))
        ),
        antennas=st.integers(1, 3),
        guard=st.floats(0.0, 1.5),
        snr_db=st.sampled_from([math.inf, -20.0, -30.0]),
        rng_seed=st.integers(0, 2**62),
    )
    @settings(max_examples=50, deadline=None)
    def test_peak_is_band_argmax_of_combined_spectrum(
        self, truths, geometry, antennas, guard, snr_db, rng_seed
    ):
        # records of 2^8..2^16 samples at any rate; the scale keeps the
        # default geometry's 1000 Hz per volt, and guards of up to 1.5 V of
        # tone fit five bands below Nyquist
        record_exp, sample_rate = geometry
        fm = FmConfig(
            scale=1000.0 * sample_rate / 65536.0,
            sample_rate=sample_rate,
            record_seconds=2**record_exp / sample_rate,
        )
        guard_hz = guard * fm.scale
        layout = assign_channels(len(truths), fm, CODEC.d_max, guard_hz)
        assert layout == fdma_bands(len(truths), fm, CODEC.d_max, guard_hz)
        ch = ChannelSpec(snr_db=snr_db, rng_seed=rng_seed)
        expected = cluster_chain(CODEC, truths, fm, ch, antennas, guard_hz)
        assert receive(truths, ch, antennas, guard_hz, fm=fm) == expected

    def test_three_sensors_noiseless_match_solo_runs(self):
        joint = receive(self.TRUTHS)
        bands = assign_channels(3, FM, CODEC.d_max, 1000.0)
        for i, truth in enumerate(self.TRUTHS):
            # sensor i alone: a one-sensor cluster whose guard puts it in band i
            (solo,) = receive([truth], guard_hz=bands[i][0])
            assert joint[i] == solo
            assert decode(CODEC, joint[i][2]) == decode(CODEC, solo[2])

    def test_no_sensor_rejected(self):
        with pytest.raises(ValueError, match="num_sensors"):
            receive_clusters(CODEC, FM, [NO_NOISE], np.empty((1, 0, 2)), 1, 1000.0)

    def test_layout_follows_the_codec_range_and_guard(self):
        # a 2 V codec gives 2 kHz bands: with 500 Hz guards the second
        # sensor's band starts at 500 + 2000 + 500 Hz
        codec = MappingConfig(2.0, 5, 1.0)
        results = receive([(0.0, 0.0), (0.0, 0.0)], guard_hz=500.0, codec=codec)
        assert [(peak, vd_hat) for _, peak, vd_hat in results] == [(500.0, 0.0), (3000.0, 0.0)]

    def test_noiseless_read_back_is_the_explicit_chain(self):
        vds, peaks, vd_hats = receive_clusters(CODEC, FM, [NO_NOISE], [self.TRUTHS], 1, 1000.0)
        expected = cluster_chain(CODEC, self.TRUTHS, FM, NO_NOISE)
        assert list(zip(vds[0].tolist(), peaks[0].tolist(), vd_hats[0].tolist())) == expected
        assert np.all(np.abs(vd_hats - vds) <= 0.5 / FM.scale)

    def test_peak_is_read_back_relative_to_its_band(self):
        # vd = 1.25 and 3.5 V put both tones on a bin: 1000 + 1250 and 7000 + 3500 Hz
        codec = MappingConfig(5.0, 5, 1.0)
        truths = [[(0.75, 0.25), (0.5, 0.75)]]
        vds, peaks, vd_hats = receive_clusters(codec, FM, [NO_NOISE], truths, 1, 1000.0)
        assert peaks.tolist() == [[2250.0, 10500.0]]
        assert vd_hats.tolist() == vds.tolist() == [[1.25, 3.5]]

    def test_results_are_points_by_bands(self):
        channels = [ChannelSpec(-20.0, 5), ChannelSpec(-35.0, 5), ChannelSpec(-35.0, 6), NO_NOISE]
        truths = [self.TRUTHS[i:] + self.TRUTHS[:i] for i in range(len(channels))]
        results = receive_clusters(CODEC, FM, channels, truths, 2, 1000.0)
        assert [a.shape for a in results] == [(4, 3)] * 3
        for i, ch in enumerate(channels):
            got = list(zip(*(a[i].tolist() for a in results)))
            assert got == cluster_chain(CODEC, truths[i], FM, ch, antennas=2)

    def test_truths_must_be_points_by_sensors_by_two(self):
        # one point's (sensors, 2) array, pairs of three coordinates and a
        # point list with no array shape are rejected, naming the shape
        for truths, shape in (
            (self.TRUTHS, "(3, 2)"),
            ([[(0.1, 0.2, 0.3)]], "(1, 1, 3)"),
            (np.zeros((1, 3, 2, 1)), "(1, 3, 2, 1)"),
            ([], "(0,)"),
        ):
            message = f"truths must be a (points, sensors, 2) array, got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                receive_clusters(CODEC, FM, [NO_NOISE], truths, 1, 1000.0)

    def test_one_channel_per_point(self):
        for channels in ([NO_NOISE] * 2, []):
            with pytest.raises(ValueError, match="channels for 1 points"):
                receive_clusters(CODEC, FM, channels, [self.TRUTHS], 1, 1000.0)


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
        assert receive_points(FM, [ch], [self.FREQS], self.BANDS).tolist() == [expected]

    def test_identical_spectra_keep_argmax(self):
        # noiseless antennas see identical spectra, whose combine is the
        # spectrum itself: the peaks equal the one-antenna peaks
        one = receive_points(FM, [NO_NOISE], [self.FREQS], self.BANDS).tolist()
        three = receive_points(FM, [NO_NOISE], [self.FREQS], self.BANDS, antennas=3).tolist()
        assert three == one == [[3457.0, 9877.0]]

    def test_empty_rejected(self):
        # no antenna means no spectrum to combine
        with pytest.raises(ValueError, match="antennas"):
            receive_points(FM, [NO_NOISE], [self.FREQS], self.BANDS, antennas=0)
        with pytest.raises(ValueError, match="antennas"):
            receive_clusters(CODEC, FM, [NO_NOISE], [[(0.1, 0.1)]], 0, 1000.0)

    def test_two_capture_combining_reduces_miss_rate(self):
        # at -30 dB single captures miss the tone peak noticeably more often
        channels = [ChannelSpec(snr_db=-30.0, rng_seed=trial) for trial in range(100)]
        misses = {}
        for antennas in (1, 2):
            vds, _, vd_hats = receive_clusters(
                CODEC, FM, channels, [[(0.37, 0.53)]] * 100, antennas, 1000.0
            )
            misses[antennas] = int(np.sum(np.abs(vd_hats - vds) > 1e-3))
        assert misses[2] <= misses[1]
        assert misses[1] > 0
