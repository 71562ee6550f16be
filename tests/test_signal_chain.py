"""Transmission chain tests: tone-sum capture, channel statistics, the receiver and its proofs."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ajscc import signal_chain
from ajscc.signal_chain import (
    PEAK_WINDOW,
    ChannelSpec,
    FmConfig,
    capture,
    noise_sigma,
    receive_points,
    tone_bins,
    transmit_receive,
)
from oracle import (
    band_peaks,
    chain_voltage,
    leak_pinned_noise,
    record_peaks,
    tie_frequency,
    unit_noise,
)

FM = FmConfig()
NO_NOISE = ChannelSpec(snr_db=math.inf)


def fm_tone(fm, vd):
    """The noiseless FM samples of voltage vd: one tone at scale*vd Hz."""
    return capture(fm, ChannelSpec(), [fm.scale * vd])[0]


def full_band_peak(fm, ch, freq):
    """The receiver's peak (Hz) of one tone searched over the whole spectrum."""
    ((peak,),) = receive_points(fm, [ch], [[freq]], [(0.0, fm.sample_rate / 2)]).tolist()
    return peak


class TestToneRecord:
    """One noiseless capture tone per voltage: its record, its peak and the geometry FmConfig accepts."""

    def test_record_geometry(self):
        wf = fm_tone(FM, 2.5)
        assert wf.shape == (65536,)
        assert wf.dtype == np.float64

    def test_mid_range_tone_frequency(self):
        assert full_band_peak(FM, NO_NOISE, 2500.0) == 2500.0

    def test_zero_voltage_is_dc(self):
        wf = fm_tone(FM, 0.0)
        assert np.allclose(wf, 1.0)
        assert full_band_peak(FM, NO_NOISE, 0.0) == 0.0

    def test_top_of_range(self):
        assert full_band_peak(FM, NO_NOISE, 5000.0) == 5000.0

    def test_amplitude_scaling(self):
        # every tone is a unit cosine: the SNR alone sets the received level
        wf = fm_tone(FM, 1.0)
        assert np.max(np.abs(wf)) == 1.0

    def test_nyquist_violation_rejected(self):
        with pytest.raises(ValueError):
            fm_tone(FM, 33.0)

    def test_negative_voltage_rejected(self):
        with pytest.raises(ValueError):
            fm_tone(FM, -0.1)

    def test_fractional_record_rejected(self):
        with pytest.raises(ValueError):
            FmConfig(sample_rate=65536.0, record_seconds=1 / 3)
        with pytest.raises(ValueError):
            FmConfig(sample_rate=1e-7, record_seconds=1.0)

    def test_record_not_power_of_two_rejected(self):
        # the record is the receiver's FFT, so its length is a power of two >= 2
        for sample_rate, record_seconds in ((48000.0, 1.0), (1.0, 1.0), (65536.0, 1000 / 65536)):
            with pytest.raises(ValueError, match="power-of-two"):
                FmConfig(sample_rate=sample_rate, record_seconds=record_seconds)
        assert FmConfig(sample_rate=48000.0, record_seconds=16384 / 48000).num_samples == 16384
        assert FmConfig(sample_rate=2.0).num_samples == 2


def tone(freq, fm=FM):
    """The explicit unit cos(wn) expression a capture must reproduce."""
    n = np.arange(fm.num_samples)
    return np.cos(2.0 * np.pi * freq / fm.sample_rate * n)


class TestCapture:
    def test_seeding_identity(self):
        # antenna 0 of SeedSequence([s, a]) is the default_rng(s) stream, so
        # the single-sensor chain and the cluster share one seeding rule and
        # the recorded sweeps keep their draws; a numpy change must fail here
        for s in (0, 1, 42, 2**31 - 1, 2**32, 2**40 + 3, 2**62 - 1):
            a = np.random.default_rng(s).standard_normal(256)
            b = np.random.default_rng(np.random.SeedSequence([s, 0])).standard_normal(256)
            assert np.array_equal(a, b), s

    def test_noiseless_is_explicit_tone_sum(self):
        freqs = [1234.0, 5678.9, 20000.25]
        (wf,) = capture(FM, NO_NOISE, freqs)
        expected = tone(freqs[0])
        for freq in freqs[1:]:
            expected += tone(freq)
        assert np.array_equal(wf, expected)

    def test_noiseless_antennas_are_equal_copies(self):
        caps = capture(FM, NO_NOISE, [2500.0], antennas=2)
        assert np.array_equal(caps[0], caps[1])
        assert caps[0] is not caps[1]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            capture(FM, NO_NOISE, [2500.0], antennas=0)
        with pytest.raises(ValueError):
            capture(FM, NO_NOISE, [])
        with pytest.raises(ValueError):
            capture(FM, NO_NOISE, [FM.sample_rate / 2])
        with pytest.raises(ValueError):
            capture(FM, NO_NOISE, [math.nan])

    def test_non_finite_tone_parameters_rejected(self):
        # capture builds its samples without scanning them: a non-finite
        # frequency is rejected up front
        for freq in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="outside"):
                capture(FM, NO_NOISE, [freq])

    @pytest.mark.parametrize("snr_db", [0.0, -7.0, -20.0, -35.0, -45.0, 13.25, -3050.0])
    def test_noise_is_sigma_times_unit_noise(self, snr_db):
        # the one noise convention, which the sweeps' common random numbers
        # rest on: each antenna adds sigma times its (seed, antenna) unit
        # draw, bit for bit, at every SNR
        tones = [1500.0, 9000.5]
        ch = ChannelSpec(snr_db=snr_db, rng_seed=99)
        (clean,) = capture(FM, NO_NOISE, tones)
        noisy = capture(FM, ch, tones, antennas=3)
        for wf, unit in zip(noisy, unit_noise(FM, ch.rng_seed, 3), strict=True):
            assert wf.tobytes() == (clean + noise_sigma(ch) * unit).tobytes()


# closed-form bins agree with np.fft.rfft of the synthesized tone to this
# fraction of the record length (measured worst ~5e-12)
TONE_BINS_TOL = 1e-10


class TestToneBins:
    @given(
        sample_rate=st.integers(8, 200_000),
        record_exp=st.integers(1, 16),
        freq_fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
    )
    # at M = 2 the image of a tone next to Nyquist lies at d ~ -M from bin
    # 1, where the ratio of sines takes its alias limit
    @example(sample_rate=8, record_exp=1, freq_fracs=[0.9999999999999999])
    @settings(max_examples=200, deadline=None)
    def test_matches_rfft_of_capture(self, sample_rate, record_exp, freq_fracs):
        m = 2**record_exp
        fm = FmConfig(sample_rate=float(sample_rate), record_seconds=m / sample_rate)
        freqs = [f * fm.sample_rate / 2 for f in freq_fracs]
        (wf,) = capture(fm, NO_NOISE, freqs)
        expected = np.fft.rfft(wf)
        got = tone_bins(fm, freqs, np.arange(m // 2 + 1))
        assert np.max(np.abs(got - expected)) <= TONE_BINS_TOL * m * len(freqs)

    def test_on_bin_and_dc_values(self):
        got = tone_bins(FM, [2500.0], np.array([2499, 2500, 2501]))
        assert got[1] == pytest.approx(FM.num_samples / 2)
        assert np.all(np.abs(got[[0, 2]]) < 1e-6)
        dc = tone_bins(FM, [0.0], np.array([0]))
        assert dc[0] == pytest.approx(FM.num_samples)


class TestLeakBound:
    @given(
        sample_rate=st.floats(1.0, 1e6),
        record_exp=st.integers(7, 16),
        freq_frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_tone_bin_outside_the_window_exceeds_the_leak(self, sample_rate, record_exp, freq_frac):
        # the one analytic assumption of the proof: with the window clear
        # of Nyquist, every rfft bin outside it is at most the leak bound
        m = 2**record_exp
        fm = FmConfig(sample_rate=sample_rate, record_seconds=m / sample_rate)
        # nearest bin c0 = round(f * M / fs) <= M/2 - PEAK_WINDOW - 1
        freq = freq_frac * (m // 2 - PEAK_WINDOW - 1) * sample_rate / m
        c0 = round(freq * m / sample_rate)
        assert c0 + PEAK_WINDOW + 1 <= m // 2
        k = np.arange(m // 2 + 1)
        outside = k[np.abs(k - c0) > PEAK_WINDOW]
        leak = 1.0 / math.sin(math.pi * (PEAK_WINDOW + 0.5) / m)
        assert np.max(np.abs(tone_bins(fm, [freq], outside))) <= leak


FULL = (0.0, FM.sample_rate / 2)


def bins_or_none(found):
    """A ``_proved_bins`` array as nested lists of int bins, None for each row left open."""
    return [[None if math.isnan(k) else int(k) for k in row] for row in found.tolist()]


def proved_bin(fm, freqs, band, noise, sigma):
    """The proof's bin of one band (lo_hz, hi_hz) at one point: ``_proved_bins`` of one row, or None."""
    spans = [signal_chain._band_bins(fm, band)]
    found = signal_chain._proved_bins(fm, np.array([freqs]), spans, np.array([sigma]), noise)
    ((k,),) = bins_or_none(found)
    return k


def zero_noise(fm=FM):
    return signal_chain._noise([np.zeros(fm.num_samples // 2 + 1, dtype=complex)])


def unit_spectrum(fm, rng_seed, antennas=1):
    """The unit-variance noise of a seed: the rfft of each antenna's unit draw."""
    return signal_chain._noise([np.fft.rfft(u) for u in unit_noise(fm, rng_seed, antennas)])


def pinned_noise(bin_index, value):
    """A noise spectrum of FM's record that is zero except for one bin."""
    bins = np.zeros(FM.num_samples // 2 + 1, dtype=complex)
    bins[bin_index] = value
    return signal_chain._noise([bins])


def tone_frequency(fm, place):
    """A tone (Hz) from a TONE_PLACES draw: a fraction of Nyquist, or a bin offset from an edge."""
    if isinstance(place, float):
        return place * fm.sample_rate / 2
    edge, bins = place
    bin_width = fm.sample_rate / fm.num_samples
    return bins * bin_width if edge == "dc" else fm.sample_rate / 2 - bins * bin_width


def band_edges(fm, place, freq):
    """A band (lo_hz, hi_hz) holding a bin from a BAND_PLACES draw, near freq for a tone place."""
    nyquist = fm.sample_rate / 2
    bin_width = fm.sample_rate / fm.num_samples
    if place[0] == "tone":
        edges = [min(max(freq + x * bin_width, 0.0), nyquist) for x in place[1:]]
    else:
        edges = [x * nyquist for x in place]
    lo = min(edges)
    return lo, max(max(edges), lo + bin_width)


# fractions of Nyquist, or edges within 40 bins of the point's first tone,
# which cut its window
BAND_PLACES = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.tuples(st.just("tone"), st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
)


# anywhere below Nyquist, or within PEAK_WINDOW bins of DC or of Nyquist,
# where the windows are clipped or reach Nyquist and the capture decides
TONE_PLACES = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.tuples(st.just("dc"), st.floats(0.0, PEAK_WINDOW)),
    st.tuples(st.just("nyquist"), st.floats(1e-6, PEAK_WINDOW)),
)


class TestProvedPeak:
    """The proof accepts a bin only when its bounds separate it from every rival."""

    def test_clean_tone_is_accepted(self):
        assert proved_bin(FM, [2500.0], FULL, None, 0.0) == 2500
        assert proved_bin(FM, [2500.0], FULL, zero_noise(), 1.0) == 2500

    def test_out_of_window_noise_winner_is_proved(self):
        # a real noise record whose bin 10000 beats the tone's peak: the
        # leak-plus-peak bound fails, and the exact candidate wins
        noise = 1.25 * capture(FM, NO_NOISE, [10000.0])[0]
        spectrum = signal_chain._noise([np.fft.rfft(noise)])
        assert spectrum.peak + 1.0 / math.sin(math.pi * (PEAK_WINDOW + 0.5) / FM.num_samples) > (
            FM.num_samples / 2
        )
        assert proved_bin(FM, [2500.0], FULL, spectrum, 1.0) == 10000
        assert np.argmax(np.abs(np.fft.rfft(tone(2500.0) + noise))) == 10000

    def test_out_of_window_near_tie_falls_back(self):
        # bin 10000 lifted to within 1e-12 of the tone's peak cannot be told
        # apart; 1% above it is proved the winner, 1% below it the loser
        peak = abs(tone_bins(FM, [2500.0], np.array([2500]))[0])
        leak = tone_bins(FM, [2500.0], np.array([10000]))[0]
        for ratio, expected in ((1.0 + 1e-12, None), (1.01, 10000), (0.99, 2500)):
            noise = pinned_noise(10000, leak * (peak * ratio / abs(leak) - 1.0))
            assert proved_bin(FM, [2500.0], FULL, noise, 1.0) == expected, ratio

    def test_tone_leak_decides_an_out_of_window_winner(self):
        # a noise bin below the tone's peak that the tone's own leakage
        # (|t| ~ 1.4 at bin 10000) lifts above it: a bound of noise alone
        # would prove the window's bin
        freq = 2500.5
        peak = float(np.max(np.abs(tone_bins(FM, [freq], np.array([2500, 2501])))))
        leak = tone_bins(FM, [freq], np.array([10000]))[0]
        noise = pinned_noise(10000, leak / abs(leak) * (peak - abs(leak) / 2))
        assert noise.peak < peak
        assert abs(leak + noise.bins[0][10000]) > peak * (1.0 + 1e-5)
        assert proved_bin(FM, [freq], FULL, noise, 1.0) == 10000

    def test_near_tie_in_window_falls_back(self):
        # a half-bin tone plus a small noise value that lifts bin 2501 to
        # within 1e-12 of bin 2500; the image term alone separates them by ~2e-4
        freq = 2500.5
        t = tone_bins(FM, [freq], np.array([2500, 2501]))
        noise = pinned_noise(2501, t[1] * (abs(t[0]) * (1.0 + 1e-12) / abs(t[1]) - 1.0))
        assert noise.peak < 10.0
        assert proved_bin(FM, [freq], FULL, zero_noise(), 1.0) is not None
        assert proved_bin(FM, [freq], FULL, noise, 1.0) is None

    def test_window_near_nyquist_falls_back(self):
        assert proved_bin(FM, [FM.sample_rate / 2 - 10.0], FULL, None, 0.0) is None
        assert proved_bin(FM, [FM.sample_rate / 2 - 10.0], FULL, zero_noise(), 1.0) is None
        # one tone near Nyquist spoils the leak bound of every band
        near_nyquist = [2500.0, FM.sample_rate / 2 - 10.0]
        assert proved_bin(FM, near_nyquist, (0.0, 5000.0), None, 0.0) is None
        # 64 samples: every window reaches Nyquist
        short = FmConfig(sample_rate=64.0)
        peaks = [proved_bin(short, [f], (0.0, 32.0), None, 0.0) for f in np.arange(0.0, 32.0, 0.5)]
        assert peaks == [None] * 64

    def test_tones_and_band(self):
        # each band's argmax over two tones, their windows overlapping
        tones = [2500.0, 2540.25]
        assert proved_bin(FM, tones, (0.0, 2520.0), None, 0.0) == 2500
        assert proved_bin(FM, tones, (2520.0, 5000.0), None, 0.0) == 2540
        # a band edge inside a tone's window: the edge bin is the argmax,
        # proved against one tone's leak (~642) but not against two tones'
        assert proved_bin(FM, tones[1:], (2505.0, 2530.0), None, 0.0) == 2530
        assert proved_bin(FM, tones, (2505.0, 2530.0), None, 0.0) is None
        # a band that meets no window, or holds no bin, is left to receive_points
        assert proved_bin(FM, tones, (6000.0, 7000.0), None, 0.0) is None
        no_bin = signal_chain._proved_bins(FM, np.array([tones]), [(2501, 2500)], np.zeros(1), None)
        assert bins_or_none(no_bin) == [[None]]

    def test_sigma_scales_the_unit_noise(self):
        # sigma times a unit spectrum proves what the scaled spectrum proves
        noise = unit_spectrum(FM, 5, antennas=2)
        scaled = signal_chain._noise([40.0 * b for b in noise.bins])
        for band in ((0.0, 4000.0), (4000.0, 9000.0)):
            k = proved_bin(FM, [2500.0, 7000.5], band, noise, 40.0)
            assert k is not None
            assert k == proved_bin(FM, [2500.0, 7000.5], band, scaled, 1.0)

    def test_combine_overflow_is_unproved(self):
        # at -3050 dB the 2-antenna mean square overflows, so the proof
        # leaves the band to the capture and its "overflows" error
        ch = ChannelSpec(snr_db=-3050.0, rng_seed=3)
        noise = unit_spectrum(FM, ch.rng_seed, antennas=2)
        with np.errstate(over="ignore"):
            assert proved_bin(FM, [2500.0], FULL, noise, noise_sigma(ch)) is None
            with pytest.raises(ValueError, match="overflows"):
                receive_points(FM, [ch], [[2500.0]], [FULL], antennas=2)
        # one antenna needs no square: both prove the same finite peak
        one = signal_chain._noise(noise.bins[:1])
        k = proved_bin(FM, [2500.0], FULL, one, noise_sigma(ch))
        assert k is not None and [[float(k)]] == receive_points(FM, [ch], [[2500.0]], [FULL]).tolist()

    @given(
        sample_rate=st.floats(8.0, 200_000.0),
        record_exp=st.integers(7, 16),
        tone_count=st.integers(1, 4),
        point_draws=st.lists(
            st.tuples(
                st.lists(TONE_PLACES, min_size=4, max_size=4),
                st.sampled_from([math.inf, 0.0, -20.0, -35.0, -45.0]),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=4,
        ),
        band_places=st.lists(BAND_PLACES, min_size=1, max_size=3),
        half_bin=st.booleans(),
        antennas=st.integers(1, 3),
        rng_seeds=st.lists(st.integers(0, 2**62), min_size=1, max_size=3),
        pin=st.one_of(st.none(), st.just(0.0), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_proved_bin_is_the_explicit_chain_peak(
        self, sample_rate, record_exp, tone_count, point_draws, band_places, half_bin, antennas,
        rng_seeds, pin,
    ):
        # the proof, and one receive_points call over points of 1-3 seeds,
        # interleaved, each with its own tones and SNR, one tone count and
        # one band list for the call, against the oracle at each point; the
        # call proves each run of one seed's points in one block, each run's
        # noise drawn into the buffers of the one before.  pin adds a noise
        # bin next to the first point's top window that only the leak bound
        # tells from the window's peak (pin 0: a tie)
        m = 2**record_exp
        fm = FmConfig(sample_rate=sample_rate, record_seconds=m / sample_rate)
        bin_width = sample_rate / m
        channels, tones = [], []
        for places, snr_db, seed_index in point_draws:
            freqs = [tone_frequency(fm, place) for place in places[:tone_count]]
            if half_bin:  # exact half-bin offsets, the closest calls
                freqs = [(math.floor(f / bin_width) + 0.5) * bin_width for f in freqs]
                freqs = [f if f < sample_rate / 2 else 0.5 * bin_width for f in freqs]
            rng_seed = rng_seeds[seed_index % len(rng_seeds)]
            channels.append(ChannelSpec(snr_db=snr_db, rng_seed=rng_seed))
            tones.append(freqs)
        bands = [band_edges(fm, place, tones[0][0]) for place in band_places]
        expected = [band_peaks(fm, ch, freqs, bands, antennas) for ch, freqs in zip(channels, tones)]
        for ch, freqs, peaks in zip(channels, tones, expected):
            noise = unit_spectrum(fm, ch.rng_seed, antennas)
            for band, peak in zip(bands, peaks):
                k = proved_bin(fm, freqs, band, noise, noise_sigma(ch))
                if k is not None:
                    assert k * bin_width == peak
        # noiseless DC tones leave a band all zero: the first such point raises
        degenerate = [None in peaks for peaks in expected]
        if any(degenerate):
            with pytest.raises(ValueError, match="degenerate"):
                receive_points(fm, channels, tones, bands, antennas)
            cut = degenerate.index(True)
            channels, tones, expected = channels[:cut], tones[:cut], expected[:cut]
        got = receive_points(fm, channels, np.reshape(tones, (-1, tone_count)), bands, antennas)
        assert got.tolist() == expected
        if not channels:
            return
        ch, freqs = channels[0], tones[0]
        sigma = noise_sigma(ch)
        if pin is None or sigma == 0.0:
            return
        unit = unit_noise(fm, ch.rng_seed, antennas)
        pinned = leak_pinned_noise(fm, freqs, unit, sigma, pin)
        if pinned is None:
            return
        (clean,) = capture(fm, NO_NOISE, freqs)
        full = (0.0, sample_rate / 2)
        noise = signal_chain._noise([np.fft.rfft(u) for u in pinned])
        k = proved_bin(fm, freqs, full, noise, sigma)
        if k is not None:
            assert [k * bin_width] == record_peaks(fm, [clean + sigma * u for u in pinned], [full])

    def test_block_rows_are_their_own_one_row_calls(self):
        # each tone count's rows of different tones, bands, widths and SNRs
        # share one block; each row's decision is that of the row proved alone
        noise = unit_spectrum(FM, 9, antennas=2)
        tone_sets = [
            [2499.6],
            [12000.4],
            [2500.4, 2510.0, 9000.5],
            [9000.0, 2499.7, 12010.3],
            [7000.0, 30.0],
            [2490.2, 11999.6],
            [5.0, 31e3, 40.0, 12e3],
            [2500.0, 7000.3, 12005.0, 100.0],
        ]
        # (2490, 2499): the band ends one bin below the first tone's peak
        bands = [FULL, (2490.0, 2505.0), (2490.0, 2499.0), (0.0, 100.0), (11990.0, 12010.0)]
        points = []
        for freqs in tone_sets:
            for snr_db in (math.inf, 0.0, -35.0):
                points.append((freqs, noise_sigma(ChannelSpec(snr_db=snr_db))))
        alone = blocks_of_each_tone_count(points, bands, noise)
        # proved rows of every tone count, and of ranges 10, 16 and 65 bins wide
        proved = {len(freqs) for (freqs, _), ks in zip(points, alone) if ks != [None] * len(bands)}
        assert proved == {1, 2, 3, 4}
        # one (tones, band) at five sigmas, repeated and interleaved with
        # other points, and on-bin tones, whose peak bins take the kernel's
        # on-bin limit: the points of one tones share one evaluation of their
        # tone bins per band, and each row still decides as it would alone
        on_bin = [[2500.0], [2500.0, 9000.0, 31000.0]]
        repeated = []
        for snr_db in (math.inf, 10.0, -20.0, -35.0, -45.0):
            sigma = noise_sigma(ChannelSpec(snr_db=snr_db))
            for freqs in on_bin + tone_sets[:2]:
                repeated.append((freqs, sigma))
        repeated += points[::7] + repeated[::3]
        alone = blocks_of_each_tone_count(repeated, bands[:2], noise)
        # the on-bin tones are proved noiseless, and the sigmas of one
        # (tones, band) reach different decisions
        assert alone[0] == [2500, 2500]
        assert len({ks[0] for (freqs, _), ks in zip(repeated, alone) if freqs == on_bin[0]}) > 1

    def test_runs_of_one_seed(self, monkeypatch):
        # points of seeds 6 and 7, alternating, then a run of one seed that
        # is longer than BLOCK_ROWS rows: each run is proved in blocks of at
        # most BLOCK_ROWS rows, whole points at a time, on its one noise
        # draw, and each point reads what its one-point call reads
        fm = FmConfig(sample_rate=8192.0, record_seconds=0.5)
        blocks = []
        proved_bins = signal_chain._proved_bins

        def recorded(fm, tones, spans, sigmas, noise):
            blocks.append((len(tones) * len(spans), noise))
            return proved_bins(fm, tones, spans, sigmas, noise)

        monkeypatch.setattr(signal_chain, "_proved_bins", recorded)
        bands = [(0.0, 2000.0), (0.0, 4096.0)]
        tone_sets = [[1500.3, 2500.2], [1500.7, 3300.0], [600.0, 1900.4]]
        channels, tones = [], []
        for snr_db in (math.inf, 0.0, -10.0):
            for freqs in tone_sets:
                channels.append(ChannelSpec(snr_db=snr_db, rng_seed=[6, 7][len(tones) % 2]))
                tones.append(freqs)
        run = signal_chain.BLOCK_ROWS + 44
        for freq in np.linspace(10.0, 1990.0, run // 2).tolist():
            channels.append(ChannelSpec(snr_db=-5.0, rng_seed=7))
            tones.append([freq, 3000.0])
        mixed = receive_points(fm, channels, tones, bands, antennas=2).tolist()
        sizes = [n for n, _ in blocks]
        assert sizes == [2] * 9 + [signal_chain.BLOCK_ROWS, 44]
        assert [noise is None for _, noise in blocks[:9]] == [True] * 3 + [False] * 6
        assert blocks[-1][1] is blocks[-2][1]
        alone = [
            receive_points(fm, [ch], [freqs], bands, antennas=2).tolist()[0]
            for ch, freqs in zip(channels, tones)
        ]
        assert mixed == alone

    def test_rows_of_one_tones_and_band_share_one_evaluation(self, monkeypatch):
        # a seed's points at six SNRs, each with the same three tones and
        # bands, as the SDR sweep sends them: the block evaluates the tone
        # bins of each (tones, band) once
        evaluated = []
        tone_sum = signal_chain._tone_sum

        def counted(m, offsets, *args):
            evaluated.append(len(offsets))
            return tone_sum(m, offsets, *args)

        monkeypatch.setattr(signal_chain, "_tone_sum", counted)
        freqs = [3457.3, 9877.6, 16000.2]
        bands = [(0.0, 6000.0), (6500.0, 13000.0), (13500.0, 20000.0)]
        snrs = (math.inf, 20.0, 10.0, 0.0, -10.0, -20.0)
        channels = [ChannelSpec(snr_db=snr_db, rng_seed=5) for snr_db in snrs]
        got = receive_points(FM, channels, [freqs] * 6, bands, antennas=2)
        assert got.tolist() == [[3457.0, 9878.0, 16000.0]] * 6
        assert evaluated == [3]

    def test_a_best_bin_at_the_margin_bound_does_not_win(self):
        # the decision is strict: a best bin equal to (1 + PEAK_MARGIN) times
        # the larger of the runner-up and the bound outside is left open
        bound = np.array([650.0, 1e3, 3.5])
        at_margin = (1.0 + signal_chain.PEAK_MARGIN) * bound
        above = np.nextafter(at_margin, math.inf)
        assert not signal_chain._wins(at_margin, bound, 0.5 * bound).any()
        assert not signal_chain._wins(at_margin, -math.inf, bound).any()
        assert signal_chain._wins(above, bound, 0.5 * bound).all()
        assert signal_chain._wins(above, -math.inf, bound).all()
        assert not signal_chain._wins(np.array([math.inf, math.nan]), -math.inf, 1.0).any()


def blocks_of_each_tone_count(points, bands, noise):
    """Each (freqs, sigma) point's one-row proofs per band, checked against each tone count's block.

    Returns one list of bins per point, None for a band left open.
    """
    alone = [[proved_bin(FM, freqs, band, noise, sigma) for band in bands] for freqs, sigma in points]
    spans = [signal_chain._band_bins(FM, band) for band in bands]
    for count in {len(freqs) for freqs, _ in points}:
        index = [i for i, (freqs, _) in enumerate(points) if len(freqs) == count]
        tones = np.array([points[i][0] for i in index])
        sigmas = np.array([points[i][1] for i in index])
        block = signal_chain._proved_bins(FM, tones, spans, sigmas, noise)
        assert bins_or_none(block) == [alone[i] for i in index]
    return alone


@pytest.fixture
def no_capture(monkeypatch):
    """Make any capture fail the test: the call must be settled before, or by, the proof."""

    def fail(*args):
        raise AssertionError("capture called")

    monkeypatch.setattr(signal_chain, "capture", fail)


class TestReceiveRejects:
    """receive_points rejects what it rejected before the proof moved inside it, whatever the proof finds."""

    def test_no_antenna(self, no_capture):
        assert proved_bin(FM, [2500.0], FULL, None, 0.0) == 2500
        with pytest.raises(ValueError, match="antennas must be >= 1"):
            receive_points(FM, [NO_NOISE], [[2500.0]], [FULL], antennas=0)

    def test_no_tone(self, no_capture):
        for bands in ([FULL], []):
            with pytest.raises(ValueError, match="a tone or more per point"):
                receive_points(FM, [NO_NOISE], np.empty((1, 0)), bands)

    def test_tone_outside_nyquist_without_a_band(self, no_capture):
        for freq in (-1.0, FM.sample_rate / 2, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"outside \[0, Nyquist\)"):
                receive_points(FM, [NO_NOISE], [[2500.0, freq]], [])

    def test_band_without_bins(self, no_capture):
        ch = ChannelSpec(snr_db=-20.0, rng_seed=4)
        assert receive_points(FM, [ch], [[2500.0]], [FULL]).tolist() == [[2500.0]]
        with pytest.raises(ValueError, match="contains no FFT bins"):
            receive_points(FM, [ch], [[2500.0]], [FULL, (2000.4, 2000.8)])
        # every band is checked, whatever the number of points
        with pytest.raises(ValueError, match="contains no FFT bins"):
            receive_points(FM, [ch, ch], [[2500.0], [2500.0]], [FULL, (2000.4, 2000.8)])

    def test_the_first_rejected_point_raises(self, no_capture):
        # the checks run in order: antennas, the tones' shape, the tones'
        # range (naming the first tone outside, point by point), the channel
        # count, the bands; so each call raises its earliest fault
        empty_band = [FULL, (2000.4, 2000.8)]
        with pytest.raises(ValueError, match="antennas"):
            receive_points(FM, [], [2500.0], empty_band, antennas=0)
        with pytest.raises(ValueError, match="a tone or more per point"):
            receive_points(FM, [], [2500.0, -1.0], empty_band)
        with pytest.raises(ValueError, match=r"tone at -1.0 Hz is outside \[0, Nyquist\)"):
            receive_points(FM, [], [[2500.0, -1.0], [-2.0, 1.0]], empty_band)
        with pytest.raises(ValueError, match="1 channels for 2 points"):
            receive_points(FM, [ChannelSpec()], [[2500.0], [1000.0]], empty_band)
        with pytest.raises(ValueError, match="contains no FFT bins"):
            receive_points(FM, [ChannelSpec()], [[2500.0]], empty_band)

    def test_all_zero_band_beside_a_proved_band(self):
        # the proof accepts no all-zero band: its peak must beat a positive leak
        assert proved_bin(FM, [0.0], (0.0, 2000.0), None, 0.0) == 0
        with pytest.raises(ValueError, match="degenerate"):
            receive_points(FM, [NO_NOISE], [[0.0]], [(0.0, 2000.0), (1000.0, 2000.0)])

    def test_overflowing_combine_with_the_trial_noise(self, monkeypatch):
        # a -20 dB point proves its bands from the trial's noise; the -3050 dB
        # point of the same seed is left open, so exactly one capture runs
        # and rejects it
        channels = [ChannelSpec(snr_db=snr_db, rng_seed=3) for snr_db in (-20.0, -3050.0)]
        captures = []
        original = signal_chain.capture
        monkeypatch.setattr(signal_chain, "capture", lambda *a: captures.append(a) or original(*a))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            receive_points(FM, channels, [[2500.0, 9000.0]] * 2, [(0.0, 5000.0), FULL], 2)
        assert len(captures) == 1
        assert captures[0][1].snr_db == -3050.0

    def test_points_of_two_seeds(self, no_capture):
        # points of several seeds, interleaved and with a noiseless point
        # mixed in: each seed's points read what their own one-seed call reads
        channels = [
            ChannelSpec(snr_db=-30.0, rng_seed=4),
            NO_NOISE,
            ChannelSpec(snr_db=-30.0, rng_seed=5),
            ChannelSpec(snr_db=-10.0, rng_seed=4),
            ChannelSpec(snr_db=-35.0, rng_seed=5),
        ]
        tones = [[2500.3, 9000.7]] * len(channels)
        bands = [(0.0, 5000.0), (5000.0, 12000.0)]
        mixed = receive_points(FM, channels, tones, bands, antennas=2).tolist()
        for seed in (4, 5, NO_NOISE.rng_seed):
            mine = [i for i, ch in enumerate(channels) if ch.rng_seed == seed]
            alone = receive_points(FM, [channels[i] for i in mine], tones[: len(mine)], bands, 2)
            assert [mixed[i] for i in mine] == alone.tolist()
        assert mixed[1] == [2500.0, 9001.0]
        # the two noisy seeds differ somewhere, so neither read the other's draw
        assert mixed[0] != mixed[2] or mixed[3] != mixed[4]


def count_draws(monkeypatch):
    """The list that records the seed of each unit noise draw from now on."""
    draws = []
    noise_rng = signal_chain._noise_rng
    monkeypatch.setattr(
        signal_chain, "_noise_rng", lambda seed, a: draws.append(seed) or noise_rng(seed, a)
    )
    return draws


class TestReceiveShapes:
    """receive_points takes one band list and a (points, tones) array and returns (points, bands)."""

    def test_no_point_gives_no_row_and_draws_no_noise(self, monkeypatch, no_capture):
        draws = count_draws(monkeypatch)
        got = receive_points(FM, [], np.empty((0, 2)), [FULL, (0.0, 5000.0)], antennas=2)
        assert got.shape == (0, 2)
        assert draws == []

    def test_no_band_gives_no_column_after_the_tones_are_checked(self, monkeypatch, no_capture):
        draws = count_draws(monkeypatch)
        channels = [ChannelSpec(snr_db=-20.0, rng_seed=3)] * 3
        got = receive_points(FM, channels, [[2500.0]] * 3, [])
        assert got.shape == (3, 0)
        assert draws == []
        with pytest.raises(ValueError, match=r"outside \[0, Nyquist\)"):
            receive_points(FM, channels, [[2500.0], [40000.0], [2500.0]], [])

    def test_tones_must_be_one_row_per_channel(self, no_capture):
        with pytest.raises(ValueError, match="a tone or more per point"):
            receive_points(FM, [NO_NOISE], [2500.0], [FULL])
        with pytest.raises(ValueError, match="a tone or more per point"):
            receive_points(FM, [NO_NOISE], [[[2500.0]]], [FULL])
        with pytest.raises(ValueError, match="2 channels for 1 points"):
            receive_points(FM, [NO_NOISE, NO_NOISE], [[2500.0]], [FULL])
        with pytest.raises(ValueError, match="1 channels for 2 points"):
            receive_points(FM, [NO_NOISE], [[2500.0], [2600.0]], [FULL])

    def test_bands_beyond_the_block_cap_are_split(self, monkeypatch):
        # with a cap of 4 rows, a point of 6 bands is proved in two blocks
        # of its bands, and the answer is what the uncapped call returns
        channels = [ChannelSpec(snr_db=snr_db, rng_seed=8) for snr_db in (math.inf, -20.0, -30.0)]
        tones = [[2500.3, 7000.0, 9000.6]] * 3
        bands = [(0.0, 3000.0), FULL, (6000.0, 8000.0), (8000.0, 10000.0), (2000.0, 2600.0), (0.0, 50.0)]
        uncapped = receive_points(FM, channels, tones, bands, antennas=2)
        sizes = []
        proved_bins = signal_chain._proved_bins

        def recorded(fm, tones, spans, sigmas, noise):
            sizes.append(len(tones) * len(spans))
            return proved_bins(fm, tones, spans, sigmas, noise)

        monkeypatch.setattr(signal_chain, "_proved_bins", recorded)
        monkeypatch.setattr(signal_chain, "BLOCK_ROWS", 4)
        capped = receive_points(FM, channels, tones, bands, antennas=2)
        assert max(sizes) <= 4
        assert sizes == [4, 2] * 3
        assert capped.tolist() == uncapped.tolist()


def explicit_combine(bins):
    """The antennas' noncoherent combine written out: sqrt(mean(|bins|^2)) over a stacked array."""
    return np.sqrt(np.mean(np.square(np.abs(np.array(bins))), axis=0))


def drawn_noise(monkeypatch, fm, seeds, antennas):
    """The unit noise that one receive_points call, one point per seed, hands each block.

    Each draw is copied while it is current, with the address of its first
    antenna's bins.
    """
    drawn = []
    proved_bins = signal_chain._proved_bins

    def recorded(fm, tones, spans, sigmas, noise):
        bins = tuple(b.copy() for b in noise.bins)
        address = noise.bins[0].__array_interface__["data"][0]
        drawn.append((signal_chain._Noise(bins, noise.magnitude.copy(), noise.peak), address))
        return proved_bins(fm, tones, spans, sigmas, noise)

    monkeypatch.setattr(signal_chain, "_proved_bins", recorded)
    channels = [ChannelSpec(snr_db=0.0, rng_seed=seed) for seed in seeds]
    tones = [[fm.sample_rate / 8]] * len(seeds)
    receive_points(fm, channels, tones, [(0.0, fm.sample_rate / 2)], antennas)
    return drawn


class TestUnitNoise:
    """The unit noise receive_points draws for each run of one seed, and the combine of its spectra."""

    def test_bins_are_the_rfft_of_unit_channel_noise(self, monkeypatch):
        ((noise, _),) = drawn_noise(monkeypatch, FM, [12], antennas=3)
        assert [b.shape for b in noise.bins] == [(FM.num_samples // 2 + 1,)] * 3
        for b, unit in zip(noise.bins, unit_noise(FM, 12, 3), strict=True):
            assert b.tobytes() == np.fft.rfft(unit).tobytes()
        rms = np.sqrt(np.mean(np.abs(noise.bins) ** 2, axis=0))
        assert np.allclose(noise.magnitude, rms, rtol=1e-14)
        assert noise.peak == np.max(noise.magnitude)

    def test_one_antenna_is_its_own_magnitude(self, monkeypatch):
        ((noise, _),) = drawn_noise(monkeypatch, FM, [12], antennas=1)
        assert [b.shape for b in noise.bins] == [(FM.num_samples // 2 + 1,)]
        assert np.array_equal(noise.magnitude, np.abs(noise.bins[0]))

    @pytest.mark.parametrize("antennas", [1, 2, 3])
    def test_buffered_draws_are_bit_exact(self, monkeypatch, antennas):
        # the seeds of one call drawn in turn into one set of buffers: each
        # spectrum, while it is current, is the rfft of its own unit channel
        # noise, with the explicit combine and its maximum, bit for bit
        fm = FmConfig(sample_rate=4096.0)
        seeds = [12, 3, 12, 40]
        drawn = drawn_noise(monkeypatch, fm, seeds, antennas)
        assert len(drawn) == len(seeds)
        assert len({address for _, address in drawn}) == 1
        for seed, (noise, _) in zip(seeds, drawn):
            unit = [np.fft.rfft(u) for u in unit_noise(fm, seed, antennas)]
            assert all(np.array_equal(b, u) for b, u in zip(noise.bins, unit, strict=True))
            assert explicit_combine(unit).tobytes() == noise.magnitude.tobytes()
            assert noise.peak == np.max(explicit_combine(unit))

    @pytest.mark.parametrize("antennas", [1, 2, 3])
    def test_combine_into_buffers_is_the_explicit_combine(self, antennas):
        # written to out and scratch, or to new arrays, over records and over
        # the proof's (rows, bins) blocks
        rng = np.random.default_rng(antennas)
        for shape in ((257,), (5, 33)):
            spectra = [
                10.0 ** rng.uniform(-3, 3, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
                for _ in range(antennas)
            ]
            out, scratch = np.empty(shape), np.empty(shape)
            assert signal_chain._combined(spectra, out, scratch) is out
            assert out.tobytes() == explicit_combine(spectra).tobytes()
            assert signal_chain._combined(spectra).tobytes() == out.tobytes()


class TestNoiselessFastPath:
    """A noiseless transmit_receive must equal the explicit chain bit for bit."""

    def assert_equal_chains(self, fm, freqs):
        for freq in freqs:
            vd = freq / fm.scale
            assert transmit_receive(fm, NO_NOISE, vd) == chain_voltage(fm, NO_NOISE, vd), freq

    def test_half_bin_tones(self):
        self.assert_equal_chains(FM, [c + 0.5 for c in range(0, 32768, 1111)])
        # the tone's image moves the exact tie off the half bin
        self.assert_equal_chains(FM, [tie_frequency(FM, c) for c in (3, 40, 2500, 20000)])

    def test_tones_near_dc_and_nyquist(self):
        edge = np.arange(0.0, PEAK_WINDOW + 1.0, 0.375)
        self.assert_equal_chains(FM, edge)
        self.assert_equal_chains(FM, FM.sample_rate / 2 - 0.125 - edge)

    def test_other_geometries(self):
        fm = FmConfig(sample_rate=48000.0, record_seconds=16384 / 48000)
        bin_width = fm.sample_rate / fm.num_samples
        rng = np.random.default_rng(4)
        self.assert_equal_chains(fm, rng.uniform(0.0, fm.sample_rate / 2, 40))
        self.assert_equal_chains(fm, [(c + 0.5) * bin_width for c in range(0, 8192, 800)])
        short = FmConfig(sample_rate=64.0)
        self.assert_equal_chains(short, np.arange(0.0, 32.0, 0.25))

    def test_proved_tone_skips_the_capture(self, no_capture):
        assert transmit_receive(FM, NO_NOISE, 2.5004) == 2.5
        with pytest.raises(AssertionError, match="capture called"):
            transmit_receive(FM, NO_NOISE, 32.76)

    def test_invalid_voltages_raise_the_capture_error(self):
        for vd in (-0.1, -1e-300, math.nan, 32.768, 40.0, math.inf):
            with pytest.raises(ValueError, match=r"is outside \[0, Nyquist\) for fs="):
                transmit_receive(FM, NO_NOISE, vd)


class TestChannel:
    def test_no_noise_unity_gain_is_identity(self):
        (wf,) = capture(FM, NO_NOISE, [2500.0])
        assert np.array_equal(wf, tone(2500.0))

    def test_snr_sets_noise_variance(self):
        assert noise_sigma(ChannelSpec(snr_db=-20.0)) == pytest.approx(10.0)

    def test_noise_variance_matches_convention(self):
        # 2% tolerance on the measured variance over 2^20 samples
        fm = FmConfig(record_seconds=16.0)
        ch = ChannelSpec(snr_db=-20.0, rng_seed=42)
        (clean,) = capture(fm, NO_NOISE, [2500.0])
        (wf,) = capture(fm, ch, [2500.0])
        assert np.var(wf - clean) == pytest.approx(100.0, rel=0.02)

    def test_deterministic_per_seed(self):
        ch = ChannelSpec(snr_db=-20.0, rng_seed=123)
        tones = [1700.0]
        (a,) = capture(FM, ch, tones)
        (b,) = capture(FM, ch, tones)
        assert np.array_equal(a, b)
        (c,) = capture(FM, dataclasses.replace(ch, rng_seed=124), tones)
        assert not np.array_equal(a, c)

    def test_bad_specs_rejected(self):
        # every field must lie in (0, inf): a NaN or an infinity would
        # otherwise fail later, in num_samples or deep in a sweep
        for name in ("scale", "sample_rate", "record_seconds"):
            for bad in (0.0, -1.0, math.nan, math.inf, 1e400):
                with pytest.raises(ValueError, match=name):
                    FmConfig(**{name: bad})
        # each field finite, their product not: round() would raise OverflowError
        with pytest.raises(ValueError, match="overflows"):
            FmConfig(sample_rate=1e200, record_seconds=1e200)
        with pytest.raises(ValueError):
            ChannelSpec(snr_db=math.nan)
        with pytest.raises(ValueError):
            ChannelSpec(snr_db=-math.inf)
        # numpy would reject a negative seed only when the noise is drawn,
        # with an error that names no field
        with pytest.raises(ValueError, match="rng_seed"):
            ChannelSpec(snr_db=0.0, rng_seed=-1)

    def test_snr_whose_noise_variance_overflows_rejected(self):
        # 10**(3083/10) overflows a float; noise_sigma would raise OverflowError
        with pytest.raises(ValueError, match="overflows"):
            ChannelSpec(snr_db=-3083.0)
        assert math.isfinite(noise_sigma(ChannelSpec(snr_db=-3082.0)))
        # far above, the variance underflows to 0: the channel is noiseless
        assert noise_sigma(ChannelSpec(snr_db=4000.0)) == 0.0


class TestPeakDetection:
    """receive_points: the strongest bin of each band of the combined capture spectrum."""

    def test_off_bin_tone_snaps_to_nearest_bin(self):
        assert full_band_peak(FM, NO_NOISE, 2500.4) == 2500.0

    def test_non_finite_samples_rejected(self):
        # the noise samples stay finite down to ChannelSpec's limit, but
        # their squared magnitudes (~M * sigma^2) overflow the two-antenna
        # combine below about -3034 dB; one antenna needs no square
        ch = ChannelSpec(snr_db=-3050.0, rng_seed=1)
        bands = [(0.0, FM.sample_rate / 2)]
        assert math.isfinite(receive_points(FM, [ch], [[2500.0]], bands)[0, 0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            receive_points(FM, [ch], [[2500.0]], bands, antennas=2)

    def test_band_restriction(self):
        # an on-bin tone at 30 Hz outshines an off-bin one at 70.3 Hz
        fm = FmConfig(sample_rate=256.0)
        freqs = [30.0, 70.3]
        got = receive_points(fm, [NO_NOISE], [freqs], [(0.0, 128.0), (50.0, 100.0)])
        assert got.tolist() == [[30.0, 70.0]]
        # a band edge within 1e-9 bins past a bin still includes that bin
        edges = [(71.0 + 1e-12, 90.0), (0.0, 29.0 - 1e-12)]
        assert receive_points(fm, [NO_NOISE], [freqs], edges).tolist() == [[71.0, 29.0]]
        assert receive_points(fm, [NO_NOISE], [freqs], [(71.0 + 1e-6, 90.0)]).tolist() == [[72.0]]

    def test_all_zero_band_rejected(self):
        # a noiseless DC tone leaves every other bin exactly zero
        with pytest.raises(ValueError, match="degenerate"):
            receive_points(FM, [NO_NOISE], [[0.0]], [(1000.0, 2000.0)])
        assert receive_points(FM, [NO_NOISE], [[0.0]], [(0.0, 2000.0)]).tolist() == [[0.0]]

    def test_empty_band_rejected(self):
        # a band narrower than a bin can hold none; the cluster CLI reaches
        # it with --dmax 0.0004
        with pytest.raises(ValueError, match="contains no FFT bins"):
            receive_points(FM, [NO_NOISE], [[2000.5]], [(2000.4, 2000.8)])
        with pytest.raises(ValueError, match="contains no FFT bins"):
            receive_points(FM, [NO_NOISE], [[2000.5]], [(60.0, 50.0)])
        # bins exist only from DC to Nyquist
        for band in ((-20.0, -10.0), (40000.0, 50000.0)):
            with pytest.raises(ValueError, match="contains no FFT bins"):
                receive_points(FM, [NO_NOISE], [[2000.5]], [band])
        assert receive_points(FM, [NO_NOISE], [[2000.0]], [(-10.0, 1e6)]).tolist() == [[2000.0]]

    def test_tone_peak_dominates_every_other_bin(self):
        for freq, peak in ((2345.6, 2346.0), (2345.4, 2345.0), (17.25, 17.0)):
            assert full_band_peak(FM, NO_NOISE, freq) == peak

    @given(
        sample_rate=st.floats(8.0, 200_000.0),
        record_exp=st.integers(1, 16),
        freq_fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
        antennas=st.integers(1, 3),
        snr_db=st.sampled_from([math.inf, 0.0, -20.0, -35.0]),
        rng_seed=st.integers(0, 2**62),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_explicit_chain(
        self, sample_rate, record_exp, freq_fracs, antennas, snr_db, rng_seed
    ):
        # any geometry, one to four tones; bands split the spectrum in two
        m = 2**record_exp
        fm = FmConfig(sample_rate=sample_rate, record_seconds=m / sample_rate)
        freqs = [f * sample_rate / 2 for f in freq_fracs]
        bands = [(0.0, sample_rate / 4), (sample_rate / 4, sample_rate / 2)]
        ch = ChannelSpec(snr_db=snr_db, rng_seed=rng_seed)
        expected = band_peaks(fm, ch, freqs, bands, antennas)
        if None in expected:  # noiseless DC tones leave the upper band all zero
            with pytest.raises(ValueError, match="degenerate"):
                receive_points(fm, [ch], [freqs], bands, antennas)
        else:
            assert receive_points(fm, [ch], [freqs], bands, antennas).tolist() == [expected]


class TestEndToEnd:
    def test_voltage_map_inverse(self):
        # on-bin voltages come back exactly: peak frequency over the scale
        for vd in (2.5, 0.0, 5.0):
            assert transmit_receive(FM, NO_NOISE, vd) == vd

    def test_noiseless_half_bin_error_bound(self):
        rng = np.random.default_rng(21)
        for vd in rng.uniform(0.0, 5.0, 60):
            got = transmit_receive(FM, NO_NOISE, float(vd))
            assert abs(got - vd) <= 0.5 / FM.scale + 1e-9

    @given(
        sample_rate=st.floats(8.0, 200_000.0),
        record_exp=st.integers(1, 13),
        scale=st.floats(0.1, 10_000.0),
        freq_frac=st.floats(0.0, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_noiseless_one_bin_bound_over_geometries(
        self, sample_rate, record_exp, scale, freq_frac
    ):
        # the bound _check_chain_roundtrip states: one bin over the scale
        fm = FmConfig(
            scale=scale, sample_rate=sample_rate, record_seconds=2**record_exp / sample_rate
        )
        vd = freq_frac * fm.sample_rate / 2 / scale
        got = transmit_receive(fm, NO_NOISE, vd)
        assert abs(got - vd) <= fm.sample_rate / fm.num_samples / scale + 1e-9

    def test_zero_voltage_roundtrip(self):
        assert transmit_receive(FM, NO_NOISE, 0.0) == 0.0

    def test_chain_noise_is_default_rng_stream_of_rng_seed(self):
        # the one-tone capture draws the noise default_rng(rng_seed) gives;
        # at -35 dB the peak often lands off the tone, so equal outputs pin
        # the exact noise stream, not just the tone
        sigma = noise_sigma(ChannelSpec(snr_db=-35.0))
        for seed in range(5):
            noise = np.random.default_rng(seed).normal(0.0, sigma, FM.num_samples)
            expected = int(np.argmax(np.abs(np.fft.rfft(tone(3210.0) + noise)))) / FM.scale
            got = transmit_receive(FM, ChannelSpec(snr_db=-35.0, rng_seed=seed), 3.21)
            assert got == expected

    def test_full_chain_deterministic(self):
        ch = ChannelSpec(snr_db=-20.0, rng_seed=77)
        a = transmit_receive(FM, ch, 3.21)
        b = transmit_receive(FM, ch, 3.21)
        assert a == b

    def test_peak_error_rate_at_minus_20_db(self):
        # the tone bin sits ~22 dB above the per-bin noise at this SNR, so
        # seeded trials never leave the two bins straddling the true frequency
        vd = 3.21
        misses = 0
        for seed in range(300):
            got = transmit_receive(FM, ChannelSpec(snr_db=-20.0, rng_seed=seed), vd)
            if abs(got - vd) > 1.0 / FM.scale:
                misses += 1
        assert misses == 0


class TestBoundedMemory:
    """A receive_points call proves its rows in blocks of at most BLOCK_ROWS rows.

    So the proof's temporaries do not grow with the number of points: the
    traced peak of an array transmit_receive is the points' own lists and
    one block's arrays (and, when noisy, one noise draw).
    """

    @pytest.mark.parametrize("size, snr_db, bound_mib", [(10_000, math.inf, 16), (2000, -20.0, 8)])
    def test_traced_peak(self, size, snr_db, bound_mib):
        vd = np.random.default_rng(5).uniform(0.0, 30.0, size)
        ch = ChannelSpec(snr_db=snr_db, rng_seed=5)
        tracemalloc.start()
        try:
            transmit_receive(FM, ch, vd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20


class TestArrayVoltages:
    """transmit_receive of an array: one receive_points call, each element the explicit chain."""

    # on-bin edges, half bins and off-bin values, and a tone within a
    # window of Nyquist that the proof leaves to the capture
    VOLTAGES = np.array([[0.0, 5.0, 2.5004, 0.0625], [3.21, 1.7, 0.3337, 32.76]])

    @pytest.mark.parametrize("ch", [NO_NOISE, ChannelSpec(snr_db=-35.0, rng_seed=6)])
    def test_equals_the_explicit_chain_elementwise(self, ch):
        got = transmit_receive(FM, ch, self.VOLTAGES)
        assert got.shape == self.VOLTAGES.shape
        want = [[chain_voltage(FM, ch, vd) for vd in row] for row in self.VOLTAGES.tolist()]
        assert got.tolist() == want

    def test_empty_input_gives_an_empty_array_of_its_shape(self, monkeypatch, no_capture):
        draws = count_draws(monkeypatch)
        for shape in ((0,), (2, 0), (0, 3)):
            got = transmit_receive(FM, ChannelSpec(snr_db=-20.0, rng_seed=2), np.empty(shape))
            assert got.shape == shape and got.dtype == np.float64
        assert draws == []

    def test_zero_dimensional_input_gives_a_float(self):
        for vd in (2.5, np.float64(2.5), np.array(2.5)):
            got = transmit_receive(FM, NO_NOISE, vd)
            assert type(got) is float and got == 2.5

    def test_one_bad_voltage_raises_before_any_capture(self, no_capture):
        # 32.76 V needs a capture; the bad voltage after it must be found first
        with pytest.raises(ValueError, match=r"is outside \[0, Nyquist\) for fs="):
            transmit_receive(FM, NO_NOISE, np.array([[32.76, 1.0], [40.0, 2.0]]))
