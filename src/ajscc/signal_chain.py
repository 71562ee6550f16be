"""Baseband transmission chain: FM tone, static AWGN channel, FFT peak receiver.

The encoded voltage maps linearly to a tone frequency (default 1000 Hz per
volt), the channel adds white Gaussian noise at a configured SNR, and the
receiver locates the strongest FFT bin and maps it back to a voltage.  The
receiver reads only a magnitude spectrum, so a tone is its frequency: the
carrier phase is a nuisance it discards, and every tone is a unit cosine
synthesized at zero phase.  The FFT spans the whole record, whose length
``FmConfig`` holds to a power of two, so the bin width is
fm.sample_rate / fm.num_samples.  With the default 65536 Hz sampling over
one second that is exactly 1 Hz, so the noiseless end-to-end voltage error
is half a bin over the scale factor (5e-4 V) away from DC and Nyquist;
within a bin or two of either edge the tone's image leaks into the peak and
the error reaches ~0.6 bins, under the one-bin bound.

``capture`` is the one received-signal model: a sum of tones at the given
frequencies plus noise per antenna, returned as one float array per antenna.
The noise has one convention: antenna a of a channel ch adds
noise_sigma(ch) times its unit draw, the standard normal record of
default_rng(SeedSequence([ch.rng_seed, a])) (for antenna 0, the
default_rng(ch.rng_seed) stream).  ``capture`` adds it to the samples, and
the proof adds sigma times the rfft of the same draw (``_unit_noise``) to
the tones' closed-form bins, so one draw per (seed, antenna) is the noise
of every SNR of a seed (common random numbers).
``receive_points`` is the one receiver: at each point of a sweep, the
strongest bin of each band of the antennas' noncoherently combined rfft
spectra of a capture.  A single sensor is a one-tone capture searched over
the whole spectrum (``transmit_receive``; an array of voltages is one
``receive_points`` call with one point per voltage, all on one channel);
the FDMA cluster (``multisensor.receive_clusters``) passes one frequency
and one band per sensor.
``tone_bins`` is the closed-form FFT of a sum of capture tones, so a
spectrum can be formed as tone bins plus the FFT of the noise.  Its
Dirichlet kernel takes the ratio sin(pi*d)/sin(pi*d/M) from each offset d
itself, with the on-bin limit M at d = 0 and the alias limit -M at d = +-M,
and factors the phase into one complex exponential per tone half and one
per bin instead of one per (half, bin) pair.

``receive_points`` alone chooses between the proof and the capture.  It
checks each point's tones as a capture checks them (``_check_tones``) and
each band's bins before anything is proved, and turns every (point, band)
into one row that carries its point's seed.  It proves the rows of each run
of one seed and one tone count from the run's one noise draw
(``_unit_noise``), in blocks of at most BLOCK_ROWS rows (``_proved_bins``,
whose docstring holds the proof), and synthesizes, transforms and searches
a point's capture only when some band of it is left open.  The block's
first stage is array operations over all its rows: the tones' nearest
bins, windows clear of Nyquist and evaluated ranges, the closed-form tone
bins, the scaled noise gathered by index, the antenna combine and a
row-wise argmax, runner-up and margin test, with rows of narrower ranges
padded by masked bins.  Rows of the same tones and band, such as one
point's bands at each SNR of a seed, share one evaluation of the tone bins
and differ only in the sigma that scales their noise.  Only the rows the
block leaves open take the exact candidate stage, one by one.  A call may
hold the points of several seeds: it draws each run's noise once, into one
set of buffers that it reuses for every run and frees on return, so a seed
whose points are not consecutive has its noise drawn once per run.  The
block cap bounds the proof's temporaries, whatever the number of points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from typing import NamedTuple

import numpy as np

__all__ = [
    "FmConfig",
    "ChannelSpec",
    "capture",
    "tone_bins",
    "noise_sigma",
    "receive_points",
    "transmit_receive",
]


@dataclass(frozen=True)
class FmConfig:
    """Voltage-to-frequency modulator parameters and record geometry.

    The record is also the receiver's FFT, so it must hold a power-of-two
    number of samples, at least 2.
    """

    scale: float = 1000.0  # Hz per volt
    sample_rate: float = 65536.0
    record_seconds: float = 1.0

    def __post_init__(self) -> None:
        for name in ("scale", "sample_rate", "record_seconds"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        n = self.record_seconds * self.sample_rate
        if not math.isfinite(n):
            raise ValueError(f"record of {n} samples overflows")
        m = round(n)
        if abs(n - m) > 1e-6 or m < 2 or m & (m - 1):
            raise ValueError(f"record must hold a power-of-two number (>= 2) of samples, got {n}")

    @cached_property
    def num_samples(self) -> int:
        # not a field: every FmConfig field is an fm_* config key
        return round(self.record_seconds * self.sample_rate)


@dataclass(frozen=True)
class ChannelSpec:
    """Static AWGN channel set by SNR, seeded by a non-negative rng_seed.

    snr_db = math.inf disables noise.  Transmitted power is taken as 1
    regardless of the waveform, so a -20 dB channel has noise variance 100
    and a unit tone is received as sent.  An snr_db whose noise variance
    overflows a float (below about -3082.5 dB) is rejected.
    """

    snr_db: float = math.inf
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must not be NaN or -inf, got {self.snr_db}")
        try:
            noise_sigma(self)
        except OverflowError:
            raise ValueError(f"snr_db {self.snr_db} dB gives a noise variance that overflows") from None
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


def noise_sigma(ch: ChannelSpec) -> float:
    """AWGN standard deviation for unit transmitted power; 0 when noiseless."""
    if math.isinf(ch.snr_db):
        return 0.0
    return math.sqrt(1.0 * 10.0 ** (-ch.snr_db / 10.0))


def _noise_rng(rng_seed: int, antenna: int) -> np.random.Generator:
    """The stream of one antenna's unit draw on a channel seeded by rng_seed."""
    return np.random.default_rng(np.random.SeedSequence([rng_seed, antenna]))


def _check_tones(fm: FmConfig, freqs: list[float], antennas: int) -> None:
    """Reject what no capture can hold: no antenna, no tone, a tone outside [0, Nyquist)."""
    if antennas < 1:
        raise ValueError("antennas must be >= 1")
    if not freqs:
        raise ValueError("capture needs at least one tone")
    for freq in freqs:
        if not 0.0 <= freq < fm.sample_rate / 2:
            raise ValueError(
                f"tone at {freq} Hz is outside [0, Nyquist) for fs={fm.sample_rate} Hz"
            )


def capture(
    fm: FmConfig, ch: ChannelSpec, freqs: list[float], antennas: int = 1
) -> tuple[np.ndarray, ...]:
    """Received samples per antenna: a sum of tones plus independent AWGN.

    Each frequency f (Hz) is synthesized as cos(2*pi*f/fs*n), and the tones
    are summed in the given order.  Antenna a adds noise_sigma(ch) times
    its unit draw.
    """
    _check_tones(fm, freqs, antennas)
    n = np.arange(fm.num_samples)
    mix = None
    for freq in freqs:
        # cos(w*n), built in one buffer to spare record-sized temporaries
        tone = 2.0 * np.pi * freq / fm.sample_rate * n
        np.cos(tone, out=tone)
        if mix is None:
            mix = tone
        else:
            mix += tone
    sigma = noise_sigma(ch)
    if sigma == 0.0:
        return tuple(mix if a == 0 else mix.copy() for a in range(antennas))
    return tuple(
        mix + sigma * _noise_rng(ch.rng_seed, a).standard_normal(fm.num_samples)
        for a in range(antennas)
    )


def _tone_sum(m: int, offsets: np.ndarray, first: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Per row r, the closed-form rfft at bins first[r] + columns of the tone halves at offsets.

    offsets (rows, halves) are in bins, +freq * M / fs for a tone's exp(+iwn)
    half and -freq * M / fs for its exp(-iwn) half, each half of amplitude
    1/2, and first is (rows, 1); every row holds the same number of halves.
    The bins are the returned sums times ``_bin_phase`` of their bins, one
    unit factor per column, so |sums| are the bins' magnitudes.  See
    ``tone_bins`` for the kernel.
    """
    # the phase is taken relative to first, not to bin 0, so that the proof's
    # first stage rotates its noise by one phase vector over the columns,
    # shared by every row, instead of a phase per (row, bin).  Running both
    # proof stages through the absolute phase of ``tone_bins`` made the
    # level-sweep benchmark ~12.5 % slower and selftest ~7.4 % (in-process
    # serial medians, 2-vCPU host)
    rel = offsets - first
    d = rel[:, :, np.newaxis] - columns  # (rows, halves, columns)
    ratio = np.sin(np.pi * d)
    sine = np.sin((np.pi / m) * d)
    limit = np.abs(sine) < math.pi * 1e-9 / m  # d within ~1e-9 bins of 0 or of +-M
    if limit.any():
        sine[limit] = 1.0
        ratio[limit] = np.where(np.abs(d[limit]) < m / 2, m, -m)
    ratio /= sine
    half = np.exp((1j * np.pi * (m - 1) / m) * rel)
    half *= 0.5
    return (ratio * half[:, :, np.newaxis]).sum(axis=1)


def _bin_phase(m: int, bins: np.ndarray) -> np.ndarray:
    """The unit phase exp(-i*pi*(M-1)/M * k) of each bin k of ``_tone_sum``'s sums."""
    return np.exp((-1j * np.pi * (m - 1) / m) * bins)


def tone_bins(fm: FmConfig, freqs: list[float], bins: np.ndarray) -> np.ndarray:
    """rfft of the sum of the capture tones at freqs over the whole record, in closed form.

    The tone at freq Hz is cos(w*n) as ``capture`` synthesizes it,
    w = 2*pi*freq/fs.  Each of its two complex exponentials sums over
    n < M = fm.num_samples to a Dirichlet kernel: at offset d = o - k bins
    from bin k, o = +-freq*M/fs, sin(pi*d)/sin(pi*d/M) * exp(i*pi*(M-1)/M * d).
    The ratio of sines is evaluated from d itself, except within ~1e-9 bins
    of d = 0 (mod M), where the rounded sines are 0/0 or a quotient of
    rounding residues and the ratio is taken as its limit, which it equals
    to double precision there: M at d = 0 (on bin), -M at d = +-M (the
    image of a tone next to Nyquist on bin M/2).  The phase factors into
    exp(i*pi*(M-1)/M * o), one per exponential, times exp(-i*pi*(M-1)/M * k),
    one per bin.  The kernels of all the tones are evaluated in one pass and
    summed.  For 0 <= freq < fs/2 and bins in [0, M/2] the result equals
    np.fft.rfft of the synthesized samples up to rounding.
    """
    m = fm.num_samples
    halves = np.array([[*freqs, *(-freq for freq in freqs)]]) * m / fm.sample_rate
    bins = np.asarray(bins)
    return _tone_sum(m, halves, np.zeros((1, 1)), bins)[0] * _bin_phase(m, bins)


# half-width in bins of the window around a tone that the proof evaluates
# in closed form, and the relative margin by which its peak must beat the
# runner-up and the bound on every other bin.  The closed-form tone plus the
# noise's rfft and np.fft.rfft of the synthesized record agree to ~1e-11 of
# the peak, so rounding cannot change a decision accepted with this margin
PEAK_WINDOW = 32
PEAK_MARGIN = 1e-7
# the most (point, band) rows that one block of the proof holds, which
# bounds its (rows, tone halves, bins) temporaries whatever the call's size
BLOCK_ROWS = 256


class _Noise(NamedTuple):
    """rfft bins of unit-variance noise, one array per antenna, their combine and its peak.

    The proof scales each antenna's bins by a row's noise sigma, adds the
    tones' closed-form bins and combines the antennas as ``receive_points``
    combines a capture's per-antenna spectra.  magnitude is the
    root-mean-square of |bins| over the antennas (|bins| for one antenna)
    and peak its maximum; they bound the bins the proof does not evaluate.
    """

    bins: tuple[np.ndarray, ...]
    magnitude: np.ndarray
    peak: float


def _noise(bins, out=None, scratch=None) -> _Noise:
    """The ``_Noise`` of equal-length 1-D arrays of bins, one per antenna.

    out and scratch, when given, are float arrays of the bins' length that
    the combine is written to and works in (``_combined``), so a buffered
    draw keeps its magnitude in its own buffer.
    """
    magnitude = _combined(bins, out, scratch)
    return _Noise(tuple(bins), magnitude, float(np.max(magnitude)))


def _unit_noise(fm: FmConfig, seeds: list[int], antennas: int):
    """Each seed's unit-variance ``_Noise`` in turn, all drawn into one set of buffers.

    Antenna a's bins are the rfft of the seed's unit draw on antenna a.  The
    buffers are one noise record, one rfft per antenna and one combined
    magnitude, allocated when the first spectrum is drawn: the record takes
    each antenna's unit draw and then serves as the combine's scratch.
    Drawing the next seed overwrites the previous spectrum, so each must be
    used up before the generator resumes; a seed that comes again is drawn
    again.
    """
    m = fm.num_samples
    n = m // 2 + 1
    # one allocation for all of them.  Once a block this large (1.3 MB and up
    # at 2^16 samples) has been freed, glibc serves and keeps allocations up
    # to its size on the heap, so each rfft reuses its ~0.9 MB of work
    # arrays; four smaller buffers left every rfft faulting them in afresh
    # (~220 minor faults per rfft)
    block = np.empty(m + n + 2 * n * antennas)
    record, magnitude = block[:m], block[m : m + n]
    bins = tuple(block[m + n :].reshape(antennas, 2 * n).view(complex))
    for seed in seeds:
        for a, spectrum in enumerate(bins):
            _noise_rng(seed, a).standard_normal(out=record)
            np.fft.rfft(record, out=spectrum)
        yield _noise(bins, magnitude, record[:n])


def _band_bins(fm: FmConfig, band: tuple[float, float]) -> tuple[int, int]:
    """First and last rfft bin k with lo_hz <= k * fs / M <= hi_hz, to 1e-9 bins.

    The range is clipped to bins 0..M/2; lo > hi when the band holds no bin.
    """
    bin_width = fm.sample_rate / fm.num_samples
    lo = max(0, math.ceil(band[0] / bin_width - 1e-9))
    hi = min(fm.num_samples // 2, math.floor(band[1] / bin_width + 1e-9))
    return lo, hi


def _combined(spectra, out=None, scratch=None) -> np.ndarray:
    """The noncoherent combine of per-antenna spectra: the root mean square of their magnitudes.

    One antenna's combine is its magnitude.  Otherwise it is
    sqrt((|s0|^2 + |s1|^2 + ...) / antennas), summed in antenna order,
    which is np.sqrt(np.mean(np.square(magnitudes), axis=0)) bit for bit.
    The result is written to out when given, and scratch, when given, holds
    each further antenna's squared magnitude in turn.
    """
    out = np.abs(spectra[0], out=out)
    if len(spectra) == 1:
        return out
    np.square(out, out=out)
    for spectrum in spectra[1:]:
        square = np.abs(spectrum, out=scratch)
        out += np.square(square, out=square)
    out /= len(spectra)
    return np.sqrt(out, out=out)


def _best_two(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of mags: the argmax column, the maximum, and the runner-up (-inf for one column)."""
    top = np.sort(mags, axis=1)
    runner_up = top[:, -2] if mags.shape[1] > 1 else np.full(len(mags), -math.inf)
    return mags.argmax(axis=1), top[:, -1], runner_up


def _wins(best, runner_up, outside):
    """Whether a finite best bin beats the runner-up and the bound ``outside`` by PEAK_MARGIN.

    Elementwise over arrays; a best bin that only equals the margin's bound
    does not win.
    """
    return np.isfinite(best) & (best > (1.0 + PEAK_MARGIN) * np.maximum(outside, runner_up))


def _candidate_stage(fm, freqs, lo, hi, window, mags, noise, sigma, leak, best) -> int | None:
    """The exact second stage of ``_proved_bins`` for a row the first stage left open.

    window holds the evaluated bins, first to last, mags their combined
    magnitudes and best the largest of those.
    """
    magnitude = noise.magnitude[lo : hi + 1]
    rival = magnitude >= (best / (1.0 + PEAK_MARGIN) - leak) / sigma
    rest = float(np.max(magnitude, where=~rival, initial=0.0))
    rival[window[0] - lo : window[-1] - lo + 1] = False
    candidates = lo + np.flatnonzero(rival)
    cand_tones = tone_bins(fm, freqs, candidates)
    cand_mags = _combined([cand_tones + sigma * b[candidates] for b in noise.bins])
    ((j,), (best,), (runner_up,)) = _best_two(np.concatenate([mags, cand_mags])[np.newaxis])
    if _wins(best, runner_up, leak + sigma * rest):
        return int(np.concatenate([window, candidates])[j])
    return None


def _proved_bins(
    fm: FmConfig, rows: list[tuple[list[float], int, int, float]], noise: _Noise | None
) -> list[int | None]:
    """The rfft argmax bin of each (freqs, lo, hi, sigma) row's band, or None when unproved.

    A row's capture is the sum of the tones at freqs (Hz) plus sigma times
    the noise's bins on each antenna (noiseless when noise is None or sigma
    is 0), combined over the antennas as ``receive_points`` combines them;
    its band is the bins lo..hi.  Every row holds the same number of tones,
    each one ``_check_tones`` accepts: at least one, each in [0, Nyquist).

    With M = fm.num_samples, a tone's window is the bins within PEAK_WINDOW
    of its nearest bin c0; the band bins from the lowest to the highest
    window that meets the band are evaluated in closed form (``tone_bins``)
    and added to the scaled noise bins.  Each Dirichlet kernel of a tone is
    at least PEAK_WINDOW + 1/2 bins (mod M) from every rfft bin outside its
    window as long as the window stays clear of Nyquist, so no tone bin
    there exceeds the leak bound 1 / sin(pi*(PEAK_WINDOW + 1/2)/M), and the
    tones together at most len(freqs) times it; by Minkowski's inequality a
    bin's combined magnitude is at most that plus sigma times the noise
    magnitude.  Two stages prove the peak:

    - every band bin outside the evaluated range is bounded by the tones'
      leak plus sigma times the noise's peak;
    - when that fails, the band bins whose bound reaches the range's best
      over (1 + PEAK_MARGIN) are evaluated in closed form, and every other
      bin is bounded by the leak plus sigma times the largest noise
      magnitude among them (``_candidate_stage``).

    The best evaluated bin is returned when it is finite and beats the
    runner-up and the bound by PEAK_MARGIN.  A window that reaches Nyquist,
    a band that meets no window or a non-finite quantity gives None, so
    ``receive_points``' capture decides, with its errors.

    The first stage runs on every row in one array block.  Rows of the same
    tones and band (a key) share one evaluation of their tone bins and
    differ only in the sigma that scales their noise.  Each row's bins past
    its evaluated range are masked to -inf, so each row's tones, noise and
    decision are its own; a row with no evaluated range has every bin
    masked and is left open.  A row the block leaves open, with a finite
    best bin and noise in its bound, goes on to the exact candidate stage
    alone.
    """
    m = fm.num_samples
    keys: dict[tuple, int] = {}  # each distinct (tones, lo, hi), in order of first appearance
    u = [keys.setdefault((tuple(freqs), lo, hi), len(keys)) for freqs, lo, hi, _ in rows]
    tone_sets, lo, hi = zip(*keys)
    freqs = np.array(tone_sets, dtype=float)
    lo, hi = np.array([lo, hi], dtype=float)[:, :, np.newaxis]
    offsets = freqs * m / fm.sample_rate  # in bins
    nearest = np.rint(offsets)
    # the evaluated range: the band bins from the lowest to the highest
    # window (the bins within PEAK_WINDOW of a tone's nearest bin) that
    # meets the band.  A window that reaches Nyquist voids its key's leak
    # bound, and the range ends at NaN; a key whose windows all miss the
    # band ends at -inf
    start = np.maximum(nearest - PEAK_WINDOW, lo)
    top = nearest + PEAK_WINDOW
    stop = np.minimum(top, hi)
    meets = start <= stop
    first = np.minimum.reduce(np.where(meets, start, hi), axis=1)
    stop = np.where(top < m // 2, np.where(meets, stop, -math.inf), math.nan)
    last = np.maximum.reduce(stop, axis=1)
    span = last - first  # the range's width less one
    width = np.fmax.reduce(span)
    if not width >= 0.0:
        return [None] * len(rows)
    columns = np.arange(int(width) + 1)
    halves = np.concatenate([offsets, -offsets], axis=1)  # every exp(+iwn), then every exp(-iwn)
    tones = _tone_sum(m, halves, first[:, np.newaxis], columns)
    u = np.array(u)  # each row's key
    tones, first, span = tones[u], first[u].astype(int), span[u]
    leak = freqs.shape[1] / math.sin(math.pi * (PEAK_WINDOW + 0.5) / m)
    if noise is None:
        mags = np.abs(tones)
        outside = leak
    else:
        sigma = np.array([row[3] for row in rows])
        # |tones * phase + noise| = |tones + noise / phase|; a masked bin
        # past M/2 reads bin M/2
        at = first[:, np.newaxis] + columns
        scale = sigma[:, np.newaxis] * _bin_phase(m, columns).conj()
        mags = _combined([tones + scale * b.take(at, mode="clip") for b in noise.bins])
        outside = leak + sigma * noise.peak
    mags = np.where(columns <= span[:, np.newaxis], mags, -math.inf)
    j, best, runner_up = _best_two(mags)
    won = _wins(best, runner_up, outside)
    found = [k if w else None for k, w in zip((first + j).tolist(), won.tolist())]
    if noise is not None:
        for r in (~won & (sigma != 0.0) & np.isfinite(best)).nonzero()[0]:
            freqs, lo, hi, _ = rows[r]
            window = slice(0, int(span[r]) + 1)
            found[r] = _candidate_stage(
                fm, freqs, lo, hi, at[r, window], mags[r, window], noise, sigma[r], leak, best[r]
            )
    return found


# an overflowing mean square is reported by the capture's finiteness check,
# not by numpy's warnings
@np.errstate(over="ignore")
def receive_points(
    fm: FmConfig,
    points: list[tuple[ChannelSpec, list[float], list[tuple[float, float]]]],
    antennas: int = 1,
) -> list[list[float]]:
    """The receiver at each (ch, freqs, bands) point: per point, each band's strongest bin in Hz.

    Each antenna's record from ``capture`` is transformed by one rfft; with
    several antennas the magnitudes are combined noncoherently, as the root
    of their mean square per bin.  For each band (lo_hz, hi_hz) the result
    is k * fs / M for the strongest bin k in 0..M/2 with
    lo_hz <= k * fs / M <= hi_hz (to 1e-9 bins); of equal bins the lowest
    wins.  Points may come from channels of several seeds; the points of
    one rng_seed re-observe one noise realization at their own SNRs (common
    random numbers).  Every point is validated, in order, before anything
    is drawn, proved or captured: no antenna, no tone, a tone outside
    [0, Nyquist), and a band that holds no bin are rejected whatever the
    proof would find.  Each (point, band) becomes one row of the proof
    that carries its point's seed.  The rows are then proved run by run, a
    run being consecutive points of one rng_seed and one number of tones: a
    run with a noisy point has its unit-variance noise drawn once, into
    buffers that every run of the call reuses and that are freed on return,
    and its rows are proved in blocks of at most BLOCK_ROWS rows each
    (``_proved_bins``).  A caller that sends each seed's points together,
    with one number of tones, draws each seed's noise once.  Last, point by
    point in order, a point with a band left open has its capture
    synthesized, transformed and searched.  The capture rejects a band
    whose bins are all zero (a noiseless DC tone leaves every other bin
    exactly 0) or whose peak is not finite (the mean square overflows when
    the noise is within ~10*log10(M) dB of ChannelSpec's variance limit).
    The proof accepts neither: its peak must beat a positive leak bound,
    and a bin whose mean square overflows outranks every finite evaluated
    bin, so the proof either evaluates it, and finds it not finite, or
    cannot bound it.
    """
    rows = []  # per (point, band): the point's seed, then the proof's (freqs, lo, hi, sigma)
    for ch, freqs, bands in points:  # the first point rejected raises its error
        _check_tones(fm, freqs, antennas)
        sigma = noise_sigma(ch)
        for band in bands:
            lo, hi = _band_bins(fm, band)
            if lo > hi:
                raise ValueError(f"band {band} contains no FFT bins")
            rows.append((ch.rng_seed, (freqs, lo, hi, sigma)))
    # each run of consecutive rows of one seed and one tone count: its noise
    # is drawn once, and its rows are proved in blocks of at most BLOCK_ROWS
    runs = [
        (seed, [row for _, row in run])
        for (seed, _), run in groupby(rows, key=lambda row: (row[0], len(row[1][0])))
    ]
    noisy = [any(row[3] != 0.0 for row in run) for _, run in runs]
    spectra = _unit_noise(fm, [seed for (seed, _), drawn in zip(runs, noisy) if drawn], antennas)
    peaks: list[int | None] = []
    for (_, run), drawn in zip(runs, noisy):
        noise = next(spectra) if drawn else None
        for start in range(0, len(run), BLOCK_ROWS):
            peaks += _proved_bins(fm, run[start : start + BLOCK_ROWS], noise)
    if None in peaks:
        # in order, each point with a band left open: its capture decides all its bands
        start = 0
        for ch, freqs, bands in points:
            end = start + len(bands)
            if None in peaks[start:end]:
                combined = _combined([np.fft.rfft(y) for y in capture(fm, ch, freqs, antennas)])
                for i, band in enumerate(bands, start):
                    _, lo, hi, _ = rows[i][1]
                    peaks[i] = k = lo + int(np.argmax(combined[lo : hi + 1]))
                    if not math.isfinite(combined[k]):
                        raise ValueError("the combined spectrum overflows: the noise power is too large")
                    if not combined[k] > 0:
                        raise ValueError(f"degenerate all-zero band {band}: no signal to detect")
            start = end
    bin_width = fm.sample_rate / fm.num_samples
    values = iter([k * bin_width for k in peaks])
    return [list(islice(values, len(bands))) for _, _, bands in points]


def transmit_receive(fm: FmConfig, ch: ChannelSpec, vd):
    """Full chain: one tone at fm.scale * vd Hz, received over the whole spectrum, back to volts.

    vd may be an array: each element is one point of a single
    ``receive_points`` call on ch, so every voltage re-observes the channel's
    one noise draw.  A scalar gives a float, an array an array of its shape.
    """
    vd = np.asarray(vd, dtype=float)
    band = (0.0, fm.sample_rate / 2)
    points = [(ch, [freq], [band]) for freq in (fm.scale * vd).ravel().tolist()]
    peaks = np.array([peak for (peak,) in receive_points(fm, points)]) / fm.scale
    return float(peaks[0]) if vd.ndim == 0 else peaks.reshape(vd.shape)
