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
the proof adds sigma times the rfft of the same draw to the tones'
closed-form bins, so one draw per (seed, antenna) is the noise of every SNR
of a seed (common random numbers).
``receive_points`` is the one receiver: at each point of a sweep, the
strongest bin of each band of the antennas' noncoherently combined rfft
spectra of a capture.  A call takes one channel per point, a
(points, tones) array of tone frequencies and one band list for every
point, and returns a (points, bands) array.  A single sensor is a one-tone
capture searched over the whole spectrum (``transmit_receive``; an array
of voltages is one call with one point per voltage, all on one channel);
the FDMA cluster (``multisensor.receive_clusters``) passes one tone and one
band per sensor.
The proof forms the spectrum of a capture without synthesizing it: each
tone's rfft is a Dirichlet kernel in closed form (``_tone_sum``), and a
bin of the capture is the tones' bin plus sigma times the noise's.

``receive_points`` alone chooses between the proof and the capture.  It
checks the tones as a capture checks them (``_check_tones``), the channel
count and each band's bins before anything is proved.  It proves the
points of each run of one seed from the run's one noise draw, in blocks of
at most BLOCK_ROWS (point, band) rows (``_proved_bins``, whose docstring
holds the proof), and synthesizes, transforms and searches a point's
capture only when some band of it is left open.  The block's first stage
is array operations over all its rows: the tones' nearest bins, windows
clear of Nyquist and evaluated ranges, the closed-form tone bins, the
scaled noise gathered by index, the antenna combine and a row-wise argmax,
runner-up and margin test, with rows of narrower ranges padded by masked
bins.  Points of the same tones, such as one trial's points at each SNR of
a seed, share one evaluation of the tone bins per band and differ only in
the sigma that scales their noise.  A row the block leaves open is proved
again alone, by the same evaluation and decision over its window and the
band bins whose noise could make them rivals.  A call may hold the points of
several seeds: it draws each run's noise once, into one block of buffers
that it reuses for every run and frees on return, so a seed whose points
are not consecutive has its noise drawn once per run.  The block cap
bounds the proof's temporaries, whatever the number of points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "FmConfig",
    "ChannelSpec",
    "capture",
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
    """Static AWGN channel set by SNR, seeded by a non-negative integer rng_seed.

    snr_db = math.inf disables noise.  Transmitted power is taken as 1
    regardless of the waveform, so a -20 dB channel has noise variance 100
    and a unit tone is received as sent.  An snr_db whose noise variance
    overflows a float (below about -3082.5 dB) is rejected, and so is an
    rng_seed that is not an integer (a bool is not one); a numpy integer
    seed is kept as an int.
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
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, (int, np.integer)):
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
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


def _check_tones(fm: FmConfig, tones: np.ndarray, antennas: int) -> None:
    """Reject what no capture can hold: no antenna, no tone, a tone outside [0, Nyquist).

    tones is a (points, tones) array; the first tone outside, point by
    point, is named.
    """
    if antennas < 1:
        raise ValueError("antennas must be >= 1")
    if tones.ndim != 2 or tones.shape[1] < 1:
        raise ValueError(f"tones must be (points, tones), a tone or more per point; got {tones.shape}")
    outside = tones[~((0.0 <= tones) & (tones < fm.sample_rate / 2))].tolist()
    if outside:
        raise ValueError(f"tone at {outside[0]} Hz is outside [0, Nyquist) for fs={fm.sample_rate} Hz")


def capture(
    fm: FmConfig, ch: ChannelSpec, freqs: list[float], antennas: int = 1
) -> tuple[np.ndarray, ...]:
    """Received samples per antenna: a sum of tones plus independent AWGN.

    Each frequency f (Hz) is synthesized as cos(2*pi*f/fs*n), and the tones
    are summed in the given order.  Antenna a adds noise_sigma(ch) times
    its unit draw.
    """
    _check_tones(fm, np.array([freqs], dtype=float), antennas)
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


def _tone_sum(m: int, offsets: np.ndarray, first, columns: np.ndarray) -> np.ndarray:
    """Per row r, the closed-form rfft at bins first[r] + columns of the tone halves at offsets.

    offsets (rows, halves) are in bins, o = +freq * M / fs for the exp(+iwn)
    half of a tone cos(w*n) as ``capture`` synthesizes it, w = 2*pi*freq/fs,
    and -freq * M / fs for its exp(-iwn) half, each half of amplitude 1/2;
    first is (rows, 1), or one bin for every row, and every row holds the
    same number of halves.  A half sums over n < M to a Dirichlet kernel: at
    offset d = o - k bins from bin k, sin(pi*d)/sin(pi*d/M) *
    exp(i*pi*(M-1)/M * d).  The ratio of sines is evaluated from d itself,
    except within ~1e-9 bins of d = 0 (mod M), where the rounded sines are
    0/0 or a quotient of rounding residues and the ratio is taken as its
    limit, which it equals to double precision there: M at d = 0 (on bin),
    -M at d = +-M (the image of a tone next to Nyquist on bin M/2).  The
    phase factors into exp(i*pi*(M-1)/M * (o - first)), one per half, times
    ``_bin_phase`` of the column, one unit factor per column: the returned
    sums leave the second factor out, so |sums| are the bins' magnitudes.
    For 0 <= freq < fs/2 and bins in [0, M/2], sums times ``_bin_phase`` of
    the columns equal np.fft.rfft of the synthesized samples up to rounding.
    """
    # the phase is taken relative to first, not to bin 0, so that the proof
    # rotates its noise by one phase vector over the columns, shared by every
    # row, instead of a phase per (row, bin)
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
    """The unit phase exp(-i*pi*(M-1)/M * k) of each column k of ``_tone_sum``'s sums."""
    return np.exp((-1j * np.pi * (m - 1) / m) * bins)


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


def _band_bins(fm: FmConfig, band: tuple[float, float]) -> tuple[int, int]:
    """First and last rfft bin k with lo_hz <= k * fs / M <= hi_hz, to 1e-9 bins.

    The range is clipped to bins 0..M/2; a band that holds no bin is rejected.
    """
    bin_width = fm.sample_rate / fm.num_samples
    lo = max(0, math.ceil(band[0] / bin_width - 1e-9))
    hi = min(fm.num_samples // 2, math.floor(band[1] / bin_width + 1e-9))
    if lo > hi:
        raise ValueError(f"band {band} contains no FFT bins")
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


def _wins(best, runner_up, outside):
    """Whether a finite best bin beats the runner-up and the bound ``outside`` by PEAK_MARGIN.

    Elementwise over arrays; a best bin that only equals the margin's bound
    does not win.
    """
    return np.isfinite(best) & (best > (1.0 + PEAK_MARGIN) * np.maximum(outside, runner_up))


def _received(m: int, sums: np.ndarray, first, columns: np.ndarray, sigma, noise) -> np.ndarray:
    """The combined magnitudes of ``_tone_sum``'s sums plus sigma times the noise at their bins.

    sums are the tones at bins first + columns, as ``_tone_sum`` returns
    them; sigma scales the noise per row, and noise None is no noise.  Since
    |sums * phase + noise| = |sums + noise / phase|, each noise bin is turned
    by the conjugate ``_bin_phase`` of its column instead; a masked column
    past M/2 reads bin M/2.
    """
    if noise is None:
        return np.abs(sums)
    at = first + columns
    scale = sigma * _bin_phase(m, columns).conj()
    return _combined([sums + scale * b.take(at, mode="clip") for b in noise.bins])


def _decided(mags: np.ndarray, outside, first, columns: np.ndarray):
    """Each row's proved bin, NaN when open, and its best, for rows mags of bins first + columns.

    A row's best column is its argmax and its runner-up the second largest
    (-inf for one column); outside bounds every bin not in mags.  The bin
    of the best column is proved when it ``_wins``.
    """
    top = np.sort(mags, axis=1)
    best = top[:, -1]
    runner_up = top[:, -2] if mags.shape[1] > 1 else -math.inf
    won = _wins(best, runner_up, outside)
    return np.where(won, first + columns[mags.argmax(axis=1)], math.nan), best


def _proved_bins(
    fm: FmConfig,
    tones: np.ndarray,
    spans: list[tuple[int, int]],
    sigmas: np.ndarray,
    noise: _Noise | None,
) -> np.ndarray:
    """Each (point, band)'s rfft argmax bin, as a (points, bands) float array, NaN when unproved.

    Point p's capture is the sum of the tones of row p of tones (Hz) plus
    sigmas[p] times the noise's bins on each antenna (noiseless when noise
    is None or the sigma is 0), combined over the antennas as
    ``receive_points`` combines them; band b is the bins lo..hi of
    spans[b].  Every tone is one ``_check_tones`` accepts.

    With M = fm.num_samples, a tone's window is the bins within PEAK_WINDOW
    of its nearest bin c0; the band bins from the lowest to the highest
    window that meets the band are evaluated in closed form (``_tone_sum``)
    and added to the scaled noise bins (``_received``).  Each Dirichlet
    kernel of a tone is at least PEAK_WINDOW + 1/2 bins (mod M) from every
    rfft bin outside its window as long as the window stays clear of
    Nyquist, so no tone bin there exceeds the leak bound
    1 / sin(pi*(PEAK_WINDOW + 1/2)/M), and the tones together at most their
    number times it; by Minkowski's inequality a bin's combined magnitude is
    at most that plus sigma times the noise magnitude.  Two stages prove the peak:

    - every band bin outside the evaluated range is bounded by the tones'
      leak plus sigma times the noise's peak;
    - when that fails, the range is evaluated again together with every
      band bin whose bound reaches the range's best over (1 + PEAK_MARGIN),
      and the bound outside is the leak alone.  A band bin left out has
      noise magnitude below (best / (1 + PEAK_MARGIN) - leak) / sigma, so
      its bound is below best / (1 + PEAK_MARGIN); the evaluated set holds
      the range, so its own best is at least best, and a bin left out can
      never be within PEAK_MARGIN of it.

    In each stage the best evaluated bin is returned when it is finite and
    beats the runner-up and the bound by PEAK_MARGIN (``_decided``).  A
    window that reaches Nyquist, a band that meets no window or a non-finite
    quantity gives NaN, so ``receive_points``' capture decides, with its
    errors.

    The first stage runs on every (point, band) row in one array block.
    Points of the same tones share one evaluation of their tone bins per
    band and differ only in the sigma that scales their noise.  Each row's
    bins past its evaluated range are masked to -inf, so each row's tones,
    noise and decision are its own; a row with no evaluated range has every
    bin masked and is left open.  A row the block leaves open, with a
    finite best bin and noise in its bound, goes on to the second stage
    alone, in bins relative to the row's own first bin as in the block.
    """
    m = fm.num_samples
    bands = len(spans)
    keys: dict[tuple, int] = {}  # each distinct tone row, in order of first appearance
    u = np.array([keys.setdefault(row, len(keys)) for row in map(tuple, tones.tolist())])
    freqs = np.array(list(keys))
    lo, hi = np.array(spans, dtype=float).T[:, :, np.newaxis]  # (bands, 1)
    offsets = freqs * m / fm.sample_rate  # in bins
    nearest = np.rint(offsets)[:, np.newaxis]  # (keys, 1, tones)
    # the evaluated range of each (key, band): the band bins from the lowest
    # to the highest window (the bins within PEAK_WINDOW of a tone's nearest
    # bin) that meets the band.  A window that reaches Nyquist voids its
    # key's leak bound, and the range ends at NaN; a (key, band) whose
    # windows all miss the band ends at -inf
    start = np.maximum(nearest - PEAK_WINDOW, lo)
    top = nearest + PEAK_WINDOW
    stop = np.minimum(top, hi)
    meets = start <= stop
    first = np.minimum.reduce(np.where(meets, start, hi), axis=2).ravel()
    stop = np.where(top < m // 2, np.where(meets, stop, -math.inf), math.nan)
    span = np.maximum.reduce(stop, axis=2).ravel() - first  # the range's width less one
    width = np.fmax.reduce(span)
    if not width >= 0.0:
        return np.full((len(tones), bands), math.nan)
    columns = np.arange(int(width) + 1)
    halves = np.concatenate([offsets, -offsets], axis=1)  # every exp(+iwn), then every exp(-iwn)
    evaluated = _tone_sum(m, np.repeat(halves, bands, axis=0), first[:, np.newaxis], columns)
    # row (point p, band b) reads its key's (key, band) entry
    at_key = (u[:, np.newaxis] * bands + np.arange(bands)).ravel()
    evaluated, first, span = evaluated[at_key], first[at_key].astype(int), span[at_key]
    leak = freqs.shape[1] / math.sin(math.pi * (PEAK_WINDOW + 0.5) / m)
    sigma = np.repeat(sigmas, bands)  # every sigma is 0 when noise is None
    outside = leak if noise is None else leak + sigma * noise.peak
    mags = _received(m, evaluated, first[:, np.newaxis], columns, sigma[:, np.newaxis], noise)
    mags = np.where(columns <= span[:, np.newaxis], mags, -math.inf)
    found, best = _decided(mags, outside, first, columns)
    for r in (np.isnan(found) & (sigma != 0.0) & np.isfinite(best)).nonzero()[0]:
        lo, hi = spans[r % bands]
        magnitude = noise.magnitude[lo : hi + 1]
        rival = magnitude >= (best[r] / (1.0 + PEAK_MARGIN) - leak) / sigma[r]
        rival[first[r] - lo : first[r] - lo + int(span[r]) + 1] = True
        rivals = lo - first[r] + np.flatnonzero(rival)
        sums = _tone_sum(m, halves[u[r // bands], np.newaxis], first[r], rivals)
        mags = _received(m, sums, first[r], rivals, sigma[r], noise)
        found[r] = _decided(mags, leak, first[r], rivals)[0][0]
    return found.reshape(len(tones), bands)


# an overflowing mean square is reported by the capture's finiteness check,
# not by numpy's warnings
@np.errstate(over="ignore")
def receive_points(
    fm: FmConfig,
    channels: list[ChannelSpec],
    tones,
    bands: list[tuple[float, float]],
    antennas: int = 1,
) -> np.ndarray:
    """The receiver at each point: each band's strongest bin in Hz, as a (points, bands) array.

    Point p is the capture of the tones of row p of tones, a (points, tones)
    array in Hz, over channels[p], one ChannelSpec per point; the one band
    list bands, of (lo_hz, hi_hz) pairs, applies to every point.  Each
    antenna's record from ``capture`` is transformed by one rfft; with
    several antennas the magnitudes are combined noncoherently, as the root
    of their mean square per bin.  For each band the result is k * fs / M
    for the strongest bin k in 0..M/2 with lo_hz <= k * fs / M <= hi_hz (to
    1e-9 bins); of equal bins the lowest wins.  The points of one rng_seed
    re-observe one noise realization at their own SNRs (common random
    numbers).

    Before anything is drawn, proved or captured, the call checks, in this
    order: antennas >= 1; tones is 2-D with at least one tone per point;
    every tone lies in [0, Nyquist) (the error names the first one outside,
    point by point); there is one channel per point; each band holds a bin.
    A call with no band returns a (points, 0) array and draws nothing.  The
    points are then proved run by run, a run being consecutive points of
    one rng_seed: a run with a noisy point has its unit-variance noise drawn
    once, into one block that every run of the call reuses and that is
    freed on return, and its (point, band) rows are proved in blocks of at
    most BLOCK_ROWS rows (``_proved_bins``), whole points at a time, or a
    point's bands in parts when they alone exceed the cap.  A caller that
    sends each seed's points together draws each seed's noise once.  Last,
    point by point in order, a point with a band left open has its capture
    synthesized, transformed and searched.  The capture rejects a band whose
    bins are all zero (a noiseless DC tone leaves every other bin exactly
    0) or whose peak is not finite (the mean square overflows when the
    noise is within ~10*log10(M) dB of ChannelSpec's variance limit).  The
    proof accepts neither: its peak must beat a positive leak bound, and a
    bin whose mean square overflows outranks every finite evaluated bin, so
    the proof either evaluates it, and finds it not finite, or cannot bound
    it.
    """
    tones = np.asarray(tones, dtype=float)
    _check_tones(fm, tones, antennas)
    if len(channels) != len(tones):
        raise ValueError(f"{len(channels)} channels for {len(tones)} points of tones")
    spans = [_band_bins(fm, band) for band in bands]
    found = np.full((len(tones), len(bands)), math.nan)  # each (point, band)'s bin, NaN while open
    if not bands:
        return found
    sigmas = np.array([noise_sigma(ch) for ch in channels])
    m = fm.num_samples
    n = m // 2 + 1
    if sigmas.any():
        # one allocation for the noise record, one rfft per antenna and
        # their combined magnitude; the record then serves as the combine's
        # scratch.  Once a block this large (1.3 MB and up at 2^16 samples)
        # has been freed, glibc serves and keeps allocations up to its size
        # on the heap, so each rfft reuses its ~0.9 MB of work arrays; four
        # smaller buffers left every rfft faulting them in afresh (~220
        # minor faults per rfft)
        block = np.empty(m + n + 2 * n * antennas)
        record, magnitude = block[:m], block[m : m + n]
        bins = tuple(block[m + n :].reshape(antennas, 2 * n).view(complex))
    seeds = [ch.rng_seed for ch in channels]
    starts = [p for p in range(len(seeds)) if p == 0 or seeds[p] != seeds[p - 1]]
    per = max(1, BLOCK_ROWS // len(bands))  # whole points per block
    for start, end in zip(starts, [*starts[1:], len(seeds)]):
        noise = None
        if sigmas[start:end].any():
            for a, spectrum in enumerate(bins):
                _noise_rng(seeds[start], a).standard_normal(out=record)
                np.fft.rfft(record, out=spectrum)
            noise = _noise(bins, magnitude, record[:n])
        for p in range(start, end, per):
            for b in range(0, len(bands), BLOCK_ROWS):
                rows, cols = slice(p, min(p + per, end)), slice(b, b + BLOCK_ROWS)
                found[rows, cols] = _proved_bins(fm, tones[rows], spans[cols], sigmas[rows], noise)
    # in order, each point with a band left open: its capture decides all its bands
    for p in np.isnan(found).any(axis=1).nonzero()[0]:
        combined = _combined([np.fft.rfft(y) for y in capture(fm, channels[p], tones[p], antennas)])
        for b, (band, (lo, hi)) in enumerate(zip(bands, spans)):
            found[p, b] = k = lo + int(np.argmax(combined[lo : hi + 1]))
            if not math.isfinite(combined[k]):
                raise ValueError("the combined spectrum overflows: the noise power is too large")
            if not combined[k] > 0:
                raise ValueError(f"degenerate all-zero band {band}: no signal to detect")
    return found * (fm.sample_rate / fm.num_samples)


def transmit_receive(fm: FmConfig, ch: ChannelSpec, vd):
    """Full chain: one tone at fm.scale * vd Hz, received over the whole spectrum, back to volts.

    vd may be an array: each element is one point of a single
    ``receive_points`` call on ch, so every voltage re-observes the channel's
    one noise draw.  A scalar gives a float, an array an array of its shape.
    """
    vd = np.asarray(vd, dtype=float)
    tones = (fm.scale * vd).reshape(-1, 1)
    peaks = receive_points(fm, [ch] * len(tones), tones, [(0.0, fm.sample_rate / 2)]) / fm.scale
    return float(peaks[0, 0]) if vd.ndim == 0 else peaks.reshape(vd.shape)
