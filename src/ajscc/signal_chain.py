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
frequencies plus noise per antenna (``channel_noise``), seeded by
``ChannelSpec.rng_seed``, returned as one float array per antenna.
``receive`` is the one explicit receiver: it captures, takes one rfft per
antenna, combines the antennas' magnitudes noncoherently and returns the
strongest bin of each band.  A single sensor is a one-tone capture searched
over the whole spectrum; the FDMA cluster in ``multisensor`` passes one
frequency and one band per sensor.  ``tone_bins`` is the closed-form FFT of
one capture tone, so a spectrum can be formed as tone bins plus the FFT of
the noise.

``proved_peak`` is the one proof of a receiver decision without the tone's
FFT: it returns the rfft argmax bin of one tone, plus a ``NoiseSpectrum``
when given, or None when its bounds cannot separate that bin from every
rival.  A noiseless ``transmit_receive`` uses it and synthesizes no record;
where it returns None, or the channel is noisy, the chain runs ``receive``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "FmConfig",
    "ChannelSpec",
    "capture",
    "channel_noise",
    "tone_bins",
    "NoiseSpectrum",
    "proved_peak",
    "noise_sigma",
    "receive",
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

    @property
    def num_samples(self) -> int:
        return round(self.record_seconds * self.sample_rate)


@dataclass(frozen=True)
class ChannelSpec:
    """Static AWGN channel set by SNR, seeded by rng_seed.

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


def noise_sigma(ch: ChannelSpec) -> float:
    """AWGN standard deviation for unit transmitted power; 0 when noiseless."""
    if math.isinf(ch.snr_db):
        return 0.0
    return math.sqrt(1.0 * 10.0 ** (-ch.snr_db / 10.0))


def channel_noise(fm: FmConfig, ch: ChannelSpec, antenna: int = 0) -> np.ndarray:
    """AWGN samples of one antenna: normal(0, noise_sigma(ch)) per sample.

    Drawn from SeedSequence([ch.rng_seed, antenna]); for antenna 0 that is the
    default_rng(ch.rng_seed) stream.  All zeros when the channel is noiseless.
    """
    sigma = noise_sigma(ch)
    if sigma == 0.0:
        return np.zeros(fm.num_samples)
    rng = np.random.default_rng(np.random.SeedSequence([ch.rng_seed, antenna]))
    return rng.normal(0.0, sigma, fm.num_samples)


def capture(
    fm: FmConfig, ch: ChannelSpec, freqs: list[float], antennas: int = 1
) -> tuple[np.ndarray, ...]:
    """Received samples per antenna: a sum of tones plus independent AWGN.

    Each frequency f (Hz) is synthesized as cos(2*pi*f/fs*n), and the tones
    are summed in the given order.  Antenna a adds channel_noise(fm, ch, a).
    """
    if antennas < 1:
        raise ValueError("antennas must be >= 1")
    if not freqs:
        raise ValueError("capture needs at least one tone")
    n = np.arange(fm.num_samples)
    mix = None
    for freq in freqs:
        if not 0.0 <= freq < fm.sample_rate / 2:
            raise ValueError(
                f"tone at {freq} Hz is outside [0, Nyquist) for fs={fm.sample_rate} Hz"
            )
        # cos(w*n), built in one buffer to spare record-sized temporaries
        tone = 2.0 * np.pi * freq / fm.sample_rate * n
        np.cos(tone, out=tone)
        if mix is None:
            mix = tone
        else:
            mix += tone
    if noise_sigma(ch) == 0.0:
        return tuple(mix if a == 0 else mix.copy() for a in range(antennas))
    return tuple(mix + channel_noise(fm, ch, a) for a in range(antennas))


def tone_bins(fm: FmConfig, freq: float, bins: np.ndarray) -> np.ndarray:
    """rfft of one capture tone over the whole record, in closed form, at 1-D bins.

    The tone at freq Hz is cos(w*n) as ``capture`` synthesizes
    it, w = 2*pi*freq/fs.  Each of its two complex exponentials sums over
    n < M = fm.num_samples to a Dirichlet kernel: at offset d = +-freq*M/fs - k
    bins from bin k, exp(i*pi*d*(M-1)/M) * sin(pi*d) / sin(pi*d/M).  Within
    1e-9 bins of d = 0 the ratio is taken as its limit M, which it equals to
    double precision (and tiny offsets would lose it to underflow).  For
    0 <= freq < fs/2 and bins in [0, M/2] the result equals np.fft.rfft of
    the synthesized samples up to rounding.
    """
    m = fm.num_samples
    sign = np.array([[1.0], [-1.0]])  # rows: the exp(+iwn) and exp(-iwn) halves
    d = sign * (freq * m / fm.sample_rate) - np.asarray(bins, dtype=float)
    on_bin = np.abs(d) < 1e-9
    kernel = np.where(on_bin, m, np.sin(np.pi * d) / np.sin(np.pi / m * np.where(on_bin, 1.0, d)))
    halves = kernel * np.exp(1j * (np.pi * (m - 1) / m * d))
    return 0.5 * halves.sum(axis=0)


# half-width in bins of the window around a tone that proved_peak evaluates
# in closed form, and the relative margin by which its peak must beat the
# runner-up and the bound on every other bin.  The closed-form tone plus the
# noise's rfft and np.fft.rfft of the synthesized record agree to ~1e-11 of
# the peak, so rounding cannot change a decision accepted with this margin
PEAK_WINDOW = 32
PEAK_MARGIN = 1e-7


@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """rfft bins of one noise record and their largest magnitude.

    ``proved_peak`` adds a tone's closed-form bins to ``bins`` and bounds the
    bins it does not evaluate by ``peak``, or by ``magnitude`` when that
    bound is too loose.  Non-finite bins are rejected.
    """

    bins: np.ndarray
    peak: float = field(init=False)

    def __post_init__(self) -> None:
        peak = float(np.max(np.abs(self.bins)))
        if not math.isfinite(peak):
            raise ValueError("noise spectrum is not finite")
        object.__setattr__(self, "peak", peak)

    @cached_property
    def magnitude(self) -> np.ndarray:
        """|bins|, computed the first time a bound needs it (high-SNR proofs never do)."""
        return np.abs(self.bins)


def _margin_winner(mags: np.ndarray, bins: np.ndarray, outside: float) -> int | None:
    """bins[argmax] when it beats the runner-up and the bound ``outside`` by PEAK_MARGIN."""
    j = int(np.argmax(mags))
    runner_up = float(np.partition(mags, -2)[-2])
    if mags[j] > (1.0 + PEAK_MARGIN) * max(runner_up, outside):
        return int(bins[j])
    return None


def proved_peak(fm: FmConfig, freq: float, noise: NoiseSpectrum | None = None) -> int | None:
    """rfft argmax bin of the capture tone at freq Hz plus noise, or None when unproved.

    With M = fm.num_samples, the tone's bins within PEAK_WINDOW of its nearest
    bin c0 are evaluated in closed form (``tone_bins``) and added to the
    noise's.  Each Dirichlet kernel of the tone is at least PEAK_WINDOW + 1/2
    bins (mod M) from every rfft bin outside that window as long as the window
    stays clear of Nyquist, so no tone bin there exceeds the leak bound
    1 / sin(pi*(PEAK_WINDOW + 1/2)/M).  Two stages prove the peak:

    - every bin outside the window is bounded by the leak plus the noise
      spectrum's peak;
    - when that fails, the outside bins whose noise magnitude plus the leak
      reaches the window's best over (1 + PEAK_MARGIN) are evaluated in
      closed form, and every other bin is bounded by the leak plus the largest
      noise magnitude among them.

    The best evaluated bin is returned when it beats the runner-up and the
    bound by PEAK_MARGIN.  A frequency outside [0, Nyquist) or a window that
    reaches Nyquist gives None, so a caller's fallback to ``capture`` keeps
    its validation.
    """
    m = fm.num_samples
    if noise is not None and noise.bins.shape != (m // 2 + 1,):
        raise ValueError(
            f"noise spectrum has shape {noise.bins.shape}; the record's rfft has {m // 2 + 1} bins"
        )
    if not 0.0 <= freq < fm.sample_rate / 2:
        return None
    c0 = round(freq * m / fm.sample_rate)
    if c0 + PEAK_WINDOW + 1 > m // 2:
        return None
    lo, hi = max(c0 - PEAK_WINDOW, 0), c0 + PEAK_WINDOW + 1
    bins = np.arange(lo, hi)
    window = tone_bins(fm, freq, bins)
    leak = 1.0 / math.sin(math.pi * (PEAK_WINDOW + 0.5) / m)
    if noise is None:
        return _margin_winner(np.abs(window), bins, leak)
    mags = np.abs(window + noise.bins[lo:hi])
    k = _margin_winner(mags, bins, leak + noise.peak)
    if k is not None:
        return k
    rival = noise.magnitude >= float(np.max(mags)) / (1.0 + PEAK_MARGIN) - leak
    rest = float(np.max(noise.magnitude, where=~rival, initial=0.0))
    rival[lo:hi] = False
    candidates = np.flatnonzero(rival)
    cand_mags = np.abs(tone_bins(fm, freq, candidates) + noise.bins[candidates])
    return _margin_winner(
        np.concatenate([mags, cand_mags]), np.concatenate([bins, candidates]), leak + rest
    )


def receive(
    fm: FmConfig,
    ch: ChannelSpec,
    freqs: list[float],
    bands: list[tuple[float, float]],
    antennas: int = 1,
) -> list[float]:
    """The explicit receiver: the strongest bin of each band of a capture of freqs, in Hz.

    Each antenna's record from ``capture`` is transformed by one rfft; with
    several antennas the magnitudes are combined noncoherently, as the root
    of their mean square per bin.  For each band (lo_hz, hi_hz) the result
    is k * fs / M for the strongest bin k in 0..M/2 with
    lo_hz <= k * fs / M <= hi_hz (to 1e-9 bins); of equal bins the lowest
    wins.  A band that holds no such bin is rejected, and so is one whose
    bins are all zero (a noiseless DC tone leaves every other bin exactly 0)
    or whose peak is not finite (the mean square overflows when the noise is
    within ~10*log10(M) dB of ChannelSpec's variance limit).
    """
    spectra = [np.abs(np.fft.rfft(y)) for y in capture(fm, ch, freqs, antennas)]
    combined = spectra[0] if antennas == 1 else np.sqrt(np.mean(np.square(spectra), axis=0))
    bin_width = fm.sample_rate / fm.num_samples
    peaks = []
    for band in bands:
        lo = max(0, math.ceil(band[0] / bin_width - 1e-9))
        hi = min(combined.size - 1, math.floor(band[1] / bin_width + 1e-9))
        if lo > hi:
            raise ValueError(f"band {band} contains no FFT bins")
        k = lo + int(np.argmax(combined[lo : hi + 1]))
        if not math.isfinite(combined[k]):
            raise ValueError("the combined spectrum overflows: the noise power is too large")
        if not combined[k] > 0:
            raise ValueError(f"degenerate all-zero band {band}: no signal to detect")
        peaks.append(k * bin_width)
    return peaks


def transmit_receive(fm: FmConfig, ch: ChannelSpec, vd: float) -> float:
    """Full chain: one-tone capture seeded by ch.rng_seed, peak detection, back to voltage.

    On a noiseless channel the peak is ``proved_peak``'s bin when it proves
    one, which is the FFT's argmax without synthesizing the record; otherwise
    the chain runs ``receive`` over the whole spectrum, with its validation.
    """
    freq = fm.scale * vd
    k = proved_peak(fm, freq) if noise_sigma(ch) == 0.0 else None
    if k is None:
        return receive(fm, ch, [freq], [(0.0, fm.sample_rate / 2)])[0] / fm.scale
    return k * (fm.sample_rate / fm.num_samples) / fm.scale
