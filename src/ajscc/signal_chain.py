"""Baseband transmission chain: FM tone, static AWGN channel, FFT peak receiver.

The encoded voltage maps linearly to a tone frequency (default 1000 Hz per
volt), the channel adds white Gaussian noise at a configured SNR, and the
receiver locates the strongest FFT bin and maps it back to a voltage.  The
receiver reads only a magnitude spectrum, so a tone is its frequency: the
carrier phase is a nuisance it discards, and every tone is synthesized at
zero phase with the modulator's amplitude.  The FFT spans the whole record,
whose length ``FmConfig`` holds to a power of two, so the bin width is
fm.sample_rate / fm.num_samples.  With the default 65536 Hz sampling over
one second that is exactly 1 Hz, so the noiseless end-to-end voltage error
is half a bin over the scale factor (5e-4 V) away from DC and Nyquist;
within a bin or two of either edge the tone's image leaks into the peak and
the error reaches ~0.6 bins, under the one-bin bound.

``capture`` is the one received-signal model: a sum of tones at the given
frequencies plus noise per antenna (``channel_noise``), seeded by
``ChannelSpec.rng_seed``, returned as one float array per antenna.  A single
sensor is a one-tone capture; the FDMA cluster in ``multisensor`` passes one
frequency per sensor over the same channel.  ``tone_bins`` is the
closed-form FFT of one capture tone, so a spectrum can be formed as tone
bins plus the FFT of the noise.

``proved_peak`` is the one proof of a receiver decision without the tone's
FFT: it returns the rfft argmax bin of one tone, plus a ``NoiseSpectrum``
when given, or None when its bounds cannot separate that bin from every
rival.  A noiseless ``transmit_receive`` uses it and synthesizes no record;
where it returns None, or the channel is noisy, the chain runs ``capture``
and ``detect_peak``.
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
    "magnitude_spectrum",
    "peak_from_spectrum",
    "detect_peak",
    "transmit_receive",
]


@dataclass(frozen=True)
class FmConfig:
    """Voltage-to-frequency modulator parameters and record geometry.

    The record is also the receiver's FFT, so it must hold a power-of-two
    number of samples, at least 2.
    """

    scale: float = 1000.0  # Hz per volt
    amplitude: float = 1.0
    sample_rate: float = 65536.0
    record_seconds: float = 1.0

    def __post_init__(self) -> None:
        for name in ("scale", "amplitude", "sample_rate", "record_seconds"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        n = self.record_seconds * self.sample_rate
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
    regardless of the waveform, so a -20 dB channel has noise variance 100.
    The received amplitude is the modulator's (``FmConfig.amplitude``).
    """

    snr_db: float = math.inf
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must not be NaN or -inf, got {self.snr_db}")


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

    Each frequency f (Hz) is synthesized as fm.amplitude * cos(2*pi*f/fs*n),
    and the tones are summed in the given order.  Antenna a adds
    channel_noise(fm, ch, a).
    """
    if antennas < 1:
        raise ValueError("antennas must be >= 1")
    if not freqs:
        raise ValueError("capture needs at least one tone")
    # len(freqs) * amplitude bounds the tone sum, so finite samples need no scan
    if not math.isfinite(len(freqs) * fm.amplitude):
        raise ValueError("the sum of the tone amplitudes overflows")
    n = np.arange(fm.num_samples)
    mix = None
    for freq in freqs:
        if not 0.0 <= freq < fm.sample_rate / 2:
            raise ValueError(
                f"tone at {freq} Hz is outside [0, Nyquist) for fs={fm.sample_rate} Hz"
            )
        # amplitude * cos(w*n), built in one buffer to spare record-sized temporaries
        tone = 2.0 * np.pi * freq / fm.sample_rate * n
        np.cos(tone, out=tone)
        tone *= fm.amplitude
        if mix is None:
            mix = tone
        else:
            mix += tone
    if noise_sigma(ch) == 0.0:
        return tuple(mix if a == 0 else mix.copy() for a in range(antennas))
    return tuple(mix + channel_noise(fm, ch, a) for a in range(antennas))


def tone_bins(fm: FmConfig, freq: float, bins: np.ndarray) -> np.ndarray:
    """rfft of one capture tone over the whole record, in closed form, at 1-D bins.

    The tone at freq Hz is fm.amplitude*cos(w*n) as ``capture`` synthesizes
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
    return 0.5 * fm.amplitude * halves.sum(axis=0)


def magnitude_spectrum(fm: FmConfig, samples: np.ndarray) -> np.ndarray:
    """FFT magnitude of one whole record, bins 0..sample_rate/2."""
    if len(samples) != fm.num_samples:
        raise ValueError(f"got {len(samples)} samples, the record holds {fm.num_samples}")
    return np.abs(np.fft.rfft(np.asarray(samples, dtype=float)))


def peak_from_spectrum(
    spectrum: np.ndarray,
    sample_rate: float,
    fft_size: int,
    band: tuple[float, float] | None = None,
) -> float:
    """Frequency of the strongest bin, optionally restricted to a band in Hz.

    A NaN or infinite bin in the searched range is rejected: np.argmax returns
    the first NaN, or else the first inf, so checking the argmax bin suffices.
    Magnitudes are non-negative, so a zero argmax bin means an all-zero band.
    """
    bin_width = sample_rate / fft_size
    lo, hi = 0, spectrum.size - 1
    if band is not None:
        f_lo, f_hi = band
        if f_lo > f_hi:
            raise ValueError(f"empty band {band}")
        lo = max(lo, math.ceil(f_lo / bin_width - 1e-9))
        hi = min(hi, math.floor(f_hi / bin_width + 1e-9))
        if lo > hi:
            raise ValueError(f"band {band} contains no FFT bins")
    k = lo + int(np.argmax(spectrum[lo : hi + 1]))
    if not math.isfinite(spectrum[k]):
        raise ValueError("spectrum is not finite: the samples hold NaN or inf")
    if not spectrum[k] > 0:
        raise ValueError("degenerate all-zero spectrum: no signal to detect")
    return k * bin_width


def detect_peak(fm: FmConfig, samples: np.ndarray) -> float:
    """Peak frequency of the sampled record in Hz."""
    return peak_from_spectrum(magnitude_spectrum(fm, samples), fm.sample_rate, fm.num_samples)


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
    fm.amplitude / sin(pi*(PEAK_WINDOW + 1/2)/M).  Two stages prove the peak:

    - every bin outside the window is bounded by the leak plus the noise
      spectrum's peak;
    - when that fails, the outside bins whose noise magnitude plus the leak
      reaches the window's best over (1 + PEAK_MARGIN) are evaluated in
      closed form, and every other bin is bounded by the leak plus the largest
      noise magnitude among them.

    The best evaluated bin is returned when it beats the runner-up and the
    bound by PEAK_MARGIN.  A frequency outside [0, Nyquist), a window that
    reaches Nyquist, or a record whose tone sum could overflow gives None, so
    a caller's fallback to ``capture`` keeps its validation.
    """
    m = fm.num_samples
    if noise is not None and noise.bins.shape != (m // 2 + 1,):
        raise ValueError(
            f"noise spectrum has shape {noise.bins.shape}; the record's rfft has {m // 2 + 1} bins"
        )
    if not 0.0 <= freq < fm.sample_rate / 2 or not math.isfinite(2.0 * fm.amplitude * m):
        return None
    c0 = round(freq * m / fm.sample_rate)
    if c0 + PEAK_WINDOW + 1 > m // 2:
        return None
    lo, hi = max(c0 - PEAK_WINDOW, 0), c0 + PEAK_WINDOW + 1
    bins = np.arange(lo, hi)
    window = tone_bins(fm, freq, bins)
    leak = fm.amplitude / math.sin(math.pi * (PEAK_WINDOW + 0.5) / m)
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


def transmit_receive(fm: FmConfig, ch: ChannelSpec, vd: float) -> float:
    """Full chain: one-tone capture seeded by ch.rng_seed, peak detection, back to voltage.

    On a noiseless channel the peak is ``proved_peak``'s bin when it proves
    one, which is the FFT's argmax without synthesizing the record; otherwise
    the chain runs ``capture`` and ``detect_peak``, with their validation.
    """
    freq = fm.scale * vd
    k = proved_peak(fm, freq) if noise_sigma(ch) == 0.0 else None
    if k is None:
        (samples,) = capture(fm, ch, [freq])
        return detect_peak(fm, samples) / fm.scale
    return k * (fm.sample_rate / fm.num_samples) / fm.scale
