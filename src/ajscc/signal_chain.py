"""Baseband transmission chain: FM tone, static AWGN channel, FFT peak receiver.

The encoded voltage maps linearly to a tone frequency (default 1000 Hz per
volt), the channel applies a constant gain and phase plus white Gaussian
noise at a configured SNR, and the receiver locates the strongest FFT bin
and maps it back to a voltage.  With the default 65536 Hz sampling and
65536-point FFT the bin width is exactly 1 Hz, so the noiseless end-to-end
voltage error is at most half a bin over the scale factor (5e-4 V).

``capture`` is the one received-signal model: a sum of tones plus seeded
noise per antenna.  A single sensor is a one-tone capture; the FDMA cluster
in ``multisensor`` passes one tone per sensor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FmConfig",
    "Waveform",
    "ChannelSpec",
    "ReceiverConfig",
    "capture",
    "fm_modulate",
    "noise_sigma",
    "magnitude_spectrum",
    "peak_from_spectrum",
    "detect_peak",
    "freq_to_voltage",
    "transmit_receive",
]


@dataclass(frozen=True)
class FmConfig:
    """Voltage-to-frequency modulator parameters and record geometry."""

    scale: float = 1000.0  # Hz per volt
    amplitude: float = 1.0
    sample_rate: float = 65536.0
    record_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.sample_rate <= 0 or self.record_seconds <= 0:
            raise ValueError("scale, sample_rate and record_seconds must be positive")
        n = self.record_seconds * self.sample_rate
        if abs(n - round(n)) > 1e-6:
            raise ValueError(
                f"record must hold a whole number of samples, got {n}"
            )

    @property
    def num_samples(self) -> int:
        return round(self.record_seconds * self.sample_rate)


@dataclass(eq=False)
class Waveform:
    """A uniformly sampled real baseband signal."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size == 0:
            raise ValueError("waveform must be non-empty")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ChannelSpec:
    """Static channel: constant gain and phase, AWGN set by SNR.

    snr_db = math.inf disables noise.  Transmitted power is taken as 1
    regardless of the waveform, so a -20 dB channel has noise variance 100.
    The phase is the synthesis phase of the received tone, cos(wn + phase).
    """

    snr_db: float = math.inf
    gain: float = 1.0
    phase: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.gain > 0:
            raise ValueError(f"gain must be positive, got {self.gain}")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")


@dataclass(frozen=True)
class ReceiverConfig:
    """FFT peak detector parameters (rectangular window)."""

    fft_size: int = 65536

    def __post_init__(self) -> None:
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")


def noise_sigma(ch: ChannelSpec) -> float:
    """AWGN standard deviation for unit transmitted power; 0 when noiseless."""
    if math.isinf(ch.snr_db):
        return 0.0
    return math.sqrt(1.0 * 10.0 ** (-ch.snr_db / 10.0))


def capture(
    fm: FmConfig,
    ch: ChannelSpec,
    tones: list[tuple[float, float, float]],
    seed: int,
    antennas: int = 1,
) -> tuple[Waveform, ...]:
    """Received waveform per antenna: a sum of tones plus independent AWGN.

    Each tone is (freq Hz, amplitude, phase), synthesized as
    amplitude * cos(2*pi*freq/fs*n + phase) and summed in the given order.
    The noise standard deviation is noise_sigma(ch); antenna a draws it from
    SeedSequence([seed, a]), which for antenna 0 is the same stream as
    default_rng(seed).  Only ch.snr_db is read: callers fold gain and phase
    into the tones.
    """
    if antennas < 1:
        raise ValueError("antennas must be >= 1")
    if not tones:
        raise ValueError("capture needs at least one tone")
    n = np.arange(fm.num_samples)
    mix = None
    for freq, amplitude, phase in tones:
        if not 0.0 <= freq < fm.sample_rate / 2:
            raise ValueError(
                f"tone at {freq} Hz is outside [0, Nyquist) for fs={fm.sample_rate} Hz"
            )
        tone = amplitude * np.cos(2.0 * np.pi * freq / fm.sample_rate * n + phase)
        if mix is None:
            mix = tone
        else:
            mix += tone
    sigma = noise_sigma(ch)
    waveforms = []
    for a in range(antennas):
        if sigma > 0.0:
            rng = np.random.default_rng(np.random.SeedSequence([seed, a]))
            y = mix + rng.normal(0.0, sigma, mix.size)
        else:
            y = mix if a == 0 else mix.copy()
        waveforms.append(Waveform(y, fm.sample_rate))
    return tuple(waveforms)


def fm_modulate(fm: FmConfig, vd: float) -> Waveform:
    """Noiseless cosine tone at scale*vd Hz with zero initial phase."""
    return capture(fm, ChannelSpec(), [(fm.scale * vd, fm.amplitude, 0.0)], seed=0)[0]


def magnitude_spectrum(rx: ReceiverConfig, wf: Waveform) -> np.ndarray:
    """FFT magnitude over the first fft_size samples, bins 0..sample_rate/2."""
    if len(wf) < rx.fft_size:
        raise ValueError(
            f"waveform has {len(wf)} samples, receiver needs {rx.fft_size}"
        )
    return np.abs(np.fft.rfft(wf.samples[: rx.fft_size]))


def peak_from_spectrum(
    spectrum: np.ndarray,
    sample_rate: float,
    fft_size: int,
    band: tuple[float, float] | None = None,
) -> float:
    """Frequency of the strongest bin, optionally restricted to a band in Hz."""
    if not np.any(spectrum > 0):
        raise ValueError("degenerate all-zero spectrum: no signal to detect")
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
    return k * bin_width


def detect_peak(rx: ReceiverConfig, wf: Waveform, band: tuple[float, float] | None = None) -> float:
    """Peak frequency of the waveform in Hz."""
    return peak_from_spectrum(magnitude_spectrum(rx, wf), wf.sample_rate, rx.fft_size, band)


def freq_to_voltage(fm: FmConfig, freq: float) -> float:
    """Inverse of the modulator frequency map."""
    return freq / fm.scale


def transmit_receive(fm: FmConfig, ch: ChannelSpec, rx: ReceiverConfig, vd: float) -> float:
    """Full chain: one-tone capture seeded by ch.rng_seed, peak detection, back to voltage."""
    tone = (fm.scale * vd, ch.gain * fm.amplitude, ch.phase)
    (wf,) = capture(fm, ch, [tone], ch.rng_seed)
    return freq_to_voltage(fm, detect_peak(rx, wf))
