"""Distortion and quality metrics: SDR and a spectral CSNR estimate."""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SDR_CAP_DB",
    "sdr",
    "spectral_floor",
    "estimate_csnr",
]

# reported instead of infinity when the error is exactly zero
SDR_CAP_DB = 200.0


def sdr(mse_value: float) -> float:
    """10*log10(1/mse), capped at SDR_CAP_DB for a zero-error estimate."""
    if mse_value < 0 or math.isnan(mse_value):
        raise ValueError(f"mse must be non-negative, got {mse_value}")
    if mse_value == 0.0:
        return SDR_CAP_DB
    return min(10.0 * math.log10(1.0 / mse_value), SDR_CAP_DB)


def spectral_floor(spectrum: np.ndarray) -> float:
    """Noise power of a magnitude spectrum: median bin power times the bin count."""
    spectrum = np.asarray(spectrum, dtype=float)
    return float(np.median(spectrum**2)) * spectrum.size


def estimate_csnr(spectrum: np.ndarray, peak_bin: int, floor: float | None = None) -> float:
    """Rough baseband SNR from a magnitude spectrum, in dB.

    Heuristic: peak bin power over spectral_floor(spectrum) (the median
    tracks the noise floor; scaling by the count approximates the total
    noise power).  Pass ``floor`` to reuse one floor for several peaks of the
    same spectrum.  Intended for labeling, not calibrated measurement.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    if not 0 <= peak_bin < spectrum.size:
        raise ValueError(f"peak_bin {peak_bin} outside spectrum of {spectrum.size} bins")
    peak_power = spectrum[peak_bin] ** 2
    if floor is None:
        floor = spectral_floor(spectrum)
    if floor == 0.0:
        return SDR_CAP_DB if peak_power > 0 else -SDR_CAP_DB
    return 10.0 * math.log10(peak_power / floor) if peak_power > 0 else -SDR_CAP_DB
