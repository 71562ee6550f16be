"""Distortion metric: signal-to-distortion ratio in dB."""
from __future__ import annotations

import math

__all__ = [
    "SDR_CAP_DB",
    "sdr",
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
