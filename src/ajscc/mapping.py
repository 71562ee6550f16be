"""Rectangular Shannon-mapping codec for analog joint source-channel coding.

Two analog sources are compressed into one voltage: the discrete axis x2 is
quantized onto one of ``num_levels`` parallel lines, and the continuous axis
x1 is read off as position along that line.  The transmitted value is the
accumulated curve length from the origin to the mapped point, so within a
level the encoder is affine in x1 with slope +1 on even levels and -1 on odd
levels (the curve folds back on itself).  Decoding is a modulus calculation
on the received voltage.

All operations are pure functions of immutable configs and accept scalars or
numpy arrays.  ``num_levels`` may itself be an integer array, one level count
per element: ``v1`` and ``delta`` are then arrays, and ``quantize_level``,
``encode`` and ``decode`` broadcast over the level counts, each element
equal bit for bit to the scalar config at that count.  The level sweep
encodes and decodes every swept count of a trial this way.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Quantizer",
    "MappingConfig",
    "DecodedPair",
    "quantize_level",
    "encode",
    "decode",
]


class Quantizer(enum.Enum):
    """How x2 is assigned to a line.

    FLOOR takes the line below the point; NEAREST takes the closest line
    (ties resolve upward, matching greater-or-equal threshold comparators).
    """

    FLOOR = "floor"
    NEAREST = "nearest"


@dataclass(frozen=True)
class MappingConfig:
    """Full parameterization of the rectangular mapping.

    d_max is the amplitude constraint on the encoded voltage, num_levels the
    number of parallel lines, and v2 the full range of the quantized source.
    The per-level span v1 = d_max / num_levels and the line spacing
    delta = v2 / (num_levels - 1) are derived at construction.  num_levels
    must be whole: 11 and 11.0 are one config, 5.5 is rejected, and so is
    a count numpy cannot hold as a number (an integer of 2**64 or more,
    which it keeps as an object).  An integer array num_levels makes v1 and
    delta arrays of its shape, and the codec broadcasts the inputs against
    them; such a config is not hashable.
    """

    d_max: float
    num_levels: int | np.ndarray
    v2: float
    quantizer: Quantizer = Quantizer.FLOOR
    v1: float | np.ndarray = field(init=False)
    delta: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not (self.d_max > 0 and np.isfinite(self.d_max)):
            raise ValueError(f"d_max must be positive, got {self.d_max}")
        if not (self.v2 > 0 and np.isfinite(self.v2)):
            raise ValueError(f"v2 must be positive, got {self.v2}")
        if not isinstance(self.quantizer, Quantizer):
            raise ValueError(f"quantizer must be a Quantizer, got {self.quantizer!r}")
        levels = np.asarray(self.num_levels)
        # a count numpy cannot hold as a number, such as 2**64, is an object array
        if levels.dtype.kind not in "biuf" or not np.all(
            np.isfinite(levels) & (levels == np.floor(levels))
        ):
            raise ValueError(f"num_levels must be a whole number numpy can hold, got {self.num_levels}")
        if np.any(levels < 2):
            raise ValueError(
                f"num_levels must be >= 2 (line spacing undefined), got {self.num_levels}"
            )
        object.__setattr__(self, "v1", self.d_max / self.num_levels)
        object.__setattr__(self, "delta", self.v2 / (self.num_levels - 1))


@dataclass(frozen=True)
class DecodedPair:
    """Decoder output: reconstructed sources and the detected line index."""

    x1_hat: float
    x2_hat: float
    level_index: int


def _as_float(x, name: str):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def _check_range(x, lo: float, hi: float, name: str) -> None:
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError(f"{name} out of range [{lo}, {hi}]")


def quantize_level(cfg: MappingConfig, x2):
    """Line index for x2: floor(x2/delta) or nearest line, clamped to [0, L-1]."""
    x2 = _as_float(x2, "x2")
    _check_range(x2, 0.0, cfg.v2, "x2")
    if cfg.quantizer is Quantizer.FLOOR:
        k = np.floor(x2 / cfg.delta)
    else:
        k = np.floor(x2 / cfg.delta + 0.5)
    k = np.clip(k, 0, cfg.num_levels - 1).astype(int)
    return int(k) if k.ndim == 0 else k


def encode(cfg: MappingConfig, x1, x2):
    """Encode (x1, x2) to the curve-length voltage in [0, d_max].

    On even lines the output is k*v1 + x1, on odd lines k*v1 + v1 - x1.
    """
    x1 = _as_float(x1, "x1")
    _check_range(x1, 0.0, cfg.v1, "x1")
    k = quantize_level(cfg, x2)
    along = np.where((k & 1) == 0, x1, cfg.v1 - x1)
    # clip guards a 1-ulp overshoot of d_max at the top corner
    vd = np.clip(k * cfg.v1 + along, 0.0, cfg.d_max)
    return float(vd) if vd.ndim == 0 else vd


def decode(cfg: MappingConfig, v) -> DecodedPair:
    """Invert the mapping for a received voltage.

    The input is clamped into [0, d_max] first (noise may push it outside the
    legal range; clamping realizes decoding to the nearest curve point).  The
    result holds Python scalars when v and num_levels are both scalars, and
    arrays of their broadcast shape otherwise.
    """
    v = _as_float(v, "v")
    v = np.clip(v, 0.0, cfg.d_max)
    k = np.minimum(np.floor(v / cfg.v1), cfg.num_levels - 1).astype(int)
    r = np.clip(v - k * cfg.v1, 0.0, cfg.v1)
    x1_hat = np.where((k & 1) == 0, r, cfg.v1 - r)
    x2_hat = k * cfg.delta
    if k.ndim == 0:
        return DecodedPair(float(x1_hat), float(x2_hat), int(k))
    return DecodedPair(x1_hat, x2_hat, k)
