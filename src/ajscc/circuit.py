"""Behavioral model of the analog rectangular-mapping encoder circuit.

Each parallel line of the mapping is one circuit level: a comparator bank
turns the quantized-axis voltage vh into per-level select signals, and an
analog mux per level forwards one of three inputs to the summing stage:
0 V (level above the mapped point), the saturation voltage v_r (level fully
below the point), or a VCVS output proportional (even 0-based index) or
complementary (odd index) to the continuous-axis voltage vt.  The summed
output equals the ideal codec voltage when the non-ideality knobs are zero.

Also hosts the component power budget used for feasibility estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mapping import MappingConfig, Quantizer

__all__ = [
    "CircuitConfig",
    "ComponentBudget",
    "PROTOTYPE_BUDGET",
    "default_thresholds",
    "circuit_encode",
    "equivalent_mapping",
    "estimate_power",
]


def default_thresholds(num_levels: int, delta_h: float, quantizer: Quantizer) -> tuple[float, ...]:
    """Comparator thresholds separating adjacent levels.

    FLOOR placement puts threshold j at j*delta_h; NEAREST at (j - 0.5)*delta_h,
    for j = 1..num_levels-1.
    """
    if quantizer is Quantizer.FLOOR:
        return tuple(j * delta_h for j in range(1, num_levels))
    return tuple((j - 0.5) * delta_h for j in range(1, num_levels))


@dataclass(frozen=True)
class CircuitConfig:
    """Behavioral parameters of the level-summing encoder.

    The defaults are the 11-level, 0.3 V spacing prototype board, and
    thresholds defaults to the placement implied by the quantizer mode; pass an
    explicit tuple to model comparator offset errors.  gain_error and
    offset_error, which must be finite, perturb the VCVS outputs (affine,
    clamped at the mux inputs).
    """

    num_levels: int = 11
    delta_h: float = 0.3
    v_r: float = 1.0
    vt_max: float = 1.0
    quantizer: Quantizer = Quantizer.FLOOR
    thresholds: tuple[float, ...] = field(default=())
    gain_error: float = 0.0
    offset_error: float = 0.0

    def __post_init__(self) -> None:
        if self.num_levels < 2:
            raise ValueError(f"num_levels must be >= 2, got {self.num_levels}")
        if not self.delta_h > 0:
            raise ValueError(f"delta_h must be positive, got {self.delta_h}")
        if not self.v_r > 0:
            raise ValueError(f"v_r must be positive, got {self.v_r}")
        if not self.vt_max > 0:
            raise ValueError(f"vt_max must be positive, got {self.vt_max}")
        if not isinstance(self.quantizer, Quantizer):
            raise ValueError(f"quantizer must be a Quantizer, got {self.quantizer!r}")
        for name in ("gain_error", "offset_error"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.thresholds:
            object.__setattr__(
                self,
                "thresholds",
                default_thresholds(self.num_levels, self.delta_h, self.quantizer),
            )
        if len(self.thresholds) != self.num_levels - 1:
            raise ValueError(
                f"need {self.num_levels - 1} thresholds, got {len(self.thresholds)}"
            )
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def vh_max(self) -> float:
        """Full range of the quantized-axis input."""
        return (self.num_levels - 1) * self.delta_h


def _in_range(x, hi: float, name: str) -> np.ndarray:
    """x as a float array, checked elementwise against [0, hi]; NaN fails too."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= hi)).all():
        raise ValueError(f"{name} out of range [0, {hi}]")
    return x


def _active_level(cfg: CircuitConfig, vh) -> np.ndarray:
    """Index of the level each vh selects: the count of thresholds at or below it."""
    return np.searchsorted(cfg.thresholds, _in_range(vh, cfg.vh_max, "vh"), side="right")


def _vcvs_raw(cfg: CircuitConfig, vt) -> np.ndarray:
    """Proportional VCVS output before the mux clamps it to [0, v_r]."""
    vt = _in_range(vt, cfg.vt_max, "vt")
    return (1.0 + cfg.gain_error) * (cfg.v_r / cfg.vt_max) * vt + cfg.offset_error


def circuit_encode(cfg: CircuitConfig, vt, vh):
    """Sum of all level contributions, the encoded voltage in [0, num_levels*v_r].

    Takes scalars or broadcastable arrays; a scalar pair returns a float.
    Levels are summed in index order, so each element takes the float
    operations of one scalar encode.
    """
    active = _active_level(cfg, vh)
    raw = _vcvs_raw(cfg, vt)
    # the active level's mux forwards the proportional VCVS on even levels, the complement on odd
    on = np.where((active & 1) == 0, np.clip(raw, 0.0, cfg.v_r), np.clip(cfg.v_r - raw, 0.0, cfg.v_r))
    level = np.arange(cfg.num_levels).reshape((-1,) + (1,) * on.ndim)
    contributions = np.where(level < active, cfg.v_r, np.where(level == active, on, 0.0))
    total = 0.0
    for contribution in contributions:
        total = total + contribution
    return float(total) if np.ndim(total) == 0 else total


def equivalent_mapping(cfg: CircuitConfig) -> MappingConfig:
    """The ideal codec this circuit realizes when non-idealities are zero.

    circuit_encode(cfg, vt, vh) == encode(equivalent_mapping(cfg),
    vt * v_r / vt_max, vh) for all in-range inputs.
    """
    return MappingConfig(
        d_max=cfg.num_levels * cfg.v_r,
        num_levels=cfg.num_levels,
        v2=cfg.vh_max,
        quantizer=cfg.quantizer,
    )


@dataclass(frozen=True)
class ComponentBudget:
    """Component counts and per-unit supply powers (watts)."""

    opamp_count: int
    comparator_count: int
    mux_count: int
    opamp_power: float
    comparator_power: float
    mux_power: float

    def __post_init__(self) -> None:
        for name in (
            "opamp_count",
            "comparator_count",
            "mux_count",
            "opamp_power",
            "comparator_power",
            "mux_power",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


# 11-level board: 16 op-amps at 8 uW, 17 comparators at 12.7 nW, 11 muxes at 10 nW
PROTOTYPE_BUDGET = ComponentBudget(16, 17, 11, 8e-6, 12.7e-9, 10e-9)


def estimate_power(budget: ComponentBudget) -> float:
    """Total supply power in watts."""
    return (
        budget.opamp_count * budget.opamp_power
        + budget.comparator_count * budget.comparator_power
        + budget.mux_count * budget.mux_power
    )
