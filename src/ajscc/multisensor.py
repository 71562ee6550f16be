"""FDMA multiplexing of several sensors to one cluster-head receiver.

A sensor carries no identity of its own: the cluster head tells sensors apart
only by their FDMA band, so sensor i is the one in band i of the plan.  Each
sensor's encoded voltage vd becomes a tone at offset + fm.scale * vd Hz, its
single-sensor frequency shifted into its band (``cluster_tones``).  The
cluster head is ``signal_chain.receive``: it captures the superposition
over one shared channel on one or more antennas, seeded by the channel's
rng_seed like the single-sensor chain, and returns the strongest bin of each
sensor's band in the antennas' noncoherently combined spectrum.  Voltage is
read back as (peak - offset) / fm.scale (``cluster_voltages``, over any
leading axes of peaks).  Band disjointness makes noiseless recovery
bit-identical to running each sensor alone.

``simulate_cluster`` runs one cluster head for one channel: ``cluster_tones``,
one ``receive`` call, then ``cluster_voltages`` and a decode per band.
``receive`` proves each band's peak from the tones' closed-form bins and
captures only when a band is left open, so the cluster needs no fast path of
its own.  The SDR sweep in ``experiments`` uses ``cluster_tones``
and ``cluster_voltages`` around one ``signal_chain.receive_points`` call per
worker chunk, with one point per (trial, SNR) and no noise passed (the call
draws each trial's noise itself), so the tone format is written once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mapping import DecodedPair, MappingConfig, decode, encode
from .signal_chain import ChannelSpec, FmConfig, receive

__all__ = [
    "FdmaPlan",
    "SensorResult",
    "assign_channels",
    "cluster_tones",
    "cluster_voltages",
    "simulate_cluster",
]


@dataclass(frozen=True)
class FdmaPlan:
    """Carrier offsets, one band per sensor, with a common band width and guard spacing."""

    offsets: tuple[float, ...]
    guard_hz: float
    band_width_hz: float

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ValueError("plan needs at least one band")
        if not all(map(math.isfinite, (*self.offsets, self.guard_hz, self.band_width_hz))):
            raise ValueError("offsets, guard_hz and band_width_hz must be finite")
        if self.band_width_hz <= 0 or self.guard_hz < 0:
            raise ValueError("band_width_hz must be positive and guard_hz non-negative")
        if min(self.offsets) < 0:
            raise ValueError(f"a band starts below DC, at {min(self.offsets)} Hz")
        ordered = sorted(self.offsets)
        for a, b in zip(ordered, ordered[1:]):
            if b - (a + self.band_width_hz) < self.guard_hz - 1e-9:
                raise ValueError(
                    f"bands at {a} and {b} Hz overlap or violate the "
                    f"{self.guard_hz} Hz guard spacing"
                )

    def band(self, index: int) -> tuple[float, float]:
        """Occupied band [offset, offset + width] of one sensor."""
        lo = self.offsets[index]
        return lo, lo + self.band_width_hz


def assign_channels(num_sensors: int, fm: FmConfig, d_max: float, guard_hz: float = 1000.0) -> FdmaPlan:
    """Contiguous disjoint bands, the lowest starting at the guard spacing."""
    if num_sensors < 1:
        raise ValueError("num_sensors must be >= 1")
    width = fm.scale * d_max
    # the top band must end below Nyquist, where simulate_cluster can search it
    if num_sensors * (width + guard_hz) >= fm.sample_rate / 2:
        raise ValueError(
            f"{num_sensors} bands of {width} Hz with {guard_hz} Hz guards exceed "
            f"the {fm.sample_rate / 2} Hz Nyquist capacity"
        )
    offsets = tuple(guard_hz + i * (width + guard_hz) for i in range(num_sensors))
    return FdmaPlan(offsets=offsets, guard_hz=guard_hz, band_width_hz=width)


@dataclass(frozen=True)
class SensorResult:
    """One band's receiver output: true and detected voltage, peak frequency, decoded pair."""

    vd_true: float
    vd_hat: float
    peak_hz: float
    decoded: DecodedPair


def _validate_cluster(mapping: MappingConfig, truths, plan: FdmaPlan, fm: FmConfig) -> None:
    # a plan has at least one band, so this also rejects an empty truths list
    if len(plan.offsets) != len(truths):
        raise ValueError("plan and truths must have matching lengths")
    width = fm.scale * mapping.d_max
    if width > plan.band_width_hz + 1e-9:
        raise ValueError(
            f"a sensor occupies {width} Hz, wider than its {plan.band_width_hz} Hz band"
        )
    top = max(plan.offsets) + width
    if top >= fm.sample_rate / 2:
        raise ValueError(f"band tops out at {top} Hz, beyond Nyquist")


def cluster_tones(
    mapping: MappingConfig, truths: list[tuple[float, float]], plan: FdmaPlan, fm: FmConfig
) -> tuple[list[float], list[float], list[tuple[float, float]]]:
    """Each sensor's encoded voltage, tone frequency (Hz) and band, in band order.

    truths holds one (x1, x2) pair per band of the plan.  Sensor i's tone is
    at plan.offsets[i] + fm.scale * vd Hz.
    """
    _validate_cluster(mapping, truths, plan, fm)
    x1, x2 = zip(*truths)
    vds = encode(mapping, x1, x2).tolist()
    freqs = [offset + fm.scale * vd for offset, vd in zip(plan.offsets, vds)]
    return vds, freqs, [plan.band(i) for i in range(len(vds))]


def cluster_voltages(plan: FdmaPlan, fm: FmConfig, peaks) -> np.ndarray:
    """Band peaks (Hz) read back as (peak - offset) / fm.scale volts.

    peaks holds one peak per band of the plan on its last axis, in band
    order, and may have any leading axes: the SDR sweep reads back every
    (trial, SNR point) of a worker's chunk at once.
    """
    return (np.asarray(peaks, dtype=float) - np.array(plan.offsets)) / fm.scale


def simulate_cluster(
    mapping: MappingConfig,
    truths: list[tuple[float, float]],
    plan: FdmaPlan,
    fm: FmConfig,
    ch: ChannelSpec,
    antennas: int = 1,
) -> list[SensorResult]:
    """Capture all sensors jointly over channel ch and decode each from its own band.

    truths holds one (x1, x2) pair per band of the plan, in band order, and
    the results come back in that order; the tones are ``cluster_tones``,
    summed in band order, and each band's peak is read back by
    ``cluster_voltages`` and decoded.
    """
    vds, freqs, bands = cluster_tones(mapping, truths, plan, fm)
    peaks = receive(fm, ch, freqs, bands, antennas)
    vd_hats = cluster_voltages(plan, fm, peaks).tolist()
    return [
        SensorResult(vd_true, vd_hat, peak, decode(mapping, vd_hat))
        for vd_true, vd_hat, peak in zip(vds, vd_hats, peaks)
    ]
