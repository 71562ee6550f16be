"""FDMA multiplexing of several sensors to one cluster-head receiver.

A sensor carries no identity of its own: the cluster head tells sensors apart
only by their FDMA band, so sensor i is the one in band i of the plan.  Each
sensor's encoded voltage vd becomes a tone at offset + fm.scale * vd Hz, its
single-sensor frequency shifted into its band.  ``receive_clusters`` is the
one cluster link: at each (channel, truths) point it encodes every sensor,
places the tones and makes one ``signal_chain.receive_points`` call, which
captures each point's superposition over its channel on one or more
antennas, seeded by the channel's rng_seed like the single-sensor chain,
and returns the strongest bin of each sensor's band in the antennas'
noncoherently combined spectrum.  Voltage is read back as
(peak - offset) / fm.scale.  Band disjointness makes noiseless recovery
bit-identical to running each sensor alone.

``simulate_cluster`` is ``receive_clusters`` at one point plus a decode per
band.  ``receive_points`` proves each band's peak from the tones'
closed-form bins and captures only when a band is left open, so the cluster
needs no fast path of its own.  The SDR sweep in ``experiments`` passes one
point per (trial, SNR) of a worker chunk to one ``receive_clusters`` call,
with no noise passed (the call draws each trial's noise itself).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mapping import DecodedPair, MappingConfig, decode, encode
from .signal_chain import ChannelSpec, FmConfig, receive_points

__all__ = [
    "FdmaPlan",
    "SensorResult",
    "assign_channels",
    "receive_clusters",
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


def receive_clusters(
    mapping: MappingConfig,
    plan: FdmaPlan,
    fm: FmConfig,
    points: list[tuple[ChannelSpec, list[tuple[float, float]]]],
    antennas: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cluster head at each (ch, truths) point: encoded voltages, band peaks and read-backs.

    truths holds one (x1, x2) pair per band of the plan, in band order, all
    encoded with one mapping.  Sensor i's tone is at
    plan.offsets[i] + fm.scale * vd Hz, the tones are summed in band order,
    and every point goes to one ``receive_points`` call with one band per
    sensor.  Returns (vds, peaks, vd_hats), each a (points, bands) array:
    the encoded voltages, each band's peak in Hz and its read-back
    (peak - offset) / fm.scale volts.
    """
    width = fm.scale * mapping.d_max
    if width > plan.band_width_hz + 1e-9:
        raise ValueError(
            f"a sensor occupies {width} Hz, wider than its {plan.band_width_hz} Hz band"
        )
    top = max(plan.offsets) + width
    if top >= fm.sample_rate / 2:
        raise ValueError(f"band tops out at {top} Hz, beyond Nyquist")
    # a plan has at least one band, so this also rejects an empty truths list
    if any(len(truths) != len(plan.offsets) for _, truths in points):
        raise ValueError("plan and truths must have matching lengths")
    offsets = np.array(plan.offsets)
    pairs = np.reshape([truths for _, truths in points], (len(points), len(offsets), 2))
    vds = encode(mapping, pairs[..., 0], pairs[..., 1])
    tones = offsets + fm.scale * vds
    bands = [plan.band(i) for i in range(len(offsets))]
    calls = [(ch, freqs, bands) for (ch, _), freqs in zip(points, tones.tolist())]
    peaks = np.reshape(receive_points(fm, calls, antennas), vds.shape)
    return vds, peaks, (peaks - offsets) / fm.scale


def simulate_cluster(
    mapping: MappingConfig,
    truths: list[tuple[float, float]],
    plan: FdmaPlan,
    fm: FmConfig,
    ch: ChannelSpec,
    antennas: int = 1,
) -> list[SensorResult]:
    """Capture all sensors jointly over channel ch and decode each from its own band.

    ``receive_clusters`` at the one point (ch, truths), then a decode per
    band; the results come back in band order.
    """
    (vds,), (peaks,), (vd_hats,) = receive_clusters(mapping, plan, fm, [(ch, truths)], antennas)
    return [
        SensorResult(vd_true, vd_hat, peak, decode(mapping, vd_hat))
        for vd_true, vd_hat, peak in zip(vds.tolist(), vd_hats.tolist(), peaks.tolist())
    ]
