"""FDMA multiplexing of several sensors to one cluster-head receiver.

Each sensor's encoded voltage becomes its single-sensor tone (``chain_tone``)
shifted into its own disjoint frequency band.  The cluster head captures the
superposition over one shared channel on one or more antennas, seeded by the
channel's rng_seed like the single-sensor chain, optionally combines the
antenna spectra noncoherently, and runs a band-restricted peak search per
sensor.  Band disjointness makes noiseless recovery bit-identical to running
each sensor alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mapping import DecodedPair, MappingConfig, SourceSample, decode, encode
from .signal_chain import (
    ChannelSpec,
    FmConfig,
    ReceiverConfig,
    capture,
    chain_tone,
    magnitude_spectrum,
    peak_from_spectrum,
)

__all__ = [
    "SensorNode",
    "FdmaPlan",
    "SensorResult",
    "assign_channels",
    "diversity_combine",
    "simulate_cluster",
]


@dataclass(frozen=True)
class SensorNode:
    """One transmitter: codec config and its true sources."""

    id: int
    mapping: MappingConfig
    truth: SourceSample


@dataclass(frozen=True)
class FdmaPlan:
    """Per-sensor carrier offsets with a common band width and guard spacing."""

    offsets: tuple[float, ...]
    guard_hz: float
    band_width_hz: float

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ValueError("plan needs at least one band")
        if self.band_width_hz <= 0 or self.guard_hz < 0:
            raise ValueError("band_width_hz must be positive and guard_hz non-negative")
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
    if num_sensors * (width + guard_hz) > fm.sample_rate / 2:
        raise ValueError(
            f"{num_sensors} bands of {width} Hz with {guard_hz} Hz guards exceed "
            f"the {fm.sample_rate / 2} Hz Nyquist capacity"
        )
    offsets = tuple(guard_hz + i * (width + guard_hz) for i in range(num_sensors))
    return FdmaPlan(offsets=offsets, guard_hz=guard_hz, band_width_hz=width)


@dataclass(frozen=True)
class SensorResult:
    """Per-sensor receiver output: true and detected voltage, peak frequency, decoded pair."""

    sensor_id: int
    vd_true: float
    vd_hat: float
    peak_hz: float
    decoded: DecodedPair


def _validate_cluster(sensors, plan: FdmaPlan, fm: FmConfig) -> None:
    if not sensors:
        raise ValueError("need at least one sensor")
    if len({s.id for s in sensors}) != len(sensors):
        raise ValueError("sensor ids must be unique")
    if len(plan.offsets) != len(sensors):
        raise ValueError("plan and sensors must have matching lengths")
    for i, s in enumerate(sensors):
        width = fm.scale * s.mapping.d_max
        if width > plan.band_width_hz + 1e-9:
            raise ValueError(
                f"sensor {s.id} occupies {width} Hz, wider than its "
                f"{plan.band_width_hz} Hz band"
            )
        top = plan.offsets[i] + width
        if top >= fm.sample_rate / 2:
            raise ValueError(
                f"sensor {s.id} band tops out at {top} Hz, beyond Nyquist"
            )


def diversity_combine(spectra: list[np.ndarray]) -> np.ndarray:
    """Noncoherent combining: root of the element-wise mean of squared magnitudes."""
    if not spectra:
        raise ValueError("need at least one spectrum")
    arrays = [np.asarray(s, dtype=float) for s in spectra]
    if len({a.size for a in arrays}) > 1:
        raise ValueError("spectra must have equal lengths")
    return np.sqrt(np.mean(np.square(arrays), axis=0))


def simulate_cluster(
    sensors: list[SensorNode],
    plan: FdmaPlan,
    fm: FmConfig,
    ch: ChannelSpec,
    rx: ReceiverConfig,
    antennas: int = 1,
) -> list[SensorResult]:
    """Capture all sensors jointly over channel ch and decode each from its own band.

    Sensor i's tone is chain_tone(fm, ch, vd) moved up by plan.offsets[i].
    The tones are summed by sensor id, so the results do not depend on the
    order of the sensor list.
    """
    _validate_cluster(sensors, plan, fm)
    vds = [encode(s.mapping, s.truth.x1, s.truth.x2) for s in sensors]
    tones = []
    for i in sorted(range(len(sensors)), key=lambda i: sensors[i].id):
        freq, amplitude, phase = chain_tone(fm, ch, vds[i])
        tones.append((plan.offsets[i] + freq, amplitude, phase))
    spectra = [magnitude_spectrum(rx, y) for y in capture(fm, ch, tones, antennas)]
    combined = spectra[0] if len(spectra) == 1 else diversity_combine(spectra)

    results = []
    for i, (s, vd_true) in enumerate(zip(sensors, vds)):
        peak = peak_from_spectrum(combined, fm.sample_rate, rx.fft_size, band=plan.band(i))
        vd_hat = (peak - plan.offsets[i]) / fm.scale
        results.append(
            SensorResult(
                sensor_id=s.id,
                vd_true=vd_true,
                vd_hat=vd_hat,
                peak_hz=peak,
                decoded=decode(s.mapping, vd_hat),
            )
        )
    return results
