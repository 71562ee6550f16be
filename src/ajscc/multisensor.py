"""FDMA multiplexing of several sensors to one cluster-head receiver.

A sensor carries no identity of its own: the cluster head tells sensors apart
only by their FDMA band, so sensor i is the one in band i.  The layout is
worked out, never passed in: ``assign_channels`` puts the bands, each as
wide as the codec's range times the FM scale, side by side with guard_hz
between them and below the first, and rejects a layout whose top band
would reach Nyquist.  Each sensor's encoded voltage vd becomes a tone at
offset + fm.scale * vd Hz, its single-sensor frequency shifted into its
band.  ``receive_clusters`` is the one cluster link: at each
(channel, truths) point it encodes every sensor and places the tones, a
(points, sensors) array, and makes one ``signal_chain.receive_points`` call
with the one band list, which captures each point's superposition over its
channel on one or more antennas, seeded by the channel's rng_seed like the
single-sensor chain, and returns the strongest bin of each sensor's band in
the antennas' noncoherently combined spectrum as a (points, sensors) array.
Voltage is read back as (peak - offset) / fm.scale.  Band disjointness makes
noiseless recovery bit-identical to running each sensor alone.

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
    "SensorResult",
    "assign_channels",
    "receive_clusters",
    "simulate_cluster",
]


def assign_channels(
    num_sensors: int, fm: FmConfig, d_max: float, guard_hz: float
) -> list[tuple[float, float]]:
    """The FDMA layout: num_sensors contiguous (lo, hi) bands, the lowest starting at guard_hz.

    Every band is fm.scale * d_max Hz wide, the span of a codec of range
    d_max, and band i starts at guard_hz + i * (width + guard_hz), so
    neighbouring bands are guard_hz apart and none reaches below DC.  No
    sensor, a guard that is negative or not finite, a d_max that is not
    positive and a top band that would reach Nyquist are rejected.
    """
    if num_sensors < 1:
        raise ValueError("num_sensors must be >= 1")
    if not 0 <= guard_hz < math.inf:
        raise ValueError(f"guard_hz must be finite and >= 0, got {guard_hz}")
    # an infinite width fails the capacity check below
    if not d_max > 0:
        raise ValueError(f"d_max must be positive, got {d_max}")
    width = fm.scale * d_max
    # the top band must end below Nyquist, where receive_points can search it
    if num_sensors * (width + guard_hz) >= fm.sample_rate / 2:
        raise ValueError(
            f"{num_sensors} bands of {width} Hz with {guard_hz} Hz guards exceed "
            f"the {fm.sample_rate / 2} Hz Nyquist capacity"
        )
    offsets = [guard_hz + i * (width + guard_hz) for i in range(num_sensors)]
    return [(lo, lo + width) for lo in offsets]


@dataclass(frozen=True)
class SensorResult:
    """One band's receiver output: true and detected voltage, peak frequency, decoded pair."""

    vd_true: float
    vd_hat: float
    peak_hz: float
    decoded: DecodedPair


def receive_clusters(
    mapping: MappingConfig,
    fm: FmConfig,
    points: list[tuple[ChannelSpec, list[tuple[float, float]]]],
    antennas: int,
    guard_hz: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cluster head at each (ch, truths) point: encoded voltages, band peaks and read-backs.

    truths holds one (x1, x2) pair per sensor, in band order, all encoded
    with one mapping; every point holds the same number of sensors, at
    least one.  The bands are ``assign_channels`` of that number, the
    mapping's d_max and guard_hz.  Sensor i's tone is at
    offset_i + fm.scale * vd Hz, the tones are summed in band order, and
    one ``receive_points`` call takes every point's channel, the
    (points, sensors) tone array and the bands.  Returns (vds, peaks,
    vd_hats), each a (points, bands) array: the encoded voltages, each
    band's peak in Hz and its read-back (peak - offset) / fm.scale volts.
    """
    counts = {len(truths) for _, truths in points}
    if len(counts) != 1:
        raise ValueError(f"every point needs the same number of truths, got {sorted(counts)}")
    bands = assign_channels(*counts, fm, mapping.d_max, guard_hz)
    offsets = np.array([lo for lo, _ in bands])
    pairs = np.reshape([truths for _, truths in points], (len(points), len(bands), 2))
    vds = encode(mapping, pairs[..., 0], pairs[..., 1])
    peaks = receive_points(fm, [ch for ch, _ in points], offsets + fm.scale * vds, bands, antennas)
    return vds, peaks, (peaks - offsets) / fm.scale


def simulate_cluster(
    mapping: MappingConfig,
    truths: list[tuple[float, float]],
    fm: FmConfig,
    ch: ChannelSpec,
    antennas: int = 1,
    guard_hz: float = 1000.0,
) -> list[SensorResult]:
    """Capture all sensors jointly over channel ch and decode each from its own band.

    ``receive_clusters`` at the one point (ch, truths), then a decode per
    band; the results come back in band order.
    """
    (vds,), (peaks,), (vd_hats,) = receive_clusters(mapping, fm, [(ch, truths)], antennas, guard_hz)
    return [
        SensorResult(vd_true, vd_hat, peak, decode(mapping, vd_hat))
        for vd_true, vd_hat, peak in zip(vds.tolist(), vd_hats.tolist(), peaks.tolist())
    ]
