"""FDMA multiplexing of several sensors to one cluster-head receiver.

A sensor carries no identity of its own: the cluster head tells sensors apart
only by their FDMA band, so sensor i is the one in band i.  The layout is
worked out, never passed in: ``assign_channels`` puts the bands, each as
wide as the codec's range times the FM scale, side by side with guard_hz
between them and below the first, and rejects a layout whose top band
would reach Nyquist.  Each sensor's encoded voltage vd becomes a tone at
offset + fm.scale * vd Hz, its single-sensor frequency shifted into its
band.  ``receive_clusters`` is the one cluster link: given one channel per
point and a (points, sensors, 2) array of (x1, x2) truths, it encodes every
sensor of every point in one array call, places the tones, a
(points, sensors) array, and makes one ``signal_chain.receive_points`` call
with the one band list, which captures each point's superposition over its
channel on one or more antennas, seeded by the channel's rng_seed like the
single-sensor chain, and returns the strongest bin of each sensor's band in
the antennas' noncoherently combined spectrum as a (points, sensors) array.
Voltage is read back as (peak - offset) / fm.scale.  Band disjointness makes
noiseless recovery bit-identical to running each sensor alone.

``receive_points`` proves each band's peak from the tones' closed-form bins
and captures only when a band is left open, so the cluster needs no fast
path of its own.  The SDR sweep in ``experiments`` passes one point per
(trial, SNR) of a worker chunk to one ``receive_clusters`` call, and the
cluster demo its one point; each decodes the read-backs in one array call.
"""
from __future__ import annotations

import math

import numpy as np

from .mapping import MappingConfig, encode
from .signal_chain import ChannelSpec, FmConfig, receive_points

__all__ = [
    "assign_channels",
    "receive_clusters",
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


def receive_clusters(
    mapping: MappingConfig,
    fm: FmConfig,
    channels: list[ChannelSpec],
    truths,
    antennas: int,
    guard_hz: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cluster head at each point: encoded voltages, band peaks and read-backs.

    truths is a (points, sensors, 2) array of (x1, x2) volts, each point's
    sensors in band order, all encoded with one mapping; channels holds one
    ChannelSpec per point.  The bands are ``assign_channels`` of the sensor
    count truths.shape[1], the mapping's d_max and guard_hz.  Sensor i's
    tone is at offset_i + fm.scale * vd Hz, and one ``receive_points`` call
    takes the channels, the (points, sensors) tone array and the bands.
    Returns (vds, peaks, vd_hats), each a (points, bands) array: the encoded
    voltages, each band's peak in Hz and its read-back
    (peak - offset) / fm.scale volts.  A truths array of another rank or
    last axis is rejected, naming its shape.
    """
    truths = np.asarray(truths, dtype=float)
    if truths.ndim != 3 or truths.shape[2] != 2:
        raise ValueError(f"truths must be a (points, sensors, 2) array, got shape {truths.shape}")
    bands = assign_channels(truths.shape[1], fm, mapping.d_max, guard_hz)
    offsets = np.array([lo for lo, _ in bands])
    vds = encode(mapping, truths[..., 0], truths[..., 1])
    peaks = receive_points(fm, channels, offsets + fm.scale * vds, bands, antennas)
    return vds, peaks, (peaks - offsets) / fm.scale
