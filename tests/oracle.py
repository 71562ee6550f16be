"""The explicit receiver chain that the library is checked against, and inputs that stress it.

The receiver is written out here step by step from ``capture`` and numpy
alone (one rfft per antenna, magnitudes, root-mean-square combine, argmax per
band), with no proof, shortcut or call into ``signal_chain.receive_points``,
so a test that compares ``receive_points``, ``transmit_receive``,
``receive_clusters``, the cluster demo or a sweep with it does not compare
the library with itself.  ``fdma_bands`` writes out the FDMA band
layout with numpy alone, and ``cluster_chain`` the cluster's tone placement
and read-back around it, one scalar ``encode`` per sensor.  ``unit_noise``
is the channel's noise convention written out from numpy alone.
``tone_bins`` is the closed-form spectrum of capture tones at absolute bins,
the library's kernel (``signal_chain._tone_sum``) times each bin's phase, so
the kernel is checked against the rfft of a synthesized record.
"""
import numpy as np

from ajscc.mapping import encode
from ajscc.signal_chain import PEAK_WINDOW, ChannelSpec, _bin_phase, _tone_sum, capture


def tone_bins(fm, freqs, bins):
    """rfft bins of the sum of the capture tones at freqs, in closed form, at absolute bins.

    For 0 <= freq < fs/2 and bins in [0, M/2] this equals np.fft.rfft of
    the synthesized samples up to rounding.
    """
    m = fm.num_samples
    halves = np.array([[*freqs, *(-freq for freq in freqs)]]) * m / fm.sample_rate
    bins = np.asarray(bins)
    return _tone_sum(m, halves, 0.0, bins)[0] * _bin_phase(m, bins)


def unit_noise(fm, rng_seed, antennas=1):
    """Each antenna's unit draw: standard normal samples from SeedSequence([rng_seed, a]).

    A channel ch of this seed adds noise_sigma(ch) times antenna a's draw.
    """
    return [
        np.random.default_rng(np.random.SeedSequence([rng_seed, a])).standard_normal(fm.num_samples)
        for a in range(antennas)
    ]


def band_peaks(fm, ch, freqs, bands, antennas=1):
    """Strongest bin of each (lo_hz, hi_hz) band of the combined capture spectrum, in Hz.

    None stands for a band whose bins are all zero, which has no strongest bin.
    """
    return record_peaks(fm, capture(fm, ch, freqs, antennas), bands)


def record_peaks(fm, records, bands):
    """``band_peaks`` of given records, one per antenna."""
    power = sum(np.abs(np.fft.rfft(y)) ** 2 for y in records) / len(records)
    combined = np.sqrt(power)
    bin_width = fm.sample_rate / fm.num_samples
    bin_hz = np.arange(combined.size) * bin_width
    tol = 1e-9 * bin_width
    peaks = []
    for lo_hz, hi_hz in bands:
        inside = np.flatnonzero((bin_hz >= lo_hz - tol) & (bin_hz <= hi_hz + tol))
        best = int(inside[np.argmax(combined[inside])])
        peaks.append(best * bin_width if combined[best] > 0 else None)
    return peaks


def fdma_bands(count, fm, d_max, guard_hz):
    """count (lo_hz, hi_hz) bands, each fm.scale * d_max Hz wide, guard_hz apart and above DC."""
    width = fm.scale * d_max
    offsets = guard_hz + np.arange(count) * (width + guard_hz)
    return [(lo, lo + width) for lo in offsets.tolist()]


def cluster_chain(mapping, truths, fm, ch, antennas=1, guard_hz=1000.0):
    """Per sensor, in band order: the encoded voltage, its band's peak (Hz) and its read-back.

    Sensor i has band i of ``fdma_bands`` for the mapping's d_max; its tone
    is at offset_i + fm.scale * vd Hz, and its peak reads back as
    (peak - offset_i) / fm.scale volts.
    """
    bands = fdma_bands(len(truths), fm, mapping.d_max, guard_hz)
    vds = [encode(mapping, x1, x2) for x1, x2 in truths]
    freqs = [lo + fm.scale * vd for (lo, _), vd in zip(bands, vds)]
    peaks = band_peaks(fm, ch, freqs, bands, antennas)
    return [(vd, peak, (peak - lo) / fm.scale) for (lo, _), vd, peak in zip(bands, vds, peaks)]


def chain_voltage(fm, ch, vd):
    """One tone at fm.scale * vd Hz, the strongest bin of the whole spectrum, back to volts."""
    (peak,) = band_peaks(fm, ch, [fm.scale * vd], [(0.0, fm.sample_rate / 2)])
    return peak / fm.scale


def tie_frequency(fm, c):
    """The tone frequency (Hz) at which rfft bins c and c + 1 are equally strong.

    Bisection on the closed-form bin magnitudes between c + 1/4 and c + 3/4
    bins; the tone's image moves the tie off the exact half bin.
    """
    bin_width = fm.sample_rate / fm.num_samples
    lo, hi = (c + 0.25) * bin_width, (c + 0.75) * bin_width
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        a, b = np.abs(tone_bins(fm, [mid], np.array([c, c + 1])))
        if a > b:
            lo = mid
        else:
            hi = mid


def leak_pinned_noise(fm, freqs, unit, sigma, pin):
    """Unit-variance noise records with one bin pinned where only the tones' leak decides.

    unit holds one noise record per antenna.  Bin j is the first past the
    +-PEAK_WINDOW window of the highest tone.  On every antenna its noise is
    set in phase with the tones' own bin j, t_j, so that the capture
    tones + sigma * record has bin j of magnitude R + pin * |t_j|, where R is
    the strongest combined bin of the unpinned capture from the lowest
    tone's window to the highest one's.  For 0 < pin < 1 bin j beats every
    bin of those windows although its noise alone stays below R.  None when
    bin j is not below Nyquist.
    """
    m = fm.num_samples
    centres = [round(f * m / fm.sample_rate) for f in freqs]
    j = max(centres) + PEAK_WINDOW + 1
    if j >= m // 2:
        return None
    (clean,) = capture(fm, ChannelSpec(), freqs)
    power = sum(np.abs(np.fft.rfft(clean + sigma * u)) ** 2 for u in unit) / len(unit)
    r = np.sqrt(power[max(min(centres) - PEAK_WINDOW, 0) : j]).max()
    t = np.fft.rfft(clean)[j]
    phase = t / abs(t) if abs(t) > 0 else 1.0
    value = phase * (r + (pin - 1.0) * abs(t)) / sigma
    # (2/M) Re(c exp(2 pi i j n / M)) adds exactly c to rfft bin j, 0 < j < M/2
    wave = np.exp(2j * np.pi * j / m * np.arange(m))
    return [u + 2.0 / m * np.real((value - np.fft.rfft(u)[j]) * wave) for u in unit]
