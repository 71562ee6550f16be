"""The explicit receiver chain that fast paths are checked against, and inputs that stress them.

``chain_voltage`` writes the single-sensor chain out step by step (capture,
magnitude spectrum, strongest bin) with no proof or shortcut, so a test that
compares ``transmit_receive`` or a sweep with it does not compare a fast path
with itself.
"""
import numpy as np

from ajscc.signal_chain import capture, magnitude_spectrum, peak_from_spectrum, tone_bins


def chain_voltage(fm, ch, vd):
    """capture -> magnitude_spectrum -> peak_from_spectrum, back to volts."""
    (samples,) = capture(fm, ch, [fm.scale * vd])
    spectrum = magnitude_spectrum(fm, samples)
    return peak_from_spectrum(spectrum, fm.sample_rate, fm.num_samples) / fm.scale


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
        a, b = np.abs(tone_bins(fm, mid, np.array([c, c + 1])))
        if a > b:
            lo = mid
        else:
            hi = mid
