"""Metric tests: SDR mapping, CSNR estimator sanity bands."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.metrics import SDR_CAP_DB, estimate_csnr, sdr
from ajscc.signal_chain import FmConfig, ReceiverConfig, fm_modulate, magnitude_spectrum


class TestSdr:
    def test_known_values(self):
        assert sdr(1e-3) == pytest.approx(30.0)
        assert sdr(1.0) == pytest.approx(0.0)
        assert sdr(3e-4) == pytest.approx(35.23, abs=0.005)

    def test_zero_error_hits_cap(self):
        assert sdr(0.0) == SDR_CAP_DB

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sdr(-1e-6)
        with pytest.raises(ValueError):
            sdr(math.nan)

    @given(st.floats(1e-12, 1e6), st.floats(1.0001, 10.0))
    @settings(max_examples=200)
    def test_strictly_decreasing_property(self, m, factor):
        assert sdr(m * factor) < sdr(m)


class TestCsnrEstimate:
    def test_pure_tone_reads_high(self):
        spectrum = magnitude_spectrum(ReceiverConfig(), fm_modulate(FmConfig(), 2.5))
        got = estimate_csnr(spectrum, int(np.argmax(spectrum)))
        assert got > 30.0

    def test_noise_only_reads_low_and_deterministic(self):
        rng = np.random.default_rng(17)
        spectrum = np.abs(np.fft.rfft(rng.normal(0.0, 1.0, 65536)))
        peak = int(np.argmax(spectrum))
        got = estimate_csnr(spectrum, peak)
        # white-noise sanity band from repeated seeded runs
        assert -40.0 < got < 0.0
        assert got == estimate_csnr(spectrum, peak)

    def test_all_zero_spectrum(self):
        assert estimate_csnr(np.zeros(16), 3) == -SDR_CAP_DB

    def test_bad_peak_bin_rejected(self):
        with pytest.raises(ValueError):
            estimate_csnr(np.ones(16), 16)
