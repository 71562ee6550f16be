"""Metric tests: the SDR mapping."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.metrics import SDR_CAP_DB, sdr


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
