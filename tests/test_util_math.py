"""Unit tests for the epsilon-guarded arithmetic in repro.util.math."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.math import (
    EPS,
    MAX_JOB_COUNT,
    ceil_div,
    fceil,
    ffloor,
    floor_div,
    fmod_pos,
    is_close,
    is_integer_multiple,
    phase_in_period,
    safe_div,
)


class TestFceilFfloor:
    def test_exact_integer(self):
        assert fceil(3.0) == 3
        assert ffloor(3.0) == 3

    def test_plain_values(self):
        assert fceil(3.2) == 4
        assert ffloor(3.8) == 3

    def test_negative_values(self):
        assert fceil(-1.5) == -1
        assert ffloor(-1.5) == -2

    def test_noise_below_integer_snaps_up(self):
        assert fceil(3.0 - 1e-12) == 3

    def test_noise_above_integer_snaps_down(self):
        assert ffloor(3.0 + 1e-12) == 3

    def test_noise_beyond_eps_not_snapped(self):
        assert fceil(3.0 + 1e-6) == 4
        assert ffloor(3.0 - 1e-6) == 2

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_integers_fixed(self, n):
        assert fceil(float(n)) == n
        assert ffloor(float(n)) == n

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_bracketing(self, x):
        assert ffloor(x) <= x + EPS
        assert fceil(x) >= x - EPS
        assert fceil(x) - ffloor(x) in (0, 1)


class TestDivisions:
    def test_ceil_div_exact_multiple(self):
        # The bug class this module exists to prevent.
        assert ceil_div(0.1 + 0.1 + 0.1, 0.1) == 3

    def test_floor_div_exact_multiple(self):
        assert floor_div(0.1 + 0.1 + 0.1, 0.1) == 3

    def test_ceil_div_non_multiple(self):
        assert ceil_div(7.0, 2.0) == 4

    def test_negative_numerator(self):
        assert ceil_div(-0.5, 50.0) == 0
        assert floor_div(-0.5, 50.0) == -1

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_denominator(self, bad):
        with pytest.raises(ValueError):
            ceil_div(1.0, bad)
        with pytest.raises(ValueError):
            floor_div(1.0, bad)


class TestFmodPos:
    def test_basic(self):
        assert fmod_pos(7.0, 5.0) == 2.0

    def test_negative_argument(self):
        assert fmod_pos(-3.0, 5.0) == 2.0

    def test_exact_multiple_is_zero(self):
        assert fmod_pos(10.0, 5.0) == 0.0
        assert fmod_pos(-10.0, 5.0) == 0.0

    def test_float_noise_multiple_is_zero(self):
        assert fmod_pos(0.30000000000000004, 0.1) == 0.0

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            fmod_pos(1.0, 0.0)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_range(self, x, period):
        r = fmod_pos(x, period)
        assert 0.0 <= r < period


class TestPhaseInPeriod:
    def test_zero_maps_to_full_period(self):
        # Paper convention pinned by Table 3: exact multiples give T.
        assert phase_in_period(0.0, 50.0) == 50.0

    def test_multiple_maps_to_full_period(self):
        assert phase_in_period(100.0, 50.0) == 50.0

    def test_interior_value(self):
        # phi = T - (x mod T): 50 - 19 = 31 (the tau_1_4 case of Table 3).
        assert phase_in_period(19.0, 50.0) == 31.0

    def test_negative_argument(self):
        # 50 - ((-5) mod 50) = 50 - 45 = 5.
        assert phase_in_period(-5.0, 50.0) == 5.0

    @given(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    )
    def test_half_open_range(self, x, period):
        ph = phase_in_period(x, period)
        assert 0.0 < ph <= period


class TestMaxJobCount:
    def test_largest_count_the_snap_resolves(self):
        """At ``MAX_JOB_COUNT`` a count's float spacing is still within
        EPS; at twice it, the spacing has outgrown the snap."""
        assert math.ulp(MAX_JOB_COUNT) <= EPS < math.ulp(2 * MAX_JOB_COUNT)
        assert MAX_JOB_COUNT == pytest.approx(4.5e6, rel=0.01)


class TestMisc:
    def test_is_close(self):
        assert is_close(1.0, 1.0 + EPS / 2)
        assert not is_close(1.0, 1.0 + 1e-3)

    def test_is_integer_multiple(self):
        assert is_integer_multiple(15.0, 5.0)
        assert not is_integer_multiple(16.0, 5.0)
        with pytest.raises(ValueError):
            is_integer_multiple(1.0, 0.0)

    def test_safe_div(self):
        assert safe_div(6.0, 3.0) == 2.0
        with pytest.raises(ZeroDivisionError, match="the rate"):
            safe_div(1.0, 0.0, what="the rate")

    def test_fceil_huge_value(self):
        assert fceil(1e15 + 0.4) >= 10**15

    def test_nan_propagates_as_error(self):
        with pytest.raises((ValueError, OverflowError)):
            fceil(math.nan)
