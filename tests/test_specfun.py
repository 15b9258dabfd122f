import math
import numbers
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyaprod.specfun import (EULER_GAMMA, PI2_OVER_6, _check_int, _check_real, digamma,
                             harmonic, trigamma)

mpmath.mp.dps = 30


def mp_digamma(x):
    return float(mpmath.digamma(x))


def mp_trigamma(x):
    return float(mpmath.polygamma(1, x))


class TestSpecialValues:
    def test_digamma_at_one_is_minus_euler(self):
        # oracle: psi(1) = -gamma, gamma = lim (H_n - ln n); frozen via mpmath
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-13)

    def test_digamma_at_half_duplication_formula(self):
        # duplication formula: psi(1/2) = -gamma - 2 ln 2
        expected = -EULER_GAMMA - 2.0 * math.log(2.0)
        assert digamma(0.5) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(-1.9635100260214235, abs=1e-15)

    def test_digamma_at_two_recurrence(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)

    def test_trigamma_at_one_is_zeta_two(self):
        assert trigamma(1.0) == pytest.approx(PI2_OVER_6, abs=1e-12)
        assert PI2_OVER_6 == pytest.approx(math.pi**2 / 6.0, abs=1e-15)

    def test_trigamma_at_two_recurrence(self):
        assert trigamma(2.0) == pytest.approx(PI2_OVER_6 - 1.0, abs=1e-12)

    def test_trigamma_at_half_duplication_formula(self):
        # duplication formula: psi'(1/2) = pi^2/2
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)


class TestAgainstHighPrecision:
    def test_digamma_absolute_error(self):
        rng = np.random.default_rng(2024)
        for x in rng.uniform(1e-3, 50.0, size=400):
            assert abs(digamma(x) - mp_digamma(x)) <= 1e-13

    def test_trigamma_absolute_error(self):
        rng = np.random.default_rng(2025)
        for x in rng.uniform(1e-3, 50.0, size=400):
            assert abs(trigamma(x) - mp_trigamma(x)) <= 1e-12


class TestRecurrences:
    def test_digamma_recurrence_bulk(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(1e-6, 50.0, size=10_000)
        worst = max(abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) for x in xs)
        assert worst <= 1e-13

    def test_trigamma_recurrence_bulk(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(1e-3, 50.0, size=10_000)
        worst = max(abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / x**2) for x in xs)
        assert worst <= 1e-12

    @given(st.floats(min_value=1e-2, max_value=50.0, allow_nan=False))
    @settings(deadline=None, max_examples=200)
    def test_digamma_recurrence_property(self, x):
        # below x ~ 2e-4 the residual is limited by the double spacing of 1/x
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-13

    def test_digamma_at_integers_harmonic(self):
        for m in range(1, 31):
            expected = -EULER_GAMMA + harmonic(m - 1, 1)
            assert abs(digamma(float(m)) - expected) <= 1e-12

    def test_trigamma_at_integers_harmonic(self):
        for m in range(1, 31):
            expected = PI2_OVER_6 - harmonic(m - 1, 2)
            assert abs(trigamma(float(m)) - expected) <= 1e-12


class TestHarmonic:
    def test_empty_sum(self):
        assert harmonic(0, 1) == 0.0
        assert harmonic(0, 2) == 0.0

    def test_small_values(self):
        assert harmonic(3, 1) == pytest.approx(11.0 / 6.0, abs=1e-15)
        assert harmonic(2, 2) == pytest.approx(5.0 / 4.0, abs=1e-15)
        assert harmonic(1, 1) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            harmonic(-1, 1)
        with pytest.raises(ValueError):
            harmonic(3, 3)

    @pytest.mark.parametrize("bad", [2.7, 2.0, True], ids=["float", "integral-float", "bool"])
    def test_rejects_non_integer_m(self, bad):
        # m is a count: it is refused, not truncated (2.7 would give H_2)
        with pytest.raises(ValueError, match="m must be an integer"):
            harmonic(bad)

    @pytest.mark.parametrize("bad", [True, 1.0, 2.0], ids=["bool", "one-float", "two-float"])
    def test_rejects_non_integer_order(self, bad):
        # order follows the integer rule (True gave H_m, 2.0 gave H_m^(2))
        with pytest.raises(ValueError, match="order must be an integer"):
            harmonic(3, bad)


class TestDomainErrors:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_digamma_rejects(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
    def test_trigamma_rejects(self, bad):
        with pytest.raises(ValueError):
            trigamma(bad)

    @pytest.mark.parametrize("bad", ["2", b"2", True], ids=["str", "bytes", "bool"])
    @pytest.mark.parametrize("fn", [digamma, trigamma], ids=["digamma", "trigamma"])
    def test_rejects_non_numbers(self, fn, bad):
        with pytest.raises(ValueError, match=f"{fn.__name__} must be a number"):
            fn(bad)

    @pytest.mark.parametrize("fn", [digamma, trigamma], ids=["digamma", "trigamma"])
    def test_accepts_numpy_scalars(self, fn):
        assert fn(np.float32(2)) == fn(np.int64(2)) == fn(2.0)


class _IntSubclass(int):
    pass


def _abc_check_int(name, value, low=None):
    # the ABC-only form of _check_int, without its fast path
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _abc_check_real(name, value):
    # the ABC-only form of _check_real, without its fast path
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _outcome(check, *args):
    """What a check does with ``args``: the type and repr of the value it
    returns (repr, so NaN compares equal), or the message it raises."""
    try:
        value = check(*args)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), repr(value)


class TestCheckFastPaths:
    """The exact-type fast paths of _check_int and _check_real accept,
    convert and refuse exactly what the ABC tests alone do."""

    INPUTS = [3, np.int64(3), True, False, 2.5, np.float64(2.5), np.float32(2.5),
              Fraction(1, 2), "2", b"2", None, math.nan, _IntSubclass(3)]
    IDS = ["int", "int64", "true", "false", "float", "float64", "float32", "fraction",
           "str", "bytes", "none", "nan", "int-subclass"]

    @pytest.mark.parametrize("low", [None, 0, 4], ids=["no-low", "low-0", "low-4"])
    @pytest.mark.parametrize("value", INPUTS, ids=IDS)
    def test_check_int(self, value, low):
        assert _outcome(_check_int, "x", value, low) == _outcome(_abc_check_int, "x", value, low)

    @pytest.mark.parametrize("value", INPUTS, ids=IDS)
    def test_check_real(self, value):
        assert _outcome(_check_real, "x", value) == _outcome(_abc_check_real, "x", value)
