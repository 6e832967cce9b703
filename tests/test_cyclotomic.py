"""Exact cyclotomic arithmetic against closed forms, float evaluation and
the dense long-division routine the sparse product replaced."""

import cmath
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring.chartable import CharacterTable
from fusionring.cyclotomic import Cyclotomic, cyclotomic_polynomial

from conftest import value_or_error


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    # phi(21) = 12
    assert len(cyclotomic_polynomial(21)) == 13


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod_exact(num, den):
    """Division by a monic integer polynomial; exact over Z."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    while len(_poly_trim(num)) >= len(den):
        shift = len(num) - len(den)
        coef = num[-1]
        q[shift] += coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
        num = _poly_trim(num)
    return _poly_trim(q), num


@lru_cache(maxsize=None)
def reference_cyclotomic_polynomial(n):
    """x^n - 1 divided by the product of Phi_d over the proper divisors d."""
    if n == 1:
        return (-1, 1)
    num = [0] * n + [1]
    num[0] = -1  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, reference_cyclotomic_polynomial(d))
    q, r = _poly_divmod_exact(num, den)
    assert not r
    return tuple(q)


def test_cyclotomic_polynomials_match_long_division():
    for n in range(1, 501):
        assert cyclotomic_polynomial(n) == reference_cyclotomic_polynomial(n), n


def test_zeta_relations():
    w = Cyclotomic.zeta_power(3, 1)
    assert w * w == Cyclotomic.zeta_power(3, 2)
    assert w * w * w == 1
    assert w + w * w == -1  # 1 + w + w^2 = 0
    z = Cyclotomic.zeta_power(21, 1)
    total = Cyclotomic.integer(21, 0)
    p = Cyclotomic.integer(21, 1)
    for _ in range(21):
        total = total + p
        p = p * z
    assert total == 0  # geometric sum of all 21st roots


def test_conjugation():
    z = Cyclotomic.zeta_power(7, 2)
    assert z.conj() == Cyclotomic.zeta_power(7, 5)
    assert z.conj().conj() == z
    alpha = (
        Cyclotomic.zeta_power(7, 1)
        + Cyclotomic.zeta_power(7, 2)
        + Cyclotomic.zeta_power(7, 4)
    )
    # alpha * conj(alpha) = 2, alpha + conj(alpha) = -1 (Gauss sum)
    assert alpha * alpha.conj() == 2
    assert alpha + alpha.conj() == -1


def test_integer_detection():
    w = Cyclotomic.zeta_power(3, 1)
    s = Cyclotomic.integer(3, 1) + w + w * w
    assert s.is_integer() and s.integer_value() == 0
    assert not w.is_integer()


W = Cyclotomic.zeta_power(3, 1)


@pytest.mark.parametrize("thunk,expected", [
    pytest.param(lambda: W * W - W, Cyclotomic(3, [-1, -2]), id="sub"),
    pytest.param(lambda: ((W - W).is_zero(), W.is_zero()), (True, False), id="is_zero"),
    pytest.param(lambda: W == "z", False, id="eq-non-cyclotomic"),
    pytest.param(lambda: len({W, Cyclotomic.zeta_power(3, 4), W * W}), 2, id="hash"),
    pytest.param(lambda: repr(W - W), "0", id="repr-zero"),
    pytest.param(lambda: repr(Cyclotomic.integer(5, -4)), "-4", id="repr-integer"),
    pytest.param(lambda: repr(Cyclotomic(7, [0, 1, 0, -1, 3, -2])), "z-z^3+3*z^4-2*z^5", id="repr"),
    pytest.param(lambda: W.integer_value(), (ValueError, "z is not a rational integer"), id="integer_value-of-z"),
    pytest.param(lambda: W + Cyclotomic.integer(4, 1), (ValueError, "mixed conductors"), id="mixed-conductors"),
    pytest.param(lambda: Cyclotomic(0, [1]), (ValueError, "conductor must be positive"), id="conductor-0"),
    pytest.param(lambda: cyclotomic_polynomial(0), (ValueError, "n must be positive"), id="phi-0"),
    # exactly int: a bool or a float conductor is refused, not read as 1 or 2
    pytest.param(lambda: cyclotomic_polynomial(True), (ValueError, "n must be positive"), id="phi-True"),
    pytest.param(lambda: cyclotomic_polynomial(2.0), (ValueError, "n must be positive"), id="phi-2.0"),
    pytest.param(lambda: cyclotomic_polynomial("3"), (ValueError, "n must be positive"), id="phi-str"),
    pytest.param(lambda: Cyclotomic.zeta_power(True, 0), (ValueError, "conductor must be positive"), id="zeta-True"),
    pytest.param(lambda: Cyclotomic.zeta_power(3.0, 1), (ValueError, "conductor must be positive"), id="zeta-3.0"),
    pytest.param(lambda: Cyclotomic.zeta_power("3", 1), (ValueError, "conductor must be positive"), id="zeta-str"),
    pytest.param(lambda: Cyclotomic.zeta_power(0, 1), (ValueError, "conductor must be positive"), id="zeta-0"),
    pytest.param(lambda: Cyclotomic.integer(True, 5), (ValueError, "conductor must be positive"), id="integer-True"),
    pytest.param(lambda: Cyclotomic.integer(2.0, 5), (ValueError, "conductor must be positive"), id="integer-2.0"),
    pytest.param(lambda: Cyclotomic("3", [1]), (ValueError, "conductor must be positive"), id="conductor-str"),
    # exactly int coefficients and exponents too: no float is held, and no bool read as 0 or 1
    pytest.param(lambda: Cyclotomic(3, [1.5]), (ValueError, "coefficient 1.5 is not an integer"), id="coeff-1.5"),
    pytest.param(lambda: Cyclotomic(3, [0.0]), (ValueError, "coefficient 0.0 is not an integer"), id="coeff-0.0"),
    pytest.param(lambda: Cyclotomic(3, [True]), (ValueError, "coefficient True is not an integer"), id="coeff-True"),
    pytest.param(lambda: Cyclotomic(3, [1, 2.0]), (ValueError, "coefficient 2.0 is not an integer"), id="coeff-2nd"),
    pytest.param(lambda: Cyclotomic.integer(3, 2.0), (ValueError, "coefficient 2.0 is not an integer"), id="int-2.0"),
    pytest.param(lambda: Cyclotomic.zeta_power(3, 1.5), (ValueError, "exponent 1.5 is not an integer"), id="exp-1.5"),
    pytest.param(lambda: Cyclotomic.zeta_power(3, True), (ValueError, "exponent True is not an integer"), id="exp-T"),
    pytest.param(lambda: CharacterTable("G", 1, (1,), ((Cyclotomic.integer(1, 1.0),),), (0,)),
                 (ValueError, "coefficient 1.0 is not an integer"), id="table-float-degree"),
])
def test_cyclotomic_value_protocol(thunk, expected):
    assert value_or_error(thunk) == expected


@pytest.mark.parametrize("thunk,message", [
    pytest.param(lambda: W + 1, "unsupported operand type(s) for +: 'Cyclotomic' and 'int'", id="add-int"),
    pytest.param(lambda: W - 1, "unsupported operand type(s) for -: 'Cyclotomic' and 'int'", id="sub-int"),
    pytest.param(lambda: 1 - W, "unsupported operand type(s) for -: 'int' and 'Cyclotomic'", id="int-sub"),
    pytest.param(lambda: W * 1.5, "unsupported operand type(s) for *: 'Cyclotomic' and 'float'", id="mul-float"),
    pytest.param(lambda: 1.5 * W, "unsupported operand type(s) for *: 'float' and 'Cyclotomic'", id="float-mul"),
    pytest.param(lambda: W * "a", "can't multiply sequence by non-int of type 'Cyclotomic'", id="mul-str"),
])
def test_an_operand_that_is_no_cyclotomic_is_a_type_error(thunk, message):
    # each operator returns NotImplemented, so Python words the refusal; an int still scales
    assert value_or_error(thunk) == (TypeError, message)
    assert W * 2 == 2 * W == Cyclotomic(3, [0, 2])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=24),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=24),
)
def test_arithmetic_matches_float_evaluation(n, coeffs_a, coeffs_b):
    a = Cyclotomic(n, coeffs_a)
    b = Cyclotomic(n, coeffs_b)

    def ev(x):
        zeta = cmath.exp(2j * cmath.pi / n)
        return sum(c * zeta**k for k, c in enumerate(x.coeffs))

    assert abs(ev(a + b) - (ev(a) + ev(b))) < 1e-7
    assert abs(ev(a * b) - (ev(a) * ev(b))) < 1e-6
    assert abs(ev(a.conj()) - ev(a).conjugate()) < 1e-7


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=24),
    st.integers(min_value=-30, max_value=30),
)
def test_galois_maps_match_float_evaluation(n, coeffs, a):
    # sigma_a sends zeta to zeta^a, for each a prime to n; an a that shares a factor with n is refused
    if math.gcd(a, n) != 1:
        with pytest.raises(ValueError):
            Cyclotomic(n, coeffs).galois(a)
        return
    x, zeta = Cyclotomic(n, coeffs), cmath.exp(2j * cmath.pi / n)
    image = sum(c * zeta ** (a * k) for k, c in enumerate(x.coeffs))
    assert abs(sum(c * zeta**k for k, c in enumerate(x.galois(a).coeffs)) - image) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=40))
def test_zeta_power_reduction_consistent(n, k):
    # zeta^k == zeta^(k mod n) after canonical reduction
    assert Cyclotomic.zeta_power(n, k) == Cyclotomic.zeta_power(n, k % n)
