"""Cyclotomic values and the tests' reference arithmetic on coefficient lists
against closed forms, float evaluation and the dense long-division routine the
sparse product replaced."""

import cmath
import math
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring.chartable import CharacterTable
from fusionring.cyclotomic import Cyclotomic, cyclotomic_polynomial

from conftest import value_or_error
from cyclo_reference import hermitian, lifted, times, zeta_sum


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
    w = Cyclotomic.zeta_power(3, 1).coeffs
    assert Cyclotomic(3, times(w, w)) == Cyclotomic.zeta_power(3, 2)
    assert Cyclotomic(3, times(times(w, w), w)) == 1
    assert zeta_sum(3, 1, 2) == -1  # 1 + w + w^2 = 0
    assert zeta_sum(21, *range(21)) == 0  # geometric sum of all 21st roots


def test_conjugation():
    z = Cyclotomic.zeta_power(7, 2)
    assert z.galois(-1) == Cyclotomic.zeta_power(7, 5)
    assert z.galois(-1).galois(-1) == z
    alpha, one = zeta_sum(7, 1, 2, 4).coeffs, Cyclotomic(7, [1]).coeffs
    # alpha * conj(alpha) = 2, alpha + conj(alpha) = -1 (Gauss sum)
    assert hermitian(7, [(1, alpha, alpha)]) == 2
    assert hermitian(7, [(1, alpha, one), (1, one, alpha)]) == -1


def test_integer_detection():
    s = zeta_sum(3, 0, 1, 2)
    assert s.is_integer() and s.integer_value() == 0
    assert not Cyclotomic.zeta_power(3, 1).is_integer()


W = Cyclotomic.zeta_power(3, 1)


@pytest.mark.parametrize("thunk,expected", [
    pytest.param(lambda: Cyclotomic(3, [0, -1, 1]), Cyclotomic(3, [-1, -2]), id="reduce"),
    pytest.param(lambda: (zeta_sum(3, 0, 1, 2) == 0, W == 0), (True, False), id="eq-zero"),
    pytest.param(lambda: W == "z", False, id="eq-non-cyclotomic"),
    pytest.param(lambda: len({W, Cyclotomic.zeta_power(3, 4), Cyclotomic.zeta_power(3, 2)}), 2, id="hash"),
    # an integer value hashes as the int it equals, so sets and dicts mix the two
    pytest.param(lambda: (3 in {Cyclotomic(5, [3])}, Cyclotomic(5, [3]) in {3: 0}), (True, True), id="hash-int"),
    # exactly int: a bool is no integer value, as it is no coefficient
    pytest.param(lambda: (Cyclotomic(1, [1]) == True, Cyclotomic(1, [0]) == False), (False, False), id="eq-bool"),
    # each equals 1, yet values of different conductors are never equal
    pytest.param(
        lambda: (Cyclotomic(1, [1]) == 1 == Cyclotomic(2, [1]), Cyclotomic(1, [1]) == Cyclotomic(2, [1]),
                 len({Cyclotomic(1, [1]), Cyclotomic(2, [1]), 1})),
        (True, False, 2), id="eq-across-conductors"),
    pytest.param(lambda: repr(zeta_sum(3, 0, 1, 2)), "0", id="repr-zero"),
    pytest.param(lambda: repr(Cyclotomic(5, [-4])), "-4", id="repr-integer"),
    pytest.param(lambda: repr(Cyclotomic(7, [0, 1, 0, -1, 3, -2])), "z-z^3+3*z^4-2*z^5", id="repr"),
    pytest.param(lambda: W.integer_value(), (ValueError, "z is not a rational integer"), id="integer_value-of-z"),
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
    pytest.param(lambda: Cyclotomic(True, [5]), (ValueError, "conductor must be positive"), id="integer-True"),
    pytest.param(lambda: Cyclotomic(2.0, [5]), (ValueError, "conductor must be positive"), id="integer-2.0"),
    pytest.param(lambda: Cyclotomic("3", [1]), (ValueError, "conductor must be positive"), id="conductor-str"),
    # exactly int coefficients and exponents too: no float is held, and no bool read as 0 or 1
    pytest.param(lambda: Cyclotomic(3, [1.5]), (ValueError, "coefficient 1.5 is not an integer"), id="coeff-1.5"),
    pytest.param(lambda: Cyclotomic(3, [0.0]), (ValueError, "coefficient 0.0 is not an integer"), id="coeff-0.0"),
    pytest.param(lambda: Cyclotomic(3, [True]), (ValueError, "coefficient True is not an integer"), id="coeff-True"),
    pytest.param(lambda: Cyclotomic(3, [1, 2.0]), (ValueError, "coefficient 2.0 is not an integer"), id="coeff-2nd"),
    pytest.param(lambda: Cyclotomic(3, [2.0]), (ValueError, "coefficient 2.0 is not an integer"), id="int-2.0"),
    pytest.param(lambda: Cyclotomic.zeta_power(3, 1.5), (ValueError, "exponent 1.5 is not an integer"), id="exp-1.5"),
    pytest.param(lambda: Cyclotomic.zeta_power(3, True), (ValueError, "exponent True is not an integer"), id="exp-T"),
    pytest.param(lambda: CharacterTable("G", 1, (1,), ((Cyclotomic(1, [1.0]),),), (0,)),
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
    # Cyclotomic defines no arithmetic operator, so Python words each refusal, with any operand
    assert value_or_error(thunk) == (TypeError, message)
    assert value_or_error(lambda: W + W) == (TypeError, "unsupported operand type(s) for +: 'Cyclotomic' and 'Cyclotomic'")
    assert value_or_error(lambda: 2 * W) == (TypeError, "unsupported operand type(s) for *: 'int' and 'Cyclotomic'")
    assert value_or_error(lambda: -W) == (TypeError, "bad operand type for unary -: 'Cyclotomic'")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=24),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=24),
)
def test_arithmetic_matches_float_evaluation(n, coeffs_a, coeffs_b):
    # the reference route's arithmetic, on coefficient lists modulo x^N - 1 with N their length
    a, b = Cyclotomic(n, coeffs_a).coeffs, Cyclotomic(n, coeffs_b).coeffs

    def ev(x):
        zeta = cmath.exp(2j * cmath.pi / len(x))
        return sum(c * zeta**k for k, c in enumerate(x))

    assert abs(ev(times(a, b)) - ev(a) * ev(b)) < 1e-6
    total = 3 * ev(a) * ev(b).conjugate() - 2 * ev(b) * ev(a).conjugate()
    assert abs(ev(hermitian(n, [(3, a, b), (-2, b, a)]).coeffs) - total) < 1e-6
    # a value of conductor n lifted to 3n is the same number; one of conductor 3n keeps its coefficients
    wider = Cyclotomic(3 * n, b)
    [[lifted_a, lifted_b]] = lifted(SimpleNamespace(characters=[[Cyclotomic(n, a), wider]]))
    assert abs(ev(lifted_a) - ev(a)) < 1e-7 and lifted_b == list(wider.coeffs)


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
