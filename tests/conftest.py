"""Shared fixtures: oracle rings, hand-built diagnostic rings and the character tables that
``tools/chartable_tables.py`` writes."""

from __future__ import annotations

import cmath
import functools
import importlib.util
from itertools import product
from pathlib import Path

import pytest

import fusionring as fr


@pytest.fixture(scope="session")
def a4():
    return fr.a4_character_ring()


@pytest.fixture(scope="session")
def f21():
    return fr.f21_character_ring()


@pytest.fixture(scope="session")
def s3():
    return fr.s3_character_ring()


@pytest.fixture(scope="session")
def fragment():
    return fr.fragment_ring()


@pytest.fixture(scope="session")
def so3_21():
    return fr.so3_truncated(21)


def complete_fixture_rings():
    """Every complete (no Unknown) reference ring in the corpus."""
    rings = [fr.cyclic_group_ring(n) for n in range(1, 9)]
    rings += [fr.s3_character_ring(), fr.a4_character_ring(), fr.f21_character_ring()]
    return rings


@pytest.fixture(scope="session")
def complete_rings():
    """complete_fixture_rings(), built once per session for tests that only read them."""
    return tuple(complete_fixture_rings())


def all_fixture_rings():
    return complete_fixture_rings() + [
        fr.so3_truncated(9),
        fr.so3_truncated(21),
        fr.fragment_ring(),
    ]


# Z4 with the self-dual chi2 row removed: the rows left are orthonormal, but
# one class has no character.
Z4_WITHOUT_CHI2 = """
group Z4 4
conductor 4
class 1
class 1
class 1
class 1
char 1 1 1 1 1
char 1 1 z z^2 z^3
char 1 1 z^3 z^2 z
dualpair 1 2
"""


# A partial ring whose ladder from x3 reaches the terminal configuration
# through Known chain products: x5*x3 - x3 = gx3 + w1 + w2 + w3, the chain
# gx3 -> g ends at a grouplike, and z0 = w1 + w2 + w3.  x5*x5 holds every
# label, so both forced subrings are the whole basis and nothing fails to
# divide.  The self-dual chain of a also stabilizes at x3.
TERMINAL_WITHOUT_VIOLATION = """ring terminal
partial true
basis 1 1 1
basis g 1 g
basis a 3 a
basis gx3 3 gx3
basis w1 3 w1
basis w2 3 w2
basis w3 3 w3
basis x3 3 x3
basis x5 5 x5
unit 1
prod a a : 1 1, x3 1, x5 1
prod g x3 : gx3 1
prod g x5 : x5 1
prod gx3 x3 : g 1, gx3 1, x5 1
prod x3 x3 : 1 1, x3 1, x5 1
prod x5 x3 : gx3 1, w1 1, w2 1, w3 1, x3 1
prod x5 x5 : 1 1, g 1, a 1, gx3 1, w1 1, w2 1, w3 1, x3 1, x5 1
"""


# -- independent oracles -------------------------------------------------------


def float_inner_product(table, i, j):
    """Row inner product evaluated numerically; independent of the exact route."""
    total = 0j
    zeta = cmath.exp(2j * cmath.pi / table.conductor)
    for size, a, b in zip(table.class_sizes, table.characters[i], table.characters[j]):
        va = sum(c * zeta**k for k, c in enumerate(a.coeffs))
        vb = sum(c * zeta**k for k, c in enumerate(b.coeffs))
        total += size * va * vb.conjugate()
    return total / table.group_order


def float_structure_constant(table, i, j, k):
    """<chi_i chi_j, chi_k> via complex floats, rounded with a tight guard."""
    total = 0j
    zeta = cmath.exp(2j * cmath.pi / table.conductor)

    def value(row, cls):
        return sum(c * zeta**p for p, c in enumerate(table.characters[row][cls].coeffs))

    for cls, size in enumerate(table.class_sizes):
        total += size * value(i, cls) * value(j, cls) * value(k, cls).conjugate()
    total /= table.group_order
    nearest = round(total.real)
    assert abs(total - nearest) < 1e-9, f"non-integral inner product {total}"
    return nearest


def laurent_cg_decompose(a, b, max_index):
    """Decompose the product of odd-dimensional rotation characters.

    chi_l(q) = q^-l + ... + q^l as an integer Laurent polynomial; peel the
    top character repeatedly.  Returns None when the decomposition needs an
    index beyond max_index (the truncation case).
    """

    def chi(l):
        return {k: 1 for k in range(-l, l + 1)}

    poly = {}
    for p, cp in chi(a).items():
        for q, cq in chi(b).items():
            poly[p + q] = poly.get(p + q, 0) + cp * cq
    out = {}
    while any(poly.values()):
        top = max(k for k, v in poly.items() if v)
        mult = poly[top]
        assert mult > 0
        if top > max_index:
            return None
        out[top] = mult
        for k in range(-top, top + 1):
            poly[k] = poly.get(k, 0) - mult
    return out


def brute_cyclic_products(n):
    """Group-ring products of Z_n straight from modular arithmetic."""
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


def value_or_error(thunk):
    """The value of ``thunk()``, or the type and message of what it raised."""
    try:
        return thunk()
    except Exception as exc:  # each caller names the exception it expects
        return type(exc), str(exc)


# -- diagnostic rings -----------------------------------------------------------


def order2_branch_ring():
    """Ladder input whose descending chain ends in the order-2 grouplike branch."""
    return fr.build_ring("order2", [
        ("1", 1, "1"), ("g", 1, "g"),
        ("x3", 3, "x3"), ("gx3", 3, "gx3"),
        ("x5", 5, "x5"), ("z9", 9, "z9"),
    ], "1", {
        ("g", "g"): {"1": 1},
        ("x3", "x3"): {"1": 1, "x3": 1, "x5": 1},
        ("x5", "x3"): {"x3": 1, "gx3": 1, "z9": 1},
        ("gx3", "x3"): {"x5": 1, "g": 1, "gx3": 1},
        ("g", "x3"): {"gx3": 1},
        ("g", "x5"): {"x5": 1},
    })


def factorization_branch_ring():
    """Corrupt ladder input that walks the chain to k=1 < n=2 and trips the
    concrete equation-3 identity check."""
    return fr.build_ring("factorization_branch", [
        ("1", 1, "1"), ("g", 1, "g2"), ("g2", 1, "g"),
        ("u3", 3, "u3"), ("x3", 3, "x3"),
        ("x5", 5, "x5"), ("x7", 7, "x7"),
    ], "1", {
        ("g", "g"): {"g2": 1}, ("g", "g2"): {"1": 1},
        ("g2", "g"): {"1": 1}, ("g2", "g2"): {"g": 1},
        ("x3", "x3"): {"1": 1, "x3": 1, "x5": 1},
        ("x5", "x3"): {"x3": 1, "x5": 1, "x7": 1},
        ("x7", "x3"): {"x5": 1, "u3": 2, "x3": 1, "x7": 1},
        ("u3", "x3"): {"x7": 1, "g": 1, "g2": 1},
        ("g", "x3"): {"u3": 1},
        ("g", "x5"): {"x5": 1},
    })


def bad_reciprocity_ring():
    """Ladder input with m(x3, x5*x3) = 2, where reciprocity forces 1."""
    return fr.build_ring("badrecip", [
        ("1", 1, "1"), ("x3", 3, "x3"), ("x5", 5, "x5"), ("x9", 9, "x9"),
    ], "1", {
        ("x3", "x3"): {"1": 1, "x3": 1, "x5": 1},
        ("x5", "x3"): {"x3": 2, "x9": 1},
    })


def order3_chain_end_ring():
    """The order-2 fixture's shape with Z3 grouplikes: the descending chain
    ends on g with g^2 != 1, which no valid ring allows there."""
    return fr.build_ring("order3bad", [
        ("1", 1, "1"), ("g", 1, "g2"), ("g2", 1, "g"),
        ("x3", 3, "x3"), ("gx3", 3, "gx3"),
        ("x5", 5, "x5"), ("z9", 9, "z9"),
    ], "1", {
        ("g", "g"): {"g2": 1}, ("g", "g2"): {"1": 1},
        ("g2", "g"): {"1": 1}, ("g2", "g2"): {"g": 1},
        ("x3", "x3"): {"1": 1, "x3": 1, "x5": 1},
        ("x5", "x3"): {"x3": 1, "gx3": 1, "z9": 1},
        ("gx3", "x3"): {"x5": 1, "g": 1, "gx3": 1},
        ("g", "x3"): {"gx3": 1},
        ("g", "x5"): {"x5": 1},
    })


def nonassociative_order9_ring():
    """Corrupt ring whose nine grouplikes pass every check _group_on made
    before associativity: closed, unit, duals inverse, each power cycle
    g, k(g), g*, 1 of length 4, which no group of order 9 has."""
    a = [f"a{i}" for i in range(1, 9)]
    dual = {a[i]: a[i ^ 1] for i in range(8)}  # (a1,a2), (a3,a4), ...
    square = {a[i]: a[(i + 2) % 8] for i in range(8)}  # k(g), not e, g or g*
    products = {(g, h): {g: 1} for g in a for h in a}
    for g in a:
        products[g, dual[g]] = {"e": 1}
        products[g, g] = {square[g]: 1}
        products[square[g], g] = {dual[g]: 1}
    products["x", "x"] = {"e": 1, **{g: 1 for g in a}}
    basis = [("e", 1, "e"), ("x", 3, "x")] + [(g, 1, dual[g]) for g in a]
    return fr.build_ring("nonassociative9", basis, "e", products)


def chain_length_one_ring():
    """Partial ring where the self-dual chain moves once: a -> u, u stabilizes.

    No complete ring of rank <= 6 supports this (see test_search); the two
    Known squares are exactly what the chain needs.
    """
    return fr.build_ring("chain1", [
        ("1", 1, "1"), ("a", 3, "a"), ("u", 3, "u"), ("c", 5, "c"), ("d", 5, "d"),
    ], "1", {
        ("a", "a"): {"1": 1, "u": 1, "c": 1},
        ("u", "u"): {"1": 1, "u": 1, "d": 1},
    })


def count4_corrupt_ring():
    """Degree-sum-corrupt ring with exactly 4 grouplikes in x3*x3 - 1."""
    zt = {}
    labs = ["1", "g", "g2", "g3", "g4"]
    for i in range(5):
        for j in range(5):
            zt[(labs[i], labs[j])] = {labs[(i + j) % 5]: 1}
    zt[("x3", "x3")] = {"1": 1, "g": 1, "g2": 1, "g3": 1, "g4": 1, "x3": 1}
    return fr.build_ring("count4", [
        ("1", 1, "1"), ("g", 1, "g4"), ("g2", 1, "g3"),
        ("g3", 1, "g2"), ("g4", 1, "g"), ("x3", 3, "x3"),
    ], "1", zt)


def _products(ring):
    return {
        (ring.label(i), ring.label(j)): {
            ring.label(c): m for c, m in enumerate(ring.product_row(i, j)) if m
        }
        for i, j in ring.known_pairs()
    }


def _basis(ring):
    return [(b.label, b.degree, b.dual_label) for b in ring.elements]


def corrupt_z5_ring():
    """Z5 with one structure constant bumped to 2."""
    z5 = fr.cyclic_group_ring(5)
    products = _products(z5)
    products[("g", "g")] = {"g2": 2}
    return fr.build_ring("Z5corrupt", _basis(z5), "1", products)


def abelian_group_ring(*moduli):
    """The group ring of Z_m1 x Z_m2 x ..., its elements labelled by their
    coordinates ("1" for the unit)."""
    elems = list(product(*(range(m) for m in moduli)))

    def label(e):
        return "1" if not any(e) else "e" + "_".join(map(str, e))

    def add(e, f):
        return tuple((x + y) % m for x, y, m in zip(e, f, moduli))

    basis = [(label(e), 1, label(tuple(-x % m for x, m in zip(e, moduli)))) for e in elems]
    products = {(label(e), label(f)): {label(add(e, f)): 1} for e in elems for f in elems}
    return fr.build_ring("x".join(f"Z{m}" for m in moduli), basis, "1", products)


def withhold_rows(ring, *pairs, truncation_bound=None):
    """A partial copy of ``ring`` whose product rows at ``pairs`` are Unknown."""
    products = _products(ring)
    for pair in pairs:
        del products[pair]
    unit = ring.label(ring.unit_index)
    return fr.build_ring(f"{ring.name}_partial", _basis(ring), unit, products, truncation_bound)


@functools.cache
def bench_tables() -> dict[str, str]:
    """The tables that tools/chartable_tables.py writes, among them the bench generator's at seed 1."""
    path = Path(__file__).resolve().parents[1] / "tools" / "chartable_tables.py"
    spec = importlib.util.spec_from_file_location("chartable_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tables()


# A table that passes the checks of a group's table and is no group's, as
# tools/chartable_tables.py builds it: the class ratios |G|/|c| are |G| and
# the first nine Sylvester numbers 2, 3, 7, 43, ..., whose product is the
# 105-digit |G|, so that their reciprocals and 1/|G| sum to 1.  Below a
# trivial row, each column's squares sum to |G|/|c| - 1; the rows are not
# orthonormal.  At N = 5040, Phi_N(2L + 2) would have about 600k bits; its
# values are integers, so it evaluates in Z, modulo q = 2L + 2.
CRAFTED_10 = """\
group S10 165506647324519964198468195444439180017513152706377497841851388766535868639572406808911988131737645185442
conductor 5040
class 1
class 82753323662259982099234097722219590008756576353188748920925694383267934319786203404455994065868822592721
class 55168882441506654732822731814813060005837717568792499280617129588845289546524135602970662710579215061814
class 23643806760645709171209742206348454288216164672339642548835912680933695519938915258415998304533949312206
class 3848991798244650330196934777777655349244491923404127856787241599221764386966800158346790421668317329894
class 91591946499457644824830213306275141127566769621680961727643269931674526087201110574937458844348447806
class 50715347969773017086086135239512128760181548354415106328454760437530506474166212435428468685292694
class 15540447162771164649792024405283299102212737963893406063428553785653608710003184028038405806
class 1459189113687796591938380218254948862104839903718831025138263619904486783546694
class 12864938683278671740537145998360961546653259485195806
char 1 1 1 1 1 1 1 1 1 1 1
char 12864938683278671740537145998360961546653259485195806 12864938683278671740537145998360961546653259485195806 1 1 2 6 42 1806 3263442 10650056950806 113423713055421844361000442
char 113423713055421844361000442 113423713055421844361000442 0 -1 -1 -2 -6 -42 -1806 -3263442 -10650056950806
char 10650056950806 10650056950806 0 0 1 1 2 6 42 1806 3263442
char 3263442 3263442 0 0 0 -1 -1 -2 -6 -42 -1806
char 1806 1806 0 0 0 0 1 1 2 6 42
char 42 42 0 0 0 0 0 -1 -1 -2 -6
char 6 6 0 0 0 0 0 0 1 1 2
char 2 2 0 0 0 0 0 0 0 -1 -1
char 1 1 0 0 0 0 0 0 0 0 1
"""
