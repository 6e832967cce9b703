"""Core ring arithmetic: elements, products, duals, degrees, partiality."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring.ring import INT64_MAX, _RowKernel

from conftest import all_fixture_rings, brute_cyclic_products, corrupt_z5_ring, value_or_error, withhold_rows


def test_element_from_basis_unit():
    z3 = fr.cyclic_group_ring(3)
    one = z3.element("1")
    assert one == z3.unit_element()
    assert z3.decompose(one) == [("1", 1)]


def test_element_from_basis_so3():
    so = fr.so3_truncated(9)
    x3 = so.element("x3")
    assert so.decompose(x3) == [("x3", 1)]


def test_element_unknown_label():
    z3 = fr.cyclic_group_ring(3)
    with pytest.raises(fr.UnknownLabel):
        z3.element("zz")


def test_unit_law_all_basics():
    for ring in (fr.cyclic_group_ring(5), fr.a4_character_ring(), fr.so3_truncated(9)):
        one = ring.unit_element()
        for b in ring.elements:
            x = ring.element(b.label)
            assert ring.multiply(one, x) == x
            assert ring.multiply(x, one) == x


def test_z3_inverse_product():
    z3 = fr.cyclic_group_ring(3)
    prod = z3.multiply(z3.element("g"), z3.element("g2"))
    assert prod == z3.unit_element()


def test_cyclic_products_match_modular_arithmetic():
    n = 7
    ring = fr.cyclic_group_ring(n)
    labels = ["1"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    oracle = brute_cyclic_products(n)
    for (a, b), c in oracle.items():
        prod = ring.multiply(ring.element(labels[a]), ring.element(labels[b]))
        assert ring.decompose(prod) == [(labels[c], 1)]


def test_so3_table_matches_laurent_oracle():
    from conftest import laurent_cg_decompose

    so = fr.so3_truncated(13)
    half = 13 // 2
    for a in range(half + 1):
        for b in range(half + 1):
            oracle = laurent_cg_decompose(a, b, half)
            row = so.product_row(a, b)
            if oracle is None:
                assert row is None
            else:
                assert row is not None
                expect = {f"x{2*k+1}": m for k, m in oracle.items()}
                got = {so.label(c): m for c, m in enumerate(row) if m}
                assert got == expect


def test_f21_duality_product():
    f21 = fr.f21_character_ring()
    prod = f21.multiply(f21.element("x3"), f21.element("x3c"))
    assert f21.decompose(prod) == [("1", 1), ("s", 1), ("s2", 1), ("x3", 1), ("x3c", 1)]


def test_multiplicity_biadditive():
    so = fr.so3_truncated(9)
    x3 = so.element("x3")
    sq = so.multiply(x3, x3)
    assert so.multiplicity(x3, sq) == 1
    assert so.multiplicity(so.unit_element(), so.unit_element()) == 1
    # biadditive pairing of composite elements
    w = x3 + so.element("x5")
    assert so.multiplicity(w, sq) == 2


def test_multiplicity_a4():
    a4 = fr.a4_character_ring()
    x3 = a4.element("x3")
    assert a4.multiplicity(x3, a4.multiply(x3, x3)) == 2


def test_dual_transport():
    f21 = fr.f21_character_ring()
    assert f21.dual(f21.unit_element()) == f21.unit_element()
    assert f21.dual(f21.element("x3")) == f21.element("x3c")
    assert f21.dual(f21.element("x3")) != f21.element("x3")
    so = fr.so3_truncated(9)
    assert so.dual(so.element("x5")) == so.element("x5")


def test_degree_values():
    so = fr.so3_truncated(9)
    assert so.degree(so.unit_element()) == 1
    sq = so.multiply(so.element("x3"), so.element("x3"))
    assert so.degree(sq) == 9
    f21 = fr.f21_character_ring()
    prod = f21.multiply(f21.element("x3"), f21.element("x3c"))
    assert f21.degree(prod) == 9


def test_decompose_canonical_order():
    so = fr.so3_truncated(9)
    sq = so.multiply(so.element("x3"), so.element("x3"))
    assert so.decompose(sq) == [("x1", 1), ("x3", 1), ("x5", 1)]
    a4 = fr.a4_character_ring()
    sq = a4.multiply(a4.element("x3"), a4.element("x3"))
    assert a4.decompose(sq) == [("1", 1), ("s", 1), ("s2", 1), ("x3", 2)]


def test_is_nonnegative():
    so = fr.so3_truncated(9)
    x3 = so.element("x3")
    assert (so.unit_element() + x3).is_nonnegative()
    assert not (x3 - so.unit_element()).is_nonnegative()
    prod = so.multiply(x3, so.element("x5"))
    assert prod.is_nonnegative()


def test_products_of_nonnegative_are_nonnegative():
    for ring in (fr.cyclic_group_ring(6), fr.a4_character_ring(), fr.so3_truncated(9)):
        for a in ring.elements:
            for b in ring.elements:
                prod = ring.multiply(ring.element(a.label), ring.element(b.label))
                if prod is not None:
                    assert prod.is_nonnegative()


def test_unknown_product_propagation():
    so = fr.so3_truncated(3)
    x3 = so.element("x3")
    assert so.multiply(x3, x3) is None
    # any element touching the unknown pair is unknown
    assert so.multiply(so.unit_element() + x3, x3) is None
    # unit row still known
    assert so.multiply(so.unit_element(), x3) == x3


def test_truncation_rows():
    so = fr.so3_truncated(5)
    sq = so.multiply(so.element("x3"), so.element("x3"))
    assert so.decompose(sq) == [("x1", 1), ("x3", 1), ("x5", 1)]
    assert so.multiply(so.element("x5"), so.element("x3")) is None
    so9 = fr.so3_truncated(9)
    prod = so9.multiply(so9.element("x5"), so9.element("x5"))
    assert so9.decompose(prod) == [("x1", 1), ("x3", 1), ("x5", 1), ("x7", 1), ("x9", 1)]


def test_overflow_detected():
    z2 = fr.cyclic_group_ring(2)
    big = fr.RingElement(z2, {0: 2**62})
    with pytest.raises(fr.OverflowDetected):
        z2.multiply(big, big)
    with pytest.raises(fr.OverflowDetected):
        fr.RingElement(z2, {0: 2**63})
    # the checked range is [-2**63, 2**63 - 1]: its least value is kept, one less is refused
    assert z2.decompose(fr.RingElement(z2, {0: -(2**63)})) == [("1", -(2**63))]
    with pytest.raises(fr.OverflowDetected):
        fr.RingElement(z2, {0: -(2**63) - 1})
    with pytest.raises(fr.OverflowDetected):
        z2.multiplicity(big, big)
    # each term fits in 64 bits, their sum 2**63 does not
    with pytest.raises(fr.OverflowDetected):
        z2.degree(fr.RingElement(z2, {0: 2**62, 1: 2**62}))


def test_canonical_basis_order():
    ring = fr.build_ring(
        "t",
        [("b", 3, "b"), ("a", 3, "a"), ("1", 1, "1"), ("z", 1, "z")],
        "1",
        {},
    )
    assert ring.labels == ("1", "z", "a", "b")


def test_construction_validation():
    with pytest.raises(fr.InvalidRing):
        fr.build_ring("t", [("a", 3, "b")], "a", {})  # dangling dual
    with pytest.raises(fr.InvalidRing):
        fr.build_ring("t", [("a", 2, "a")], "a", {})  # unit degree != 1
    with pytest.raises(fr.InvalidRing):
        fr.build_ring("t", [("a", 1, "a"), ("a", 1, "a")], "a", {})  # dup label
    with pytest.raises(fr.InvalidRing):
        fr.build_ring("t", [("a", 1, "b"), ("b", 1, "a")], "a", {})  # unit not self-dual
    with pytest.raises(fr.InvalidRing):
        fr.build_ring("t", [("a!", 1, "a!")], "a!", {})  # bad label
    with pytest.raises(fr.InvalidRing):
        # explicit unit row contradicting the unit law
        fr.build_ring("t", [("1", 1, "1"), ("x", 3, "x")], "1", {("1", "x"): {"1": 3}})


@pytest.mark.parametrize("basis,unit,message", [
    pytest.param([("1", 1, "1"), (5, 3, 5)], "1", "bad label 5: must match [A-Za-z0-9_]+", id="int-label"),
    pytest.param([("1", 1, "1"), (None, 1, None)], "1", "bad label None: must match [A-Za-z0-9_]+", id="no-label"),
    pytest.param([("1", 1, "1"), ("x", 3, ["x"])], "1", "dangling dual label ['x'] on basis element 'x'",
                 id="list-dual-label"),
    pytest.param([("1", 1, "1")], ["1"], "unit label ['1'] not in basis", id="list-unit-label"),
])
def test_labels_that_are_not_strings_are_refused(basis, unit, message):
    # a value of another type may fail to sort, to match the label pattern or to hash
    with pytest.raises(fr.InvalidRing) as exc:
        fr.build_ring("t", basis, unit, {})
    assert str(exc.value) == message


def test_rows_equal_to_earlier_ones_are_checked_in_full():
    # a row equal to an earlier one is still checked in full
    basis = [("1", 1, "1"), ("g", 1, "g")]
    with pytest.raises(fr.InvalidRing, match="must be a nonnegative integer"):
        fr.build_ring("t", basis, "1", {("1", "g"): {"g": 1}, ("g", "g"): {"g": 1.0}})
    with pytest.raises(fr.InvalidRing, match="unknown label 'h'"):
        fr.build_ring("t", basis, "1", {("1", "g"): {"g": 1}, ("g", "h"): {"g": 1}})
    with pytest.raises(fr.InvalidRing, match="must be a nonnegative integer"):
        fr.build_ring("t", basis, "1", {("1", "g"): {"g": 1}, ("g", "g"): {"g": [1]}})
    # a bool, equal to 1, is refused, so it cannot stand in for the equal int rows it would share
    with pytest.raises(fr.InvalidRing, match="must be a nonnegative integer"):
        fr.build_ring("t", basis, "1", {("g", "g"): {"1": True}, ("1", "g"): {"g": 1}})


def test_dimension_beyond_64_bits_is_rejected():
    d = 3037000499  # 1 + d**2 fits in 64 bits and 1 + 2 * d**2 does not
    assert 1 + d**2 <= INT64_MAX < 1 + 2 * d**2
    ring = fr.build_ring("t", [("1", 1, "1"), ("x", d, "x")], "1", {})
    assert ring.dimension() == 1 + d**2
    assert ring.degree(ring.element("x")) == d
    with pytest.raises(fr.InvalidRing, match="dimension exceeds checked 64-bit range") as exc:
        fr.build_ring("t", [("1", 1, "1"), ("x", d, "y"), ("y", d, "x")], "1", {})
    assert exc.value.subject == "y"  # the basis element at which the sum leaves the range
    with pytest.raises(fr.InvalidRing) as exc:
        fr.build_ring("t", [("1", 1, "1"), ("x", 2**70, "x")], "1", {})
    assert exc.value.subject == "x"


def test_dual_involution_enforced():
    with pytest.raises(fr.InvalidRing):
        fr.build_ring(
            "t",
            [("1", 1, "1"), ("a", 3, "b"), ("b", 3, "c"), ("c", 3, "a")],
            "1",
            {},
        )


def test_dual_preserves_degree_enforced():
    with pytest.raises(fr.InvalidRing):
        fr.build_ring("t", [("1", 1, "1"), ("a", 3, "b"), ("b", 5, "a")], "1", {})


def test_cross_ring_elements_rejected():
    z3 = fr.cyclic_group_ring(3)
    z5 = fr.cyclic_group_ring(5)
    with pytest.raises(fr.FusionRingError, match="different ring"):
        z3.multiply(z3.element("g"), z5.element("g"))
    with pytest.raises(fr.FusionRingError, match="different ring"):
        z3.element("g") + z5.element("g")


@pytest.mark.parametrize("method", ["multiplicity", "dual", "degree", "decompose"])
def test_element_methods_refuse_elements_of_another_ring(method):
    z3, z5 = fr.cyclic_group_ring(3), fr.cyclic_group_ring(5)
    args = (z3.element("g"), z5.element("g")) if method == "multiplicity" else (z5.element("g"),)
    with pytest.raises(fr.FusionRingError, match="different ring"):
        getattr(z3, method)(*args)


ONE_SHOT = """\
import sys
import fusionring as fr
from fusionring.ring import _ELEMENT_METHODS, FusionRing
ring = fr.cyclic_group_ring(3)
print("fusionring.verify" in sys.modules)
first = ring.multiply
import fusionring.verify as verify
print("fusionring.verify" in sys.modules, first.__self__ is ring, first.__func__ is verify.multiply)
print(all(vars(FusionRing).get(name) is getattr(verify, name) for name in _ELEMENT_METHODS))
print("__getattr__" not in vars(FusionRing))
other = fr.cyclic_group_ring(5)
print(all(getattr(other, name).__func__ is getattr(verify, name) for name in _ELEMENT_METHODS))
try:
    other._own
except AttributeError as exc:
    print(exc, exc.name, exc.obj is other)
"""


def test_element_methods_are_set_on_the_class_once():
    # a fresh interpreter, since other tests have loaded `verify`: the first
    # element-method read loads it, it sets every element method on the class,
    # and later reads are plain class attributes.  The class defines no
    # `__getattr__`, whose slot would send every attribute read on a ring
    # through CPython's unspecialized path.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", ONE_SHOT], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False",
        "True True True",
        "True",
        "True",
        "True",
        "'FusionRing' object has no attribute '_own' _own True",
    ]


def test_element_algebra():
    z3 = fr.cyclic_group_ring(3)
    g = z3.element("g")
    two_g = 2 * g
    assert z3.decompose(two_g) == [("g", 2)]
    assert (two_g - g) == g
    assert (-g + g).is_zero()
    assert (g + g).is_basic() is False
    assert g.is_basic()


Z3 = fr.cyclic_group_ring(3)
G = Z3.element("g")


@pytest.mark.parametrize("thunk,expected", [
    pytest.param(lambda: G.basic_index(), 1, id="basic_index"),
    pytest.param(lambda: (2 * G).basic_index(), (ValueError, "element is not basic"), id="basic_index-of-2g"),
    pytest.param(
        lambda: 2.0 * G, (TypeError, "unsupported operand type(s) for *: 'float' and 'RingElement'"), id="rmul-float"
    ),
    pytest.param(lambda: G == "g", False, id="eq-non-element"),
    pytest.param(lambda: len({G, G + G - G, 2 * G, Z3.element("g")}), 2, id="hash"),
    pytest.param(lambda: repr(2 * G - Z3.unit_element()), "-1*1 + 2*g", id="repr"),
    pytest.param(lambda: repr(G - G), "0", id="repr-zero"),
])
def test_ring_element_value_protocol(thunk, expected):
    assert value_or_error(thunk) == expected


@pytest.mark.parametrize("thunk,expected", [
    pytest.param(lambda: repr(Z3), "FusionRing('Z3', rank=3, dim=3)", id="repr"),
    pytest.param(lambda: repr(fr.so3_truncated(5)), "FusionRing('so3_5', rank=3, partial dim=35)", id="repr-partial"),
    pytest.param(lambda: hash(Z3) == hash(fr.parse_spec(fr.write_spec(Z3))), True, id="hash"),
    pytest.param(lambda: fr.build_ring("t", [], "1", {}), (fr.InvalidRing, "basis is empty"), id="empty-basis"),
    pytest.param(
        lambda: fr.build_ring("t", [("1", 1, "1"), ("x", 0, "x")], "1", {}),
        (fr.InvalidRing, "degree of x must be a positive integer"),
        id="degree-0",
    ),
    # a value of the wrong type that sorts does not cut ahead of a fault found before it
    pytest.param(
        lambda: fr.build_ring("t", [("x", 1, "x"), ("x", True, "x")], "x", {}),
        (fr.InvalidRing, "duplicate basis labels"),
        id="duplicate-before-bool-degree",
    ),
    pytest.param(
        lambda: fr.build_ring("t", [(5, 2, 5), ("x", 0, "x")], "x", {}),
        (fr.InvalidRing, "degree of x must be a positive integer"),
        id="degree-0-sorted-before-int-label",
    ),
    pytest.param(
        lambda: fr.build_ring("t", [("1", 1, "1")], "1", {}, truncation_bound=0),
        (fr.InvalidRing, "truncation bound must be a positive integer"),
        id="truncation-0",
    ),
])
def test_fusion_ring_value_protocol(thunk, expected):
    assert value_or_error(thunk) == expected


# -- the row kernel filled by place ------------------------------------------------

CORPUS = all_fixture_rings() + [corrupt_z5_ring()]  # the last has a row 2*g2


@st.composite
def kernel_fills(draw):
    """A corpus ring, some of its rows withheld, its Known pairs in a random
    order, and some of them to clear and place again."""
    ring = draw(st.sampled_from(CORPUS))
    u = ring.unit_index
    rows = [(ring.label(i), ring.label(j)) for i, j in ring.known_pairs() if u not in (i, j)]
    withheld = draw(st.lists(st.sampled_from(rows), unique=True, max_size=4)) if rows else []
    if withheld:
        ring = withhold_rows(ring, *withheld)
    known = list(ring.known_pairs())
    return ring, draw(st.permutations(known)), draw(st.lists(st.sampled_from(known), unique=True, max_size=6))


@settings(max_examples=100, deadline=None)
@given(kernel_fills())
def test_place_fills_an_empty_kernel_as_the_ring_builds_it(fill):
    ring, order, cleared = fill
    rows = [ring.product_row(i, j) for i, j in ring.known_pairs()]
    max_support = max(sum(1 for n in row if n) for row in rows)
    kernel = _RowKernel([[None] * ring.rank for _ in range(ring.rank)], max_support, max(max(row) for row in rows))
    assert kernel.lane == ring._kernel.lane
    for i, j in order:
        kernel.place(i, j, ring.product_row(i, j))
    for i, j in cleared:
        kernel.place(i, j, None)
        assert kernel.rows[i][j] is kernel.support[i][j] is kernel.packed[i][j] is kernel.basic[i][j] is None
    for i, j in cleared:
        kernel.place(i, j, ring.product_row(i, j))
    for form in ("rows", "support", "packed", "basic"):
        assert getattr(kernel, form) == getattr(ring._kernel, form), form
    for i, j in ring.known_pairs():
        row = ring.product_row(i, j)
        assert kernel.support[i][j] == tuple((c, n) for c, n in enumerate(row) if n)
        assert kernel.unpack(kernel.packed[i][j]) == list(row)
        is_basic = row.count(1) == 1 and row.count(0) == len(row) - 1
        assert kernel.basic[i][j] == (row.index(1) if is_basic else -1)


def distinct_rows(ring):
    """The distinct row objects of a ring's Known pairs, by identity."""
    return {id(ring.product_row(i, j)) for i, j in ring.known_pairs()}


@pytest.mark.parametrize("n", [1, 2, 7, 12, 30])
def test_group_ring_stores_one_row_per_element(n):
    ring = fr.cyclic_group_ring(n)
    assert len(distinct_rows(ring)) == n
    assert len(distinct_rows(fr.parse_spec(fr.write_spec(ring)))) == n


@pytest.mark.parametrize("d", [3, 9, 21, 41])
def test_so3_mirror_rows_are_one_object(d):
    ring = fr.so3_truncated(d)
    for i, j in ring.known_pairs():
        assert ring.product_row(i, j) is ring.product_row(j, i)
    assert len(distinct_rows(ring)) == len({ring.product_row(i, j) for i, j in ring.known_pairs()})


def rebuilt(ring, shared):
    """``ring`` built again from its Known non-unit rows: equal rows passed as
    one dict object when ``shared``, as a fresh dict per pair otherwise."""
    basis = [(b.label, b.degree, b.dual_label) for b in ring.elements]
    objects = {}
    products = {}
    for i, j in ring.known_pairs():
        if ring.unit_index in (i, j):
            continue
        row = ring.product_row(i, j)
        terms = {ring.label(c): m for c, m in enumerate(row) if m}
        products[(ring.label(i), ring.label(j))] = objects.setdefault(row, terms) if shared else terms
    return fr.build_ring(ring.name, basis, ring.label(ring.unit_index), products, ring.truncation_bound)


@pytest.mark.parametrize(
    "ring", CORPUS + [fr.cyclic_group_ring(12), fr.so3_truncated(21)], ids=lambda r: r.name
)
def test_rings_from_shared_rows_equal_rings_from_copies(ring):
    shared, copied = rebuilt(ring, True), rebuilt(ring, False)
    assert shared == copied == ring
    assert fr.write_spec(shared) == fr.write_spec(copied) == fr.write_spec(ring)


def build_outcome(products):
    """The ring on {1, g, h} (h = g*) from ``products``, or the type, message
    and subject of the error it raised."""
    basis = [("1", 1, "1"), ("g", 1, "h"), ("h", 1, "g")]
    try:
        return fr.build_ring("t", basis, "1", products)
    except (fr.InvalidRing, fr.OverflowDetected) as exc:
        return type(exc), str(exc), getattr(exc, "subject", None)


@pytest.mark.parametrize("bad", [{"q": 1}, {"h": True}, {"h": -1}, {"h": 2**63}, {"1": 1, "h": 2**63}])
def test_a_shared_invalid_row_fails_at_its_first_pair_as_copies_do(bad):
    def products(row_for):
        return {("h", "g"): {"1": 1}, ("g", "g"): row_for(), ("h", "h"): row_for(), ("g", "h"): row_for()}

    shared = build_outcome(products(lambda: bad))
    assert shared == build_outcome(products(lambda: dict(bad)))
    assert "(g,g)" in shared[1] or shared[0] is fr.OverflowDetected
    assert shared[2] == (("g", "g") if "q" in bad else None)


@pytest.mark.parametrize("pair", [("g", "q"), ("q", "g"), ("q", "r")])
def test_a_shared_row_at_a_pair_with_an_unknown_label_fails_as_copies_do(pair):
    row = {"h": 1}
    shared = build_outcome({("g", "g"): row, pair: row})
    assert shared == build_outcome({("g", "g"): row, pair: dict(row)})
    assert shared == (fr.InvalidRing, f"product row ({pair[0]},{pair[1]}) references unknown label 'q'", pair)


@pytest.mark.parametrize(
    "ring", [fr.so3_truncated(21), fr.a4_character_ring(), fr.char_table_ring(fr.cyclic_character_table(7))],
    ids=lambda r: r.name,
)
def test_mirror_rows_are_one_object(ring):
    for i, j in ring.known_pairs():
        assert ring.product_row(i, j) is ring.product_row(j, i)


class CountingRow(dict):
    """A row dict that counts how often its terms are read."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def test_a_row_passed_for_a_pair_and_its_mirror_is_made_dense_once():
    # so3_21's rule with the rows of every pair counted: one object per unordered pair
    ring = fr.so3_truncated(21)
    basis = [(b.label, b.degree, b.dual_label) for b in ring.elements]
    products = {}
    for a, b in ring.known_pairs():
        if a <= b:
            row = CountingRow((ring.label(c), m) for c, m in enumerate(ring.product_row(a, b)) if m)
            products[ring.label(a), ring.label(b)] = products[ring.label(b), ring.label(a)] = row
    assert fr.build_ring(ring.name, basis, "x1", products, ring.truncation_bound) == ring
    assert {row.reads for row in products.values()} == {1}


@pytest.mark.parametrize(
    "bad", [{"1": 1, "q": 1}, {"1": 1, "g": -1}, {"1": True, "g": 1}, {"1": 1, "g": 2**63}, {"q": 1}]
)
def test_a_mirror_shared_invalid_row_fails_as_copies_do(bad):
    def products(row_for):
        return {("g", "h"): row_for(), ("h", "g"): row_for()}

    shared = build_outcome(products(lambda: bad))
    assert shared == build_outcome(products(lambda: dict(bad)))
    assert shared[2] == (("g", "h") if "q" in bad else None)


@pytest.mark.parametrize("ring", CORPUS + [fr.cyclic_group_ring(24)], ids=lambda r: r.name)
def test_kernel_forms_match_every_pair(ring):
    rows = [ring.product_row(i, j) for i, j in ring.known_pairs()]
    lane = (max(sum(1 for n in row if n) for row in rows) * max(max(row) for row in rows) ** 2).bit_length() + 1
    kernel = ring._kernel
    assert kernel.lane == lane
    for i in range(ring.rank):
        for j in range(ring.rank):
            row = ring.product_row(i, j)
            assert kernel.rows[i][j] is row
            if row is None:
                assert kernel.support[i][j] is kernel.packed[i][j] is kernel.basic[i][j] is None
                continue
            support = tuple((c, n) for c, n in enumerate(row) if n)
            assert kernel.support[i][j] == support
            assert kernel.packed[i][j] == sum(n << lane * c for c, n in support)
            assert kernel.basic[i][j] == (support[0][0] if len(support) == 1 and support[0][1] == 1 else -1)
