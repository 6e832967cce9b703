"""The character-table kernel against the value-by-value cyclotomic route.

The reference below is the route the kernel replaced: every sum, product and
conjugate is a reduced ``Cyclotomic``, and the ring loop runs over all
(i, j, k).  Valid tables must give equal rings; corrupted tables must fail
validation, and the ring loop when it is run unvalidated, with the same
exception class and message on both routes.
"""

from __future__ import annotations

import functools
import gc
import importlib.util
import math
import random
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring.chartable import (
    CharacterTable,
    NotIntegral,
    OrthogonalityFailure,
    _Evaluation,
)
from fusionring.cyclotomic import Cyclotomic
from fusionring.ring import BasisElement, FusionRing, InvalidRing

FIXTURES = ("s3", "a4", "f21", "z3")
REPO = Path(__file__).resolve().parents[1]


# -- reference route -----------------------------------------------------------


def reference_inner(table, phi, psi) -> int:
    total = Cyclotomic.integer(table.conductor, 0)
    for size, a, b in zip(table.class_sizes, phi, psi):
        total = total + size * (a * b.conj())
    if not total.is_integer():
        raise NotIntegral(f"inner product total {total!r} is not rational")
    value = total.integer_value()
    if value % table.group_order != 0:
        raise NotIntegral(
            f"inner product total {value} is not divisible by |G| = {table.group_order}"
        )
    return value // table.group_order


def reference_validate(table) -> None:
    if sum(table.class_sizes) != table.group_order:
        raise OrthogonalityFailure(
            f"class sizes sum to {sum(table.class_sizes)}, group order is {table.group_order}"
        )
    n = len(table.characters)
    if len(table.conjugate_map) != n:
        raise InvalidRing("conjugate map length mismatch")
    for i, j in enumerate(table.conjugate_map):
        if table.conjugate_map[j] != i:
            raise InvalidRing("conjugate map is not an involution")
        for c in range(len(table.class_sizes)):
            if table.characters[i][c].conj() != table.characters[j][c]:
                raise OrthogonalityFailure(
                    f"row {j} is not the complex conjugate of row {i} at class {c}"
                )
    for row in table.characters:
        deg = row[0]
        if not deg.is_integer() or deg.integer_value() < 1:
            raise InvalidRing("character degree (value at the identity) must be a positive integer")
    for i in range(n):
        for j in range(n):
            try:
                val = reference_inner(table, table.characters[i], table.characters[j])
            except NotIntegral as exc:
                raise OrthogonalityFailure(f"<chi{i}, chi{j}>: {exc}") from exc
            expect = 1 if i == j else 0
            if val != expect:
                raise OrthogonalityFailure(f"<chi{i}, chi{j}> = {val}, expected {expect}")


def reference_ring(table) -> FusionRing:
    """The all-(i, j, k) loop, plus the per-row degree identity."""
    n = len(table.characters)
    classes = len(table.class_sizes)
    one = Cyclotomic.integer(table.conductor, 1)
    trivial = next((i for i, row in enumerate(table.characters) if all(v == one for v in row)), None)
    if trivial is None:
        raise InvalidRing("table has no trivial character row")
    labels = tuple("1" if i == trivial else f"chi{i}" for i in range(n))
    degrees = table.degrees
    products = {}
    for i in range(n):
        for j in range(n):
            prod = tuple(table.characters[i][c] * table.characters[j][c] for c in range(classes))
            row = {}
            for k in range(n):
                mult = reference_inner(table, prod, table.characters[k])
                if mult < 0:
                    raise NotIntegral(f"<chi{i} chi{j}, chi{k}> = {mult} is negative")
                if mult:
                    row[labels[k]] = mult
            degree = sum(m * degrees[labels.index(lab)] for lab, m in row.items())
            if degree != degrees[i] * degrees[j]:
                raise OrthogonalityFailure(
                    f"chi{i} chi{j} decomposes into degree {degree}, expected {degrees[i] * degrees[j]}"
                )
            products[(labels[i], labels[j])] = row
    basis = [BasisElement(labels[i], degrees[i], labels[table.conjugate_map[i]]) for i in range(n)]
    return FusionRing(table.name, basis, labels[trivial], products)


# -- tables --------------------------------------------------------------------


def unchecked(name, group_order, class_sizes, characters, conjugate_map) -> CharacterTable:
    """A CharacterTable that skips validation on construction."""
    table = object.__new__(CharacterTable)
    for field, value in (
        ("name", name),
        ("group_order", group_order),
        ("class_sizes", tuple(class_sizes)),
        ("characters", tuple(tuple(row) for row in characters)),
        ("conjugate_map", tuple(conjugate_map)),
    ):
        object.__setattr__(table, field, value)
    return table


def fields(table):
    return [table.name, table.group_order, table.class_sizes, table.characters, table.conjugate_map]


def shuffled(name, order, sizes, chars, conj, rng: random.Random):
    """The table with its rows and its non-identity classes in a seeded order."""
    n = len(chars)
    rows = list(range(n))
    rng.shuffle(rows)
    cols = [0] + rng.sample(range(1, len(sizes)), len(sizes) - 1)
    new_row = {old: new for new, old in enumerate(rows)}
    return (
        name,
        order,
        [sizes[c] for c in cols],
        [[chars[r][c] for c in cols] for r in rows],
        [new_row[conj[r]] for r in rows],
    )


def cyclic_fields(n, rng):
    chars = [[Cyclotomic.zeta_power(n, j * k) for k in range(n)] for j in range(n)]
    conj = [(n - j) % n for j in range(n)]
    return shuffled(f"Z{n}", n, [1] * n, chars, conj, rng)


def dihedral_fields(m, rng):
    """D_m, m odd: classes 1, rotations r^k (size 2, k = 1..h), reflections (size m)."""
    h = (m - 1) // 2
    one, zero = Cyclotomic.integer(m, 1), Cyclotomic.integer(m, 0)
    chars = [[one] * (h + 2), [one] * (h + 1) + [-one]]
    for j in range(1, h + 1):
        chars.append(
            [Cyclotomic.integer(m, 2)]
            + [Cyclotomic.zeta_power(m, j * k) + Cyclotomic.zeta_power(m, -j * k) for k in range(1, h + 1)]
            + [zero]
        )
    sizes = [1] + [2] * h + [m]
    return shuffled(f"D{m}", 2 * m, sizes, chars, list(range(h + 2)), rng)


@st.composite
def table_fields(draw):
    family = draw(st.sampled_from(("cyclic", "dihedral", "fixture")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if family == "cyclic":
        return cyclic_fields(draw(st.integers(1, 16)), rng)
    if family == "dihedral":
        return dihedral_fields(draw(st.sampled_from((3, 5, 7, 9, 11, 13))), rng)
    return fields(fr.fixture_character_table(draw(st.sampled_from(FIXTURES))))


@st.composite
def corrupted_fields(draw):
    """What was changed in a valid table (one value, one class size or one
    dual pair), and the changed table."""
    name, order, sizes, chars, conj = draw(table_fields())
    sizes, chars, conj = list(sizes), [list(row) for row in chars], list(conj)
    n, classes = len(chars), len(sizes)
    what = draw(st.sampled_from(("value", "size", "dualpair")))
    if what == "value":
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, classes - 1))
        conductor = chars[0][0].conductor
        delta = Cyclotomic.zeta_power(conductor, draw(st.integers(0, conductor - 1)))
        chars[r][c] = chars[r][c] + (delta if draw(st.booleans()) else -delta)
    elif what == "size":
        c = draw(st.integers(0, classes - 1))
        sizes[c] = draw(st.integers(1, 2 * sizes[c] + 2).filter(lambda s: s != sizes[c]))
        if draw(st.booleans()):
            order = sum(sizes)
    else:
        # pair row i with row j; the rows they leave are paired, or self-dual
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1).filter(lambda j: j != conj[i]))
        leftover = sorted({conj[i], conj[j]} - {i, j})
        conj[i], conj[j] = j, i
        if len(leftover) == 2:
            conj[leftover[0]], conj[leftover[1]] = leftover[1], leftover[0]
        elif leftover:
            conj[leftover[0]] = leftover[0]
    return what, (name, order, sizes, chars, conj)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (NotIntegral, OrthogonalityFailure, InvalidRing, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def counting(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to record the arguments of each call in the list returned."""
    calls, original = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    return calls


# -- tests ---------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(table_fields())
def test_valid_tables_give_the_reference_ring(table_fields):
    table = CharacterTable(*table_fields)
    reference_validate(table)
    ring, expect = fr.char_table_ring(table), reference_ring(table)
    assert ring == expect
    assert fr.write_spec(ring) == fr.write_spec(expect)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_rings_equal_the_reference(name):
    table = fr.fixture_character_table(name)
    assert fr.char_table_ring(table) == reference_ring(table)


@settings(max_examples=150, deadline=None)
@given(corrupted_fields())
def test_corrupted_tables_fail_alike(corrupted):
    what, table_fields = corrupted
    expect = outcome(reference_validate, unchecked(*table_fields))
    assert outcome(unchecked(*table_fields).validate) == expect
    if expect[0] != "ok":  # Z1 with its one class resized stays a valid table
        assert outcome(CharacterTable, *table_fields) == expect
    if what != "dualpair":  # the dual map does not enter the ring arithmetic
        # the ring loop on the unvalidated table: same first failure, or same ring
        ring = outcome(fr.char_table_ring, unchecked(*table_fields))
        assert ring == outcome(reference_ring, unchecked(*table_fields))


def test_negative_multiplicity_names_the_first_pair():
    # row 2 is minus row 1, so <chi0 chi1, chi2> = -1 is the first failure in
    # row-major order; its mirror (1, 0) must not be the one reported
    w = Cyclotomic.zeta_power(3, 1)
    one = Cyclotomic.integer(3, 1)
    row = [one, w, w * w]
    table = unchecked("neg", 3, [1, 1, 1], [[one] * 3, row, [-v for v in row]], [0, 1, 2])
    expect = ("NotIntegral", "<chi0 chi1, chi2> = -1 is negative")
    assert outcome(reference_ring, table) == expect
    assert outcome(fr.char_table_ring, unchecked(*fields(table))) == expect


def test_degree_mismatch_on_an_unvalidated_table():
    # chi1 takes 3 at the identity class but is not a character: every
    # constant of chi0 chi0 is a nonnegative integer, and its degree is wrong
    one = Cyclotomic.integer(1, 1)
    table = unchecked("deg", 2, [1, 1], [[one, one], [3 * one, -one]], [0, 1])
    expect = ("OrthogonalityFailure", "chi0 chi0 decomposes into degree 4, expected 1")
    assert outcome(reference_ring, table) == expect
    assert outcome(fr.char_table_ring, unchecked(*fields(table))) == expect


def test_a_total_not_divisible_by_the_order_fails_alike():
    # <chi0, chi1> = (1*2 + 2*1*0) / 3: the total 2 is an integer, not a multiple of |G|
    text = "group G 3\nconductor 1\nclass 1\nclass 2\nchar 1 1 1\nchar 2 2 0\n"
    one = Cyclotomic.integer(1, 1)
    table = unchecked("G", 3, [1, 2], [[one, one], [2 * one, 0 * one]], [0, 1])
    expect = ("OrthogonalityFailure", "<chi0, chi1>: inner product total 2 is not divisible by |G| = 3")
    assert outcome(reference_validate, table) == expect
    assert outcome(table.validate) == expect
    assert outcome(fr.parse_character_table, text) == expect


def test_a_conjugate_fault_in_a_table_of_no_group_is_found_value_by_value():
    # chi1 is declared self-dual but takes z at class 1; column 2 sums to
    # 1 + 1 + 4 = 6, not |G|/|c| = 3, so L = -1, M = 1 and no residue is trusted
    text = "group Z3 3\nconductor 3\nclass 1\nclass 1\nclass 1\nchar 1 1 1 1\nchar 1 1 z z^2\nchar 1 1 z^2 2*z\n"
    one, z = Cyclotomic.integer(3, 1), Cyclotomic.zeta_power(3, 1)
    table = unchecked("Z3", 3, [1, 1, 1], [[one] * 3, [one, z, z * z], [one, z * z, 2 * z]], [0, 1, 2])
    evaluation = _Evaluation(table)
    assert (evaluation.bound, evaluation.modulus) == (-1, 1)
    expect = ("OrthogonalityFailure", "row 1 is not the complex conjugate of row 1 at class 1")
    assert outcome(reference_validate, table) == expect
    assert outcome(table.validate) == expect
    assert outcome(fr.parse_character_table, text) == expect


def test_a_parsed_table_is_evaluated_once(monkeypatch):
    # validate evaluates the table and keeps the evaluation; char_table_ring reads it
    built = []

    class Counting(_Evaluation):
        def __init__(self, table):
            built.append(table)
            super().__init__(table)

    monkeypatch.setattr("fusionring.chartable._Evaluation", Counting)
    text = "group Z3 3\nconductor 3\nclass 1\nclass 1\nclass 1\nchar 1 1 1 1\nchar 1 1 z z^2\nchar 1 1 z^2 z\ndualpair 1 2\n"
    table = fr.parse_character_table(text)
    assert fr.char_table_ring(table) == reference_ring(table)
    assert built == [table]


@functools.cache
def bench_tables() -> dict[str, str]:
    """The tables that tools/chartable_tables.py writes, among them the bench generator's at seed 1."""
    spec = importlib.util.spec_from_file_location("chartable_tables", REPO / "tools" / "chartable_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tables()


@pytest.mark.parametrize("name,most", [("d45_1", 73), ("z60_1", 120)])
def test_each_distinct_value_token_is_parsed_once(monkeypatch, name, most):
    # One Cyclotomic per distinct token, and one per class for the bound's column
    # sums; parsing each entry, and each row's degree once more, built 624 on D45.
    text, built = bench_tables()[f"{name}.chartab"], []
    init = Cyclotomic.__init__
    monkeypatch.setattr(Cyclotomic, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    table = fr.parse_character_table(text)
    tokens = {v for line in text.splitlines() if line.startswith("char") for v in line.split()[2:]}
    assert len({id(v) for row in table.characters for v in row}) == len(tokens)
    assert len(tokens) + len(table.class_sizes) == most
    assert len(built) <= most


def test_the_cyclic_table_holds_each_power_of_zeta_once():
    table = fr.cyclic_character_table(12)
    assert len({id(v) for row in table.characters for v in row}) == 12


def test_each_value_object_is_mapped_into_z_mod_m_once():
    # one residue pair per value object, which every entry holding it shares:
    # 12 residue objects for the 144 entries, where mapping each entry made 105
    evaluation = _Evaluation(fr.cyclic_character_table(12))
    assert len({id(r) for row in evaluation.rows for r in row}) == 12
    assert len(evaluation.images) == 12


def test_equal_values_held_as_distinct_objects_evaluate_alike():
    # a table built entry by entry, or a file that writes z^2 as z^14, holds
    # equal values as distinct objects; each is mapped on its own, to the same residues
    shared = fr.cyclic_character_table(12)
    name, order, sizes, chars, conj = fields(shared)
    copies = unchecked(name, order, sizes, [[Cyclotomic(12, v.coeffs) for v in row] for row in chars], conj)
    assert len({id(v) for row in copies.characters for v in row}) == 144
    a, b = _Evaluation(shared), _Evaluation(copies)
    assert (a.bound, a.modulus, a.rows, a.weighted) == (b.bound, b.modulus, b.rows, b.weighted)
    assert fr.char_table_ring(copies) == fr.char_table_ring(shared)
    plain, synonyms = (fr.parse_character_table(bench_tables()[f"z12_{k}.chartab"]) for k in ("1", "synonyms"))
    assert len({id(v) for row in synonyms.characters for v in row}) > 12
    assert synonyms._evaluation.rows == plain._evaluation.rows
    assert fr.char_table_ring(synonyms) == fr.char_table_ring(plain)


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    # the evaluation that validate keeps on the table holds no reference back to it
    gc.disable()
    try:
        table = fr.fixture_character_table("s3")
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


def test_an_all_ones_row_of_another_conductor_is_no_trivial_row():
    # compared with the table's own 1; a bare `v == 1` would take row 1 as trivial
    # and then refuse the table for its mixed conductors
    one, other = Cyclotomic.integer(1, 1), Cyclotomic.integer(2, 1)
    table = unchecked("Z2", 2, [1, 1], [[one, -one], [other, other]], [0, 1])
    assert outcome(fr.char_table_ring, table) == ("InvalidRing", "table has no trivial character row")


# -- the evaluation modulo Phi_N(w) ------------------------------------------------


@functools.cache
def cyclotomic_value(n, w):
    """Phi_n(w) for w >= 2: w^n - 1 divided by Phi_d(w) for each proper divisor d of n."""
    value = w**n - 1
    for d in range(1, n):
        if n % d == 0:
            value //= cyclotomic_value(d, w)
    return value


def test_the_modulus_exceeds_the_norm_bound_and_carries_an_nth_root_of_unity():
    for n in range(1, 301):
        phi = sum(math.gcd(k, n) == 1 for k in range(1, n + 1))
        for bound in (1, 972):
            w = 2 * bound + 2
            modulus = cyclotomic_value(n, w)
            assert modulus > (2 * bound) ** phi and pow(w, n, modulus) == 1, (n, bound)
        # the trivial group's table has L = 1 at any conductor, and its one value 1
        # uses no exponent but 0: s = N, and M = Phi_1(4)
        trivial = unchecked("G", 1, [1], [[Cyclotomic.integer(n, 1)]], [0])
        assert _Evaluation(trivial).modulus == cyclotomic_value(1, 4) == 3, n
    for name in FIXTURES:
        table = fr.fixture_character_table(name)
        evaluation = _Evaluation(table)
        assert evaluation.modulus == cyclotomic_value(table.conductor, 2 * evaluation.bound + 2), name


# A table that passes the checks of a group's table and is no group's, as
# tools/chartable_tables.py builds it: the class ratios |G|/|c| are |G| and
# the first nine Sylvester numbers 2, 3, 7, 43, ..., whose product is the
# 105-digit |G|, so that their reciprocals and 1/|G| sum to 1.  Below a
# trivial row, each column's squares sum to |G|/|c| - 1; the rows are not
# orthonormal.  At N = 5040 its M would have about phi(5040) * log2(2L + 2) =
# 600k bits; its values are integers, so it evaluates in Z, modulo 2L + 1.
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


def _crafted(text: str) -> CharacterTable:
    """A crafted table's text as a table that skipped validation."""
    rows = [line.split() for line in text.splitlines()]
    order, sizes = int(rows[0][2]), [int(r[1]) for r in rows if r[0] == "class"]
    chars = [[Cyclotomic.integer(5040, int(v)) for v in r[2:]] for r in rows if r[0] == "char"]
    return unchecked(rows[0][1], order, sizes, chars, range(len(chars)))


def _crafted_10() -> CharacterTable:
    return _crafted(CRAFTED_10)


def test_a_crafted_table_near_landaus_bound_fails_alike_and_fast():
    expect = outcome(reference_validate, _crafted_10())
    assert expect[0] == "OrthogonalityFailure"
    start = time.perf_counter()
    assert outcome(fr.parse_character_table, CRAFTED_10) == expect
    # under a line tracer, as in tools/untraced_lines.py, every line runs several times slower
    assert time.perf_counter() - start < 2.0 or sys.gettrace() is not None


@pytest.mark.parametrize("classes", [10, 11, 12, 13])
def test_a_crafted_table_is_decided_by_its_residues_alone(monkeypatch, classes):
    # <chi0, chi1>'s residue lies within L, so it is the total and words the fault:
    # no total is derived again in Cyclotomic arithmetic and no value is conjugated
    text = bench_tables()[f"crafted{classes}.chartab"]
    expect = outcome(reference_validate, _crafted(text))
    assert expect[0] == "OrthogonalityFailure"
    exact, conj = counting(monkeypatch, _Evaluation, "_exact"), counting(monkeypatch, Cyclotomic, "conj")
    assert outcome(fr.parse_character_table, text) == expect
    assert (exact, conj) == ([], [])


def test_a_bad_pair_is_refused_on_its_residues(monkeypatch):
    # conj(chi0(c)) and chi9(c) have unequal residues, which proves them unequal values
    conj = counting(monkeypatch, Cyclotomic, "conj")
    assert outcome(fr.parse_character_table, bench_tables()["z12_badpair.chartab"]) == (
        "OrthogonalityFailure", "row 9 is not the complex conjugate of row 0 at class 1"
    )
    assert conj == []


@pytest.mark.parametrize("name,total", [("z5_swapped", "1+z+z^2+2*z^3"), ("z5_swapped_at10", "-z+z^3")])
def test_a_total_that_is_not_rational_is_the_one_derived_exactly(monkeypatch, name, total):
    # the rows pair and the columns pass the checks of a group's table, so L = 60; the
    # residue of <chi0, chi1>'s total lies above L, so the total is not rational
    exact = counting(monkeypatch, _Evaluation, "_exact")
    assert outcome(fr.parse_character_table, bench_tables()[f"{name}.chartab"]) == (
        "OrthogonalityFailure", f"<chi0, chi1>: inner product total {total} is not rational"
    )
    assert len(exact) == 1 and exact[0][0].bound == 60


def test_each_value_object_gets_one_term_list(monkeypatch):
    # Z60's table holds 60 value objects in 3600 entries; a term list per entry built 3600
    import fusionring.chartable as chartable

    table = fr.parse_character_table(bench_tables()["z60_1.chartab"])
    coeffs, walked = {id(v.coeffs) for row in table.characters for v in row}, []
    monkeypatch.setattr(chartable, "enumerate", lambda it, *a: walked.append(id(it)) or enumerate(it, *a), raising=False)
    _Evaluation(table)
    assert sum(k in coeffs for k in walked) == len(coeffs) == 60


def test_a_table_of_integers_evaluates_in_z_at_any_conductor():
    # every exponent is 0, so s = N and M = Phi_1(2L + 2) = 2L + 1
    one = fr.parse_character_table(bench_tables()["one5040.chartab"])._evaluation
    assert (one.bound, one.modulus) == (1, 3)
    crafted = _Evaluation(_crafted_10())
    assert crafted.bound > 0 and crafted.modulus == 2 * crafted.bound + 1
    assert crafted.modulus.bit_length() < 2000  # 599,399 bits modulo Phi_5040(2L + 2)


@pytest.mark.parametrize("conductor,field", [(9, 3), (12, 6)])
def test_a_table_evaluates_in_the_field_its_values_use(conductor, field):
    # Z3's table at N = 9 writes its values z^3 and z^6, at N = 12 z^4 = z^2 - 1 and
    # z^8 = -z^2: the exponents share s = 3 and s = 2, and the ring is Z3's
    table = fr.parse_character_table(bench_tables()[f"z3_at{conductor}.chartab"])
    evaluation, fixture = table._evaluation, fr.fixture_character_table("z3")
    assert (table.conductor, evaluation.bound) == (conductor, fixture._evaluation.bound) == (conductor, 18)
    assert evaluation.modulus == cyclotomic_value(field, 2 * evaluation.bound + 2)
    assert fr.write_spec(fr.char_table_ring(table)) == fr.write_spec(fr.char_table_ring(fixture))


def _mixed_tables():
    one1, one2, one3 = Cyclotomic.integer(1, 1), Cyclotomic.integer(2, 1), Cyclotomic.integer(3, 1)
    z = Cyclotomic.zeta_power(3, 1)
    return {
        # <chi0, chi0> = (4 + 0) / 2 fails before any inner product mixes conductors
        "degree": ("Z2", 2, [1, 1], [[2 * one1, 0 * one1], [one2, one2]], [0, 1]),
        # Z2's table with its sign row at conductor 2: <chi0, chi1> mixes them
        "sign-row": ("Z2", 2, [1, 1], [[one1, one1], [one2, -one2]], [0, 1]),
        # Z3's table with z^2 written as zeta_6^4 in row 2: a pair of conductors 3 and 6
        "pair": ("Z3", 3, [1, 1, 1], [[one3] * 3, [one3, z, z * z], [one3, Cyclotomic.zeta_power(6, 4), z]], [0, 2, 1]),
    }


@st.composite
def mixed_fields(draw):
    """A valid table with one value written at a multiple of its conductor."""
    name, order, sizes, chars, conj = draw(table_fields())
    chars = [list(row) for row in chars]
    r, c = draw(st.integers(0, len(chars) - 1)), draw(st.integers(0, len(sizes) - 1))
    k, value = draw(st.integers(2, 3)), chars[r][c]
    chars[r][c] = Cyclotomic(k * value.conductor, [x for e in value.coeffs for x in (e,) + (0,) * (k - 1)])
    return name, order, sizes, chars, conj


def _mixed_fail_alike(table_fields):
    expect = outcome(reference_validate, unchecked(*table_fields))
    assert outcome(unchecked(*table_fields).validate) == expect
    if expect[0] != "ok":  # a one-value table has no other value to mix with
        assert outcome(CharacterTable, *table_fields) == expect
    ring = outcome(fr.char_table_ring, unchecked(*table_fields))
    assert ring == outcome(reference_ring, unchecked(*table_fields))
    return expect


@pytest.mark.parametrize("name,expect", [
    ("degree", ("OrthogonalityFailure", "<chi0, chi0> = 2, expected 1")),
    ("sign-row", ("ValueError", "mixed conductors")),
    ("pair", ("OrthogonalityFailure", "row 2 is not the complex conjugate of row 1 at class 1")),
])
def test_a_table_that_mixes_conductors_fails_as_the_reference_does(name, expect):
    # its values lie in no common field: L = -1, M = 1, and Cyclotomic arithmetic
    # refuses the first inner product that mixes them
    evaluation = _Evaluation(unchecked(*_mixed_tables()[name]))
    assert (evaluation.bound, evaluation.modulus) == (-1, 1)
    assert _mixed_fail_alike(_mixed_tables()[name]) == expect


@settings(max_examples=40, deadline=None)
@given(mixed_fields())
def test_tables_with_a_value_at_another_conductor_fail_alike(table_fields):
    _mixed_fail_alike(table_fields)


def _dihedral(n):
    return CharacterTable(*dihedral_fields(n, random.Random(n)))


GENERATED = [(f"Z{n}", lambda n=n: fr.cyclic_character_table(n)) for n in range(1, 31)] + [
    (f"D{n}", lambda n=n: _dihedral(n)) for n in range(3, 26, 2)
]


@pytest.mark.parametrize("build", [b for _, b in GENERATED], ids=[name for name, _ in GENERATED])
def test_generated_tables_give_the_reference_constants(build):
    """Every constant of a rank <= 9 table, and a seeded sample of 40 of a
    larger one (the reference takes 29 s for all of Z30's)."""
    table = build()
    assert _Evaluation(table).bound > 0  # a group's table: its constants come from the residues
    ring = fr.char_table_ring(table)
    chars, n = table.characters, len(table.characters)
    if n <= 9:
        reference_validate(table)
        assert ring == reference_ring(table)
        return
    trivial = next(r for r in range(n) if all(v == 1 for v in chars[r]))
    index = [ring.index("1" if r == trivial else f"chi{r}") for r in range(n)]
    rng = random.Random(n)
    for _ in range(40):
        i, j, k = (rng.randrange(n) for _ in range(3))
        expect = reference_inner(table, [a * b for a, b in zip(chars[i], chars[j])], chars[k])
        assert ring.product_row(index[i], index[j])[index[k]] == expect, (i, j, k)


def test_the_bound_is_read_off_the_columns():
    # S3: classes of sizes 1, 3, 2 with centralizers 6, 2, 3, so L = 1*15 + 3*3 + 2*6
    evaluation = _Evaluation(fr.fixture_character_table("s3"))
    assert evaluation.bound == 36
    assert evaluation.modulus == 73  # Phi_1(74)


def test_a_column_preserving_corruption_fails_through_the_residues():
    # S3's trivial and 2-dimensional rows trade their values at the class of
    # size 2: every column keeps its sum of squares, so the residues are
    # trusted, and the fault is worded alike
    name, order, sizes, chars, conj = fields(fr.fixture_character_table("s3"))
    chars = [list(row) for row in chars]
    chars[0][2], chars[2][2] = chars[2][2], chars[0][2]
    table = unchecked(name, order, sizes, chars, conj)
    assert _Evaluation(table).bound == 36
    expect = outcome(reference_validate, table)
    assert expect[0] == "OrthogonalityFailure"
    assert outcome(table.validate) == expect
    assert outcome(fr.char_table_ring, table) == outcome(reference_ring, table)


def _no_group_tables():
    big, one = 10**1000 + 7, Cyclotomic.integer(5040, 1)
    w, v = Cyclotomic.zeta_power(5040, 1680), Cyclotomic.zeta_power(5040, 7)
    value = w + big * (v - v.conj())
    return {
        # a many-digit degree: <chi0, chi0> = big^2
        "degree": ("Z1", 1, [1], [[big * one]], [0]),
        # a many-digit coefficient at a class other than the identity
        "value": ("Z3", 3, [1, 1, 1], [[one] * 3, [one, value, w.conj()], [one, value.conj(), w]], [0, 2, 1]),
        # one class of a 401-digit size: a valid table, though no group's
        "class-size": ("G", 10**400, [10**400], [[one]], [0]),
    }


@pytest.mark.parametrize("name", list(_no_group_tables()))
def test_tables_of_no_group_trust_no_residue(name):
    """M has about phi(N) * log2(2L) bits, so a table with many-digit numbers
    would be evaluated modulo millions of bits; one that fails the checks of
    a group's table has M = 1, and is decided value by value, alike."""
    table = unchecked(*_no_group_tables()[name])
    evaluation = _Evaluation(table)
    assert (evaluation.bound, evaluation.modulus) == (-1, 1)
    assert outcome(table.validate) == outcome(reference_validate, table)
    assert outcome(fr.char_table_ring, table) == outcome(reference_ring, table)
