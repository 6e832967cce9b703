"""The character-table kernel against the value-by-value cyclotomic route.

The reference below is the route the kernel replaced: every sum, product and
conjugate is a reduced ``Cyclotomic``, and the ring loop runs over all
(i, j, k).  Valid tables must give equal rings; corrupted tables must fail
validation, and the ring loop when it is run unvalidated, with the same
exception class and message on both routes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring.chartable import CharacterTable, NotIntegral, OrthogonalityFailure
from fusionring.cyclotomic import Cyclotomic
from fusionring.ring import BasisElement, FusionRing, InvalidRing

FIXTURES = ("s3", "a4", "f21", "z3")


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
