"""The character-table kernel against the value-by-value cyclotomic route.

The reference below is the route the kernel replaced: every total is summed
value by value on coefficient lists (``cyclo_reference``) and reduced once to a
``Cyclotomic``, and the ring loop runs over all (i, j, k).  Valid tables must
give equal rings.  The kernel refuses up front a table that fails a group
table's checks or is not Galois-stable, with the message that
:func:`reference_refusal` derives; the reference must refuse it too.  Every
other corrupted table must fail validation as the reference does, with the
same exception class and message; a table reaches the ring only through the
constructor, so the ring route refuses it alike.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import sys
import time
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring.chartable import (
    CharacterTable,
    NotIntegral,
    OrthogonalityFailure,
)
from fusionring.cyclotomic import Cyclotomic, _small_modulus
from fusionring.ring import BasisElement, FusionRing, InvalidRing

from conftest import CRAFTED_10, bench_tables
from cyclo_reference import hermitian, lifted, times, zeta_sum

FIXTURES = ("s3", "a4", "f21", "z3")


# -- reference route -----------------------------------------------------------


def reference_inner(table, phi, psi) -> int:
    """<phi, psi> for rows of coefficient lists modulo x^N - 1, as :func:`lifted` gives them."""
    total = hermitian(len(psi[0]), zip(table.class_sizes, phi, psi))
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
    reference_duals_and_degrees(table)
    rows = lifted(table)
    for i in range(n):
        for j in range(n):
            try:
                val = reference_inner(table, rows[i], rows[j])
            except NotIntegral as exc:
                raise OrthogonalityFailure(f"<chi{i}, chi{j}>: {exc}") from exc
            expect = 1 if i == j else 0
            if val != expect:
                raise OrthogonalityFailure(f"<chi{i}, chi{j}> = {val}, expected {expect}")


def reference_duals_and_degrees(table) -> None:
    """The checks of the dual map and the degrees, which the kernel's gate makes last."""
    for i, j in enumerate(table.conjugate_map):
        if table.conjugate_map[j] != i:
            raise InvalidRing("conjugate map is not an involution")
        for c in range(len(table.class_sizes)):
            if table.characters[i][c].galois(-1) != table.characters[j][c]:
                raise OrthogonalityFailure(
                    f"row {j} is not the complex conjugate of row {i} at class {c}"
                )
    for row in table.characters:
        deg = row[0]
        if not deg.is_integer() or deg.integer_value() < 1:
            raise InvalidRing("character degree (value at the identity) must be a positive integer")


def reference_ring(table) -> FusionRing:
    """The all-(i, j, k) loop, plus the per-row degree identity."""
    n, rows = len(table.characters), lifted(table)
    trivial = next((i for i, row in enumerate(table.characters) if all(v == 1 for v in row)), None)
    if trivial is None:
        raise InvalidRing("table has no trivial character row")
    labels = tuple("1" if i == trivial else f"chi{i}" for i in range(n))
    degrees = table.degrees
    products = {}
    for i in range(n):
        for j in range(n):
            prod = [times(a, b) for a, b in zip(rows[i], rows[j])]
            row = {}
            for k in range(n):
                mult = reference_inner(table, prod, rows[k])
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


def galois(value, a) -> Cyclotomic:
    """sigma_a at the value's own conductor N: each zeta_N^e goes to zeta_N^(a*e)."""
    coeffs = [0] * value.conductor
    for e, x in enumerate(value.coeffs):
        coeffs[a * e % value.conductor] += x
    return Cyclotomic(value.conductor, coeffs)


def field_of(table) -> int:
    """K = N/s, for s the gcd of N and every exponent that a value uses."""
    n = table.characters[0][0].conductor
    return n // math.gcd(n, *(e for row in table.characters for v in row for e, x in enumerate(v.coeffs) if x))


def reference_refusal(table):
    """The message of the first up-front check that ``table`` fails, or None if it passes them all:
    the checks of a group's table, value by value, then every unit a of (Z/K)^x in turn, where the
    kernel tries only generators."""
    sizes, order, chars = table.class_sizes, table.group_order, table.characters
    n = chars[0][0].conductor
    if sum(sizes) != order:
        return f"class sizes sum to {sum(sizes)}, group order is {order}"
    if sizes[0] != 1:
        return f"class 0 has size {sizes[0]}; the identity class comes first, of size 1"
    stray = next((v for row in chars for v in row if v.conductor != n), None)
    if stray is not None:
        return f"a value of conductor {stray.conductor} in a table of conductor {n}"
    for c, size in enumerate(sizes):
        norm = hermitian(n, ((size, row[c].coeffs, row[c].coeffs) for row in chars))
        if norm != order:
            return f"class {c}: |c| * sum_i |chi_i(c)|^2 is {norm!r}, not |G| = {order}"
    k, columns = field_of(table), Counter(zip(zip(*chars), sizes))
    for a in (a for a in range(2, k) if math.gcd(a, k) == 1):
        if Counter({(tuple(galois(v, a) for v in col), size): m for (col, size), m in columns.items()}) != columns:
            return f"the Galois map zeta_{k} -> zeta_{k}^{a} does not permute the columns within their class sizes"
    return None


def unit_generators(k) -> list[int]:
    """Units that generate (Z/k)^x, each the least unit outside the subgroup of those before it."""
    gens, subgroup = [], {1}
    for a in range(2, k):
        if math.gcd(a, k) == 1 and a not in subgroup:
            gens.append(a)
            while not {x * a % k for x in subgroup} <= subgroup:
                subgroup |= {x * a % k for x in subgroup}
    return gens


def galois_automorphisms(table, ring, generators_only=False) -> int:
    """Check, for every unit a of (Z/K)^x, or for generators of it, that the row permutation pi_a
    with sigma_a(chi_i) = chi_{pi_a(i)} is an automorphism of ``ring``: N_{pi i, pi j}^{pi k} =
    N_ij^k.  Returns the number of units checked."""
    chars, k = table.characters, field_of(table)
    row_of = {tuple(row): r for r, row in enumerate(chars)}
    trivial = next(r for r, row in enumerate(chars) if all(v == 1 for v in row))
    at = [ring.index("1" if r == trivial else f"chi{r}") for r in range(len(chars))]  # each row's basis index
    units = unit_generators(k) if generators_only else [a for a in range(2, k) if math.gcd(a, k) == 1]
    for a in units:
        pi = [0] * len(at)  # pi_a on basis indices
        for r, row in enumerate(chars):
            pi[at[r]] = at[row_of[tuple(galois(v, a) for v in row)]]
        inverse = sorted(range(len(pi)), key=pi.__getitem__)
        for i in range(len(pi)):
            for j in range(len(pi)):
                expect = tuple(map(ring.product_row(i, j).__getitem__, inverse))
                assert ring.product_row(pi[i], pi[j]) == expect, (a, i, j)
    return len(units)


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


def table_ring(*table_fields) -> FusionRing:
    """The one route to a ring: the constructor's gate, then the ring loop on its residues."""
    return fr.char_table_ring(CharacterTable(*table_fields))


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
    one, zero = Cyclotomic(m, [1]), Cyclotomic(m, [0])
    chars = [[one] * (h + 2), [one] * (h + 1) + [Cyclotomic(m, [-1])]]
    for j in range(1, h + 1):
        chars.append([Cyclotomic(m, [2])] + [zeta_sum(m, j * k, -j * k) for k in range(1, h + 1)] + [zero])
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
    """A valid table with one value, one class size or one dual pair changed."""
    name, order, sizes, chars, conj = draw(table_fields())
    sizes, chars, conj = list(sizes), [list(row) for row in chars], list(conj)
    n, classes = len(chars), len(sizes)
    what = draw(st.sampled_from(("value", "size", "dualpair")))
    if what == "value":
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, classes - 1))
        conductor, coeffs = chars[0][0].conductor, list(chars[r][c].coeffs)
        coeffs[draw(st.integers(0, conductor - 1))] += 1 if draw(st.booleans()) else -1
        chars[r][c] = Cyclotomic(conductor, coeffs)
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
    return name, order, sizes, chars, conj


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


def modulus_choices(monkeypatch) -> list:
    """Patch the evaluation's ``_small_modulus`` to record, for each table it evaluates, (K, L, q):
    the field and the bound L read off its arguments K and 2L + 1, and q off its result (w, q)."""
    import fusionring.chartable as chartable

    choices, original = [], chartable._small_modulus

    def spy(k, least):
        w, q = original(k, least)
        choices.append((k, (least - 1) // 2, q))
        return w, q

    monkeypatch.setattr(chartable, "_small_modulus", spy)
    return choices


# -- tests ---------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(table_fields())
def test_valid_tables_give_the_reference_ring(table_fields):
    table = CharacterTable(*table_fields)
    reference_validate(table)
    ring, expect = fr.char_table_ring(table), reference_ring(table)
    assert ring == expect
    assert fr.write_spec(ring) == fr.write_spec(expect)
    galois_automorphisms(table, ring)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_rings_equal_the_reference(name):
    table = fr.fixture_character_table(name)
    ring = fr.char_table_ring(table)
    assert ring == reference_ring(table)
    assert galois_automorphisms(table, ring) == {"s3": 0, "a4": 1, "f21": 11, "z3": 1}[name]


# The one table the reference takes and the kernel refuses: Z1 with its one class resized, which
# passes every check of the reference but is refused for a first class of another size than 1.
def resized_z1(table_fields) -> bool:
    name, order, sizes, chars, conj = table_fields
    return len(sizes) == 1 and sizes[0] != 1


@settings(max_examples=150, deadline=None)
@given(corrupted_fields())
def test_corrupted_tables_fail_alike(table_fields):
    refusal = reference_refusal(unchecked(*table_fields))
    if refusal is not None:  # refused up front, where the reference refuses too, but for the resized Z1
        assert outcome(reference_validate, unchecked(*table_fields))[0] != "ok" or resized_z1(table_fields)
        gate = ("OrthogonalityFailure", refusal)
    else:
        gate = outcome(reference_duals_and_degrees, unchecked(*table_fields))
    # a table the gate passes fails validation as the reference does, and its ring loop gives the same
    # first failure or the same ring
    expect = outcome(reference_validate, unchecked(*table_fields)) if gate[0] == "ok" else gate
    assert outcome(unchecked(*table_fields).validate) == expect
    if expect[0] != "ok":
        assert outcome(CharacterTable, *table_fields) == expect
    # a table reaches the ring loop only through the constructor's gate, so a table that validation
    # refuses gets the same fault on the ring route
    ring = outcome(reference_ring, unchecked(*table_fields)) if expect[0] == "ok" else expect
    assert outcome(table_ring, *table_fields) == ring


def test_negative_multiplicity_names_the_first_pair():
    # an orthonormal table of integers, of no group, passes the gate and validates; but
    # <chi1 chi1, chi1> = (1 - 16 + 3) / 12 = -1 is the first failure in row-major order
    rows = [[1, 1, 1, 1], [1, -2, 1, 0], [1, 1, 1, -1], [3, 0, -1, 0]]
    chars = tuple(tuple(Cyclotomic(1, [x]) for x in row) for row in rows)
    table = CharacterTable("G12", 12, (1, 2, 3, 6), chars, (0, 1, 2, 3))
    assert fields(fr.parse_character_table(bench_tables()["g12_negative.chartab"])) == fields(table)
    expect = ("NotIntegral", "<chi1 chi1, chi1> = -1 is negative")
    assert outcome(reference_validate, table) == ("ok", None)
    assert outcome(reference_ring, table) == expect
    assert outcome(fr.char_table_ring, table) == expect
    # this table's ring loop would also find a negative multiplicity, but it passes only the checks
    # before orthonormality: <chi0, chi1> = (1 - 3 - 4 - 6) / 12 = -1 refuses it on every route
    rows = [[1, 1, 1, 1], [1, -3, -1, -1], [1, -1, -1, 0], [3, -1, 0, 0]]
    other = ("neg", 12, [1, 1, 4, 6], [[Cyclotomic(1, [x]) for x in row] for row in rows], [0, 1, 2, 3])
    assert outcome(reference_ring, unchecked(*other)) == ("NotIntegral", "<chi0 chi0, chi1> = -1 is negative")
    expect = ("OrthogonalityFailure", "<chi0, chi1> = -1, expected 0")
    assert reference_refusal(unchecked(*other)) is None
    assert outcome(reference_validate, unchecked(*other)) == outcome(unchecked(*other).validate) == expect
    assert outcome(CharacterTable, *other) == outcome(table_ring, *other) == expect


def test_degree_mismatch_on_an_unvalidated_table():
    # two trivial rows pass every check before orthonormality: each column's squares sum to
    # |G| = 2, and the values are integers; the reference's ring loop finds chi0 chi0 = chi0 + chi1,
    # of degree 2, but every route refuses the table first, for <chi0, chi1> = 1
    one = Cyclotomic(1, [1])
    both = ("deg", 2, [1, 1], [[one, one], [one, one]], [0, 1])
    expect = ("OrthogonalityFailure", "<chi0, chi1> = 1, expected 0")
    assert outcome(reference_ring, unchecked(*both)) == (
        "OrthogonalityFailure", "chi0 chi0 decomposes into degree 2, expected 1"
    )
    assert outcome(reference_validate, unchecked(*both)) == outcome(unchecked(*both).validate) == expect
    assert outcome(CharacterTable, *both) == outcome(table_ring, *both) == expect
    # chi1 = (3, -1) is refused up front, where the reference reads a degree of 4
    table = unchecked("deg", 2, [1, 1], [[one, one], [Cyclotomic(1, [3]), Cyclotomic(1, [-1])]], [0, 1])
    refused = ("OrthogonalityFailure", "class 0: |c| * sum_i |chi_i(c)|^2 is 10, not |G| = 2")
    assert outcome(table_ring, *fields(table)) == refused
    assert outcome(reference_ring, table) == ("OrthogonalityFailure", "chi0 chi0 decomposes into degree 4, expected 1")


def test_a_total_not_divisible_by_the_order_fails_alike():
    # every column's squares sum to |G| = 3, and <chi0, chi1> = (1 + 1 - 1) / 3: the total 1 is
    # an integer, not a multiple of |G|
    text = "group G 3\nconductor 1\nclass 1\nclass 1\nclass 1\nchar 1 1 -1 -1\nchar 1 1 -1 1\nchar 1 1 1 1\n"
    one, neg = Cyclotomic(1, [1]), Cyclotomic(1, [-1])
    table = unchecked("G", 3, [1, 1, 1], [[one, neg, neg], [one, neg, one], [one, one, one]], [0, 1, 2])
    expect = ("OrthogonalityFailure", "<chi0, chi1>: inner product total 1 is not divisible by |G| = 3")
    assert reference_refusal(table) is None
    assert outcome(reference_validate, table) == expect
    assert outcome(table.validate) == expect
    assert outcome(fr.parse_character_table, text) == expect
    # <chi0, chi1> = (1*2 + 2*1*0) / 3 of a table whose first column's squares sum to 5 is refused up front
    text = "group G 3\nconductor 1\nclass 1\nclass 2\nchar 1 1 1\nchar 2 2 0\n"
    assert outcome(fr.parse_character_table, text) == (
        "OrthogonalityFailure", "class 0: |c| * sum_i |chi_i(c)|^2 is 5, not |G| = 3"
    )


def test_a_table_that_fails_a_column_check_is_refused_before_its_pairs_are_compared():
    # chi1 is declared self-dual but takes z at class 1, which the reference finds first; column 2
    # sums to 1 + 1 + 4 = 6, not |G|/|c| = 3, so the table is refused before any pair is compared
    text = "group Z3 3\nconductor 3\nclass 1\nclass 1\nclass 1\nchar 1 1 1 1\nchar 1 1 z z^2\nchar 1 1 z^2 2*z\n"
    one, z, z2 = Cyclotomic(3, [1]), Cyclotomic.zeta_power(3, 1), Cyclotomic.zeta_power(3, 2)
    table = unchecked("Z3", 3, [1, 1, 1], [[one] * 3, [one, z, z2], [one, z2, Cyclotomic(3, [0, 2])]], [0, 1, 2])
    expect = ("OrthogonalityFailure", "class 2: |c| * sum_i |chi_i(c)|^2 is 6, not |G| = 3")
    assert reference_refusal(table) == expect[1]
    assert outcome(reference_validate, table) == (
        "OrthogonalityFailure", "row 1 is not the complex conjugate of row 1 at class 1"
    )
    assert outcome(table.validate) == expect
    assert outcome(fr.parse_character_table, text) == expect


def test_a_parsed_table_is_evaluated_once(monkeypatch):
    # validate evaluates the table and keeps its labels and residues on it; char_table_ring reads them
    built = counting(monkeypatch, CharacterTable, "validate")
    text = "group Z3 3\nconductor 3\nclass 1\nclass 1\nclass 1\nchar 1 1 1 1\nchar 1 1 z z^2\nchar 1 1 z^2 z\ndualpair 1 2\n"
    table = fr.parse_character_table(text)
    assert fr.char_table_ring(table) == reference_ring(table)
    assert built == [(table,)]


@pytest.mark.parametrize("name,objects,values,generators", [("d45_1", 49, 25, 2), ("z60_1", 60, 60, 3)])
def test_each_distinct_value_token_is_parsed_once(monkeypatch, name, objects, values, generators):
    # One Cyclotomic per distinct token; parsing each entry, and each row's degree once
    # more, built 624 on D45.  The evaluation builds one per class for the column norms and,
    # per distinct value (D45 writes some twice, as z^a+z^b and z^b+z^a, as two objects), its
    # label in Z[zeta_K], its conjugate and its image under each generator sigma_a of the
    # Galois group that the check tries.
    text, built, evaluated = bench_tables()[f"{name}.chartab"], [], []
    init, evaluate = Cyclotomic.__init__, CharacterTable.validate
    monkeypatch.setattr(Cyclotomic, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    monkeypatch.setattr(CharacterTable, "validate", lambda self: evaluated.append(
        -len(built)) or evaluate(self) or evaluated.append(len(built)))
    table = fr.parse_character_table(text)
    tokens = {v for line in text.splitlines() if line.startswith("char") for v in line.split()[2:]}
    assert len({id(v) for row in table.characters for v in row}) == len(tokens) == objects
    assert len(built) - sum(evaluated) == len(tokens)
    assert sum(evaluated) == len(table.class_sizes) + (2 + generators) * values


def test_each_entry_is_hashed_once(monkeypatch):
    # the gate labels each entry with one dict lookup, and each distinct value is hashed a few times more:
    # its label in Z[zeta_K], its conjugate and its image under each generator sigma_a; three hashes per
    # entry would make 11220 on Z60
    original, hashed = Cyclotomic.__hash__, []
    monkeypatch.setattr(Cyclotomic, "__hash__", lambda self: hashed.append(1) or original(self))
    table = fr.parse_character_table(bench_tables()["z60_1.chartab"])
    hashes = len(hashed)
    entries, values = sum(map(len, table.characters)), len(table.conjugate)
    assert (entries, values) == (3600, 60)
    assert hashes <= entries + 8 * values


def test_the_cyclic_table_holds_each_power_of_zeta_once():
    table = fr.cyclic_character_table(12)
    assert len({id(v) for row in table.characters for v in row}) == 12


def test_each_distinct_value_is_mapped_into_z_mod_q_once():
    # one label and one residue per distinct value, which every entry holding it shares:
    # 12 residue objects for the 144 entries, where mapping each entry made 105
    table = fr.cyclic_character_table(12)
    assert len({id(r) for row in table.rows for r in row}) == 12
    assert sorted({x for row in table.labelled for x in row}) == sorted(table.conjugate) == list(range(12))


def test_equal_values_held_as_distinct_objects_evaluate_alike():
    # a table built entry by entry, or a file that writes z^2 as z^14, holds
    # equal values as distinct objects; equal values get one label, and so one residue
    shared = fr.cyclic_character_table(12)
    name, order, sizes, chars, conj = fields(shared)
    copies = CharacterTable(name, order, sizes, tuple(tuple(Cyclotomic(12, v.coeffs) for v in r) for r in chars), conj)
    assert len({id(v) for row in copies.characters for v in row}) == 144
    a, b = shared, copies
    assert (a.bound, a.modulus, a.labelled, a.rows, a.weighted) == (b.bound, b.modulus, b.labelled, b.rows, b.weighted)
    assert fr.char_table_ring(copies) == fr.char_table_ring(shared)
    plain, synonyms = (fr.parse_character_table(bench_tables()[f"z12_{k}.chartab"]) for k in ("1", "synonyms"))
    assert len({id(v) for row in synonyms.characters for v in row}) > 12
    assert synonyms.rows == plain.rows
    assert fr.char_table_ring(synonyms) == fr.char_table_ring(plain)


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    # the labels and residues that validate keeps on the table hold no reference back to it
    gc.disable()
    try:
        table = fr.fixture_character_table("s3")
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


def test_an_all_ones_row_of_another_conductor_is_no_trivial_row():
    # the gate refuses the table for its mixed conductors before any row is taken as trivial
    one, other = Cyclotomic(1, [1]), Cyclotomic(2, [1])
    table = unchecked("Z2", 2, [1, 1], [[one, Cyclotomic(1, [-1])], [other, other]], [0, 1])
    refused = ("OrthogonalityFailure", "a value of conductor 2 in a table of conductor 1")
    assert outcome(table_ring, *fields(table)) == outcome(table.validate) == refused


# -- the evaluation modulo q = |Phi_K(w)| ---------------------------------------------


@functools.cache
def cyclotomic_value(n, w):
    """Phi_n(w) for w >= 2: w^n - 1 divided by Phi_d(w) for each proper divisor d of n."""
    value = w**n - 1
    for d in range(1, n):
        if n % d == 0:
            value //= cyclotomic_value(d, w)
    return value


def least_w(n, total_bound):
    """The least w >= 2 with Phi_n(w) > total_bound, found one step at a time."""
    w = 2
    while cyclotomic_value(n, w) <= total_bound:
        w += 1
    return w


def test_the_modulus_is_phi_k_at_the_least_w_above_the_norm_bound():
    for n in range(1, 301):
        for bound in (1, 36, 972, 10**4):
            w, modulus = _small_modulus(n, 2 * bound + 1)
            assert w == least_w(n, 2 * bound + 1), (n, bound)
            assert modulus == cyclotomic_value(n, w) > 2 * bound + 1 and pow(w, n, modulus) == 1, (n, bound)
        # the trivial group's table has L = 1 at any conductor, and its one value 1 uses
        # no exponent but 0: s = N, K = 1, w = 5 and q = Phi_1(5) = 4
        trivial = unchecked("G", 1, [1], [[Cyclotomic(n, [1])]], [0])
        trivial.validate()
        assert trivial.modulus == cyclotomic_value(1, 5) == 4, n
    for name in FIXTURES:
        table = fr.fixture_character_table(name)
        k = field_of(table)
        assert table.modulus == cyclotomic_value(k, least_w(k, 2 * table.bound + 1)), name


def test_the_least_w_is_found_in_closed_form_for_a_wide_bound():
    # phi(1) = 1, so w - 2 is the bound itself; a step-by-step search would take a step per unit
    bound = 7**2000
    assert _small_modulus(1, bound) == (bound + 2, bound + 1)
    for n in (7, 60, 5040):
        w, modulus = _small_modulus(n, bound)
        assert cyclotomic_value(n, w - 1) <= bound < cyclotomic_value(n, w) == modulus, n
    # Z120's bound: (w - 1)^32 > 2L + 1 took w = 3 and a 51-bit q, where Phi_120(2) has 33 bits
    w, modulus = _small_modulus(120, 3 * 10**5)
    assert (w, modulus.bit_length()) == (2, 33)


def _crafted(text: str) -> CharacterTable:
    """A crafted table's text as a table that skipped validation."""
    rows = [line.split() for line in text.splitlines()]
    order, sizes = int(rows[0][2]), [int(r[1]) for r in rows if r[0] == "class"]
    chars = [[Cyclotomic(5040, [int(v)]) for v in r[2:]] for r in rows if r[0] == "char"]
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
    # its values are integers, so K = 1: no Galois map but conjugation is tried, and its totals
    # are decided modulo q = Phi_1(2L + 3) = 2L + 2; <chi0, chi1>'s residue words the fault
    text = bench_tables()[f"crafted{classes}.chartab"]
    expect = outcome(reference_validate, _crafted(text))
    assert expect[0] == "OrthogonalityFailure" and reference_refusal(_crafted(text)) is None
    inner, maps = counting(monkeypatch, CharacterTable, "inner"), counting(monkeypatch, Cyclotomic, "galois")
    assert outcome(fr.parse_character_table, text) == expect
    table = inner[0][0]
    assert table.modulus == 2 * table.bound + 2
    assert {a for _, a in maps} == {-1} and len(maps) == len(table.conjugate)


def test_a_bad_pair_is_refused_on_its_labels(monkeypatch):
    # conj(chi0(c)) and chi9(c) have unequal labels: each distinct value is conjugated once
    conj = counting(monkeypatch, Cyclotomic, "galois")
    assert outcome(fr.parse_character_table, bench_tables()["z12_badpair.chartab"]) == (
        "OrthogonalityFailure", "row 9 is not the complex conjugate of row 0 at class 1"
    )
    assert sorted(a for _, a in conj if a == -1) == [-1] * 12


def _parsed_unchecked(text: str) -> CharacterTable:
    """``text`` parsed into a table that skipped validation."""
    validate = CharacterTable.validate
    CharacterTable.validate = lambda self: None
    try:
        return fr.parse_character_table(text)
    finally:
        CharacterTable.validate = validate


@pytest.mark.parametrize("name,k,a,total", [
    ("z5_swapped", 5, 2, "1+z+z^2+2*z^3"), ("z5_swapped_at10", 10, 3, "-z+z^3"),
])
def test_a_table_that_is_not_galois_stable_is_refused_before_any_inner_product(monkeypatch, name, k, a, total):
    # the rows pair and the columns pass the checks of a group's table, but sigma_a maps column 1
    # to no column: <chi0, chi1>'s total, which the reference finds not rational, is never taken
    text = bench_tables()[f"{name}.chartab"]
    inner = counting(monkeypatch, CharacterTable, "inner")
    refused = ("OrthogonalityFailure", reference_refusal(_parsed_unchecked(text)))
    assert refused[1] == f"the Galois map zeta_{k} -> zeta_{k}^{a} does not permute the columns within their class sizes"
    assert outcome(fr.parse_character_table, text) == refused
    assert outcome(reference_validate, _parsed_unchecked(text)) == (
        "OrthogonalityFailure", f"<chi0, chi1>: inner product total {total} is not rational"
    )
    assert inner == []


def test_each_value_object_gets_one_term_list(monkeypatch):
    # Z60's table holds 60 value objects in 3600 entries; a term list per entry built 3600.
    # The terms are keyed by value, so Z12's synonyms, more objects than its 12 values, get 12.
    import fusionring.chartable as chartable

    tables = {name: _parsed_unchecked(bench_tables()[f"{name}.chartab"]) for name in ("z60_1", "z12_synonyms")}
    walked = []
    monkeypatch.setattr(chartable, "enumerate", lambda it, *a: walked.append(id(it)) or enumerate(it, *a), raising=False)
    for name, values in (("z60_1", 60), ("z12_synonyms", 12)):
        coeffs = {id(v.coeffs) for row in tables[name].characters for v in row}
        walked.clear()
        tables[name].validate()
        assert sum(k in coeffs for k in walked) == values <= len(coeffs), name
    assert len(coeffs) > 12


def test_a_table_of_integers_evaluates_in_z_at_any_conductor(monkeypatch):
    # every exponent is 0, so s = N, K = 1 and q = Phi_1(2L + 3) = 2L + 2
    one = fr.parse_character_table(bench_tables()["one5040.chartab"])
    assert (one.bound, one.modulus) == (1, 4)
    choices = modulus_choices(monkeypatch)
    assert outcome(_crafted_10().validate)[0] == "OrthogonalityFailure"  # its rows are not orthonormal
    [(field, bound, modulus)] = choices
    assert field == 1 and bound > 0 and modulus == 2 * bound + 2
    assert modulus.bit_length() < 2000  # 599,399 bits modulo Phi_5040(2L + 2)


@pytest.mark.parametrize("conductor,field", [(9, 3), (12, 6)])
def test_a_table_evaluates_in_the_field_its_values_use(conductor, field):
    # Z3's table at N = 9 writes its values z^3 and z^6, at N = 12 z^4 = z^2 - 1 and
    # z^8 = -z^2: the exponents share s = 3 and s = 2, and the ring is Z3's
    table = fr.parse_character_table(bench_tables()[f"z3_at{conductor}.chartab"])
    fixture = fr.fixture_character_table("z3")
    assert (table.conductor, table.bound) == (conductor, fixture.bound) == (conductor, 18)
    assert table.modulus == cyclotomic_value(field, least_w(field, 2 * table.bound + 1))
    assert fr.write_spec(fr.char_table_ring(table)) == fr.write_spec(fr.char_table_ring(fixture))


def _mixed_tables():
    one1, one2, one3 = Cyclotomic(1, [1]), Cyclotomic(2, [1]), Cyclotomic(3, [1])
    z, z2 = Cyclotomic.zeta_power(3, 1), Cyclotomic.zeta_power(3, 2)
    return {
        # <chi0, chi0> = (4 + 0) / 2 fails before any inner product mixes conductors
        "degree": ("Z2", 2, [1, 1], [[Cyclotomic(1, [2]), Cyclotomic(1, [0])], [one2, one2]], [0, 1]),
        # Z2's table with its sign row at conductor 2, which the reference reads as Z2's table
        "sign-row": ("Z2", 2, [1, 1], [[one1, one1], [one2, Cyclotomic(2, [-1])]], [0, 1]),
        # Z3's table with z^2 written as zeta_6^4 in row 2: a pair of conductors 3 and 6
        "pair": ("Z3", 3, [1, 1, 1], [[one3] * 3, [one3, z, z2], [one3, Cyclotomic.zeta_power(6, 4), z]], [0, 2, 1]),
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


def _mixed_refused_alike(table_fields):
    """A table whose values mix conductors is refused up front on every route, where the reference
    refuses it too, unless it holds a single value.  Returns the refusal and the reference's verdict,
    whose inner products read each value as the number it denotes, at the lcm of the conductors."""
    expect, refusal = outcome(reference_validate, unchecked(*table_fields)), reference_refusal(unchecked(*table_fields))
    if refusal is None:  # a one-value table has no other value to mix with
        assert expect == outcome(unchecked(*table_fields).validate) == ("ok", None)
        return expect
    refused = ("OrthogonalityFailure", refusal)
    assert outcome(unchecked(*table_fields).validate) == outcome(CharacterTable, *table_fields) == refused
    assert outcome(table_ring, *table_fields) == refused
    return refused, expect


@pytest.mark.parametrize("name,refused,expect", [
    ("degree", "a value of conductor 2 in a table of conductor 1", ("OrthogonalityFailure", "<chi0, chi0> = 2, expected 1")),
    ("sign-row", "a value of conductor 2 in a table of conductor 1", ("ok", None)),
    ("pair", "a value of conductor 6 in a table of conductor 3",
     ("OrthogonalityFailure", "row 2 is not the complex conjugate of row 1 at class 1")),
])
def test_a_table_that_mixes_conductors_is_refused_up_front(name, refused, expect):
    # its values are written at two conductors; the reference's checks refuse it as the kernel does, and its
    # arithmetic stops at the table's first other fault: the sign row's table is Z2's, read at conductor 2
    assert _mixed_refused_alike(_mixed_tables()[name]) == (("OrthogonalityFailure", refused), expect)


@settings(max_examples=40, deadline=None)
@given(mixed_fields())
def test_tables_with_a_value_at_another_conductor_are_refused_alike(table_fields):
    _mixed_refused_alike(table_fields)


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
    assert table.bound > 0  # a group's table: its constants come from the residues
    ring = fr.char_table_ring(table)
    galois_automorphisms(table, ring)
    chars, n = table.characters, len(table.characters)
    if n <= 9:
        reference_validate(table)
        assert ring == reference_ring(table)
        return
    trivial = next(r for r in range(n) if all(v == 1 for v in chars[r]))
    index = [ring.index("1" if r == trivial else f"chi{r}") for r in range(n)]
    rng, rows = random.Random(n), lifted(table)
    for _ in range(40):
        i, j, k = (rng.randrange(n) for _ in range(3))
        expect = reference_inner(table, [times(a, b) for a, b in zip(rows[i], rows[j])], rows[k])
        assert ring.product_row(index[i], index[j])[index[k]] == expect, (i, j, k)


CORPUS = sorted(name for name in bench_tables() if not name.startswith(("crafted", "z120")) and name.count("_") < 2
                and not name.endswith(("badpair.chartab", "badtoken.chartab", "swapped.chartab", "negative.chartab",
                                       "paley.chartab")))


@pytest.mark.parametrize("name", CORPUS)
def test_each_galois_map_permutes_the_rows_of_a_corpus_ring_by_an_automorphism(name):
    # automorphisms compose, so generators of (Z/K)^x stand for all of it: 3 maps for Z60's 15
    table = fr.parse_character_table(bench_tables()[name])
    assert galois_automorphisms(table, fr.char_table_ring(table), generators_only=True) == len(
        unit_generators(field_of(table))
    )


def _refused_tables():
    one, z, z2 = Cyclotomic(3, [1]), Cyclotomic.zeta_power(3, 1), Cyclotomic.zeta_power(3, 2)
    z3 = [[one] * 3, [one, z, z2], [one, z2, z]]
    return {
        "identity": (("Z3", 4, [2, 1, 1], z3, [0, 2, 1]), "class 0 has size 2; the identity class comes first, of size 1"),
        "sizes": (("Z3", 4, [1, 1, 1], z3, [0, 2, 1]), "class sizes sum to 3, group order is 4"),
        "conductor": (("Z3", 3, [1, 1, 1], [z3[0], z3[1], [Cyclotomic(6, [1]), z2, z]], [0, 2, 1]),
                      "a value of conductor 6 in a table of conductor 3"),
        "norm": (("Z3", 3, [1, 1, 1], [z3[0], z3[1], [one, z2, Cyclotomic(3, [0, 2])]], [0, 2, 1]),
                 "class 2: |c| * sum_i |chi_i(c)|^2 is 6, not |G| = 3"),
        "galois": (("Z3", 3, [1, 1, 1], [z3[0], [one, z, z], [one, z2, z2]], [0, 2, 1]),
                   "the Galois map zeta_3 -> zeta_3^2 does not permute the columns within their class sizes"),
    }


def test_the_bound_is_read_off_the_columns():
    # S3: classes of sizes 1, 3, 2 with centralizers 6, 2, 3, so L = 1*15 + 3*3 + 2*6
    table = fr.fixture_character_table("s3")
    assert table.bound == 36
    assert table.modulus == 74  # its values are integers: Phi_1(75)


def test_a_column_preserving_corruption_fails_through_the_residues(monkeypatch):
    # S3's trivial and 2-dimensional rows trade their values at the class of
    # size 2: every column keeps its sum of squares, so the residues are
    # trusted, and the fault is worded alike
    name, order, sizes, chars, conj = fields(fr.fixture_character_table("s3"))
    chars = [list(row) for row in chars]
    chars[0][2], chars[2][2] = chars[2][2], chars[0][2]
    table = unchecked(name, order, sizes, chars, conj)
    choices = modulus_choices(monkeypatch)
    expect = outcome(reference_validate, table)
    assert expect[0] == "OrthogonalityFailure"
    assert outcome(table.validate) == expect
    assert [bound for _, bound, _ in choices] == [36]
    assert outcome(table_ring, *fields(table)) == expect


def _no_group_tables():
    big, one, w = 10**1000 + 7, Cyclotomic(5040, [1]), Cyclotomic.zeta_power(5040, 1680)
    coeffs = [0] * 5040
    coeffs[1680], coeffs[7], coeffs[-7] = 1, big, -big
    value = Cyclotomic(5040, coeffs)  # w + big * (zeta^7 - zeta^-7)
    return {
        # a many-digit degree: <chi0, chi0> = big^2
        "degree": ("Z1", 1, [1], [[Cyclotomic(5040, [big])]], [0]),
        # a many-digit coefficient at a class other than the identity
        "value": ("Z3", 3, [1, 1, 1], [[one] * 3, [one, value, w.galois(-1)], [one, value.galois(-1), w]], [0, 2, 1]),
        # one class of a 401-digit size: a valid table, though no group's
        "class-size": ("G", 10**400, [10**400], [[one]], [0]),
    }


@pytest.mark.parametrize("name,prefix", [
    ("degree", "class 0: |c| * sum_i |chi_i(c)|^2 is 1000"),
    ("value", "class 1: |c| * sum_i |chi_i(c)|^2 is "),
    ("class-size", "class 0 has size 1000"),
])
def test_tables_of_no_group_are_refused_up_front(monkeypatch, name, prefix):
    """A table with many-digit numbers that fails the checks of a group's table is refused before
    any modulus is chosen or any inner product taken.  The reference refuses it too, but for the
    one-class table of a 401-digit size, the resized Z1 that only the kernel refuses."""
    table = unchecked(*_no_group_tables()[name])
    refusal = reference_refusal(table)
    assert refusal.startswith(prefix)
    inner = counting(monkeypatch, CharacterTable, "inner")
    refused = ("OrthogonalityFailure", refusal)
    assert outcome(table.validate) == outcome(table_ring, *fields(table)) == refused
    assert inner == []
    assert outcome(reference_validate, table)[0] == ("ok" if name == "class-size" else "OrthogonalityFailure")


def _gate_faults():
    """One table for each refusal of the gate, in the gate's order, and its first fault."""
    one, z, z2 = Cyclotomic(3, [1]), Cyclotomic.zeta_power(3, 1), Cyclotomic.zeta_power(3, 2)
    z3 = [[one] * 3, [one, z, z2], [one, z2, z]]
    refused = {fault: (table, ("OrthogonalityFailure", message)) for fault, (table, message) in _refused_tables().items()}
    big_degree = _no_group_tables()["degree"]
    return {
        "size": (("Z3", 3, [1, 0, 2], z3, [0, 2, 1]), ("OrthogonalityFailure", "class sizes must be positive")),
        "shape": (("Z3", 3, [1, 1, 1], z3[:2], [0, 2]), ("OrthogonalityFailure", (
            "table has 2 character rows for 3 classes; it needs one row per class, with one value per class"))),
        "dual-length": (("Z3", 3, [1, 1, 1], z3, [0, 2]), ("InvalidRing", "conjugate map length mismatch")),
        **refused,
        "big-degree": (big_degree, ("OrthogonalityFailure", reference_refusal(unchecked(*big_degree)))),
        "involution": (("Z3", 3, [1, 1, 1], z3, [0, 2, 0]), ("InvalidRing", "conjugate map is not an involution")),
        # entries that are not exactly an int row index: 5 and 3 (the row count) are out of range, 1.0 a float,
        # True a bool read as row 1
        "dual-range": (("Z3", 3, [1, 1, 1], z3, [5, 1, 2]), ("InvalidRing", "conjugate map is not an involution")),
        "dual-end": (("Z3", 3, [1, 1, 1], z3, [3, 2, 1]), ("InvalidRing", "conjugate map is not an involution")),
        "dual-float": (("Z3", 3, [1, 1, 1], z3, [0, 2, 1.0]), ("InvalidRing", "conjugate map is not an involution")),
        "dual-bool": (("Z3", 3, [1, 1, 1], z3, [0, 2, True]), ("InvalidRing", "conjugate map is not an involution")),
        "dual": (("Z3", 3, [1, 1, 1], z3, [0, 1, 2]),
                 ("OrthogonalityFailure", "row 1 is not the complex conjugate of row 1 at class 1")),
        # Z3's table with its identity column last: every check but the degrees passes
        "degree": (("Z3", 3, [1, 1, 1], [row[1:] + row[:1] for row in z3], [0, 2, 1]),
                   ("InvalidRing", "character degree (value at the identity) must be a positive integer")),
    }


@pytest.mark.parametrize("fault", list(_gate_faults()))
def test_a_refused_table_makes_no_inner_call(monkeypatch, fault):
    """Validation, the constructor and the ring route, which passes the constructor, meet one gate, so
    they refuse a table alike, before any inner product; among them the Z1 table of a 1001-digit
    degree, which has no trivial row."""
    table_fields, refused = _gate_faults()[fault]
    if fault in _refused_tables():  # the checks of a group's table, which the reference makes too
        assert reference_refusal(unchecked(*table_fields)) == refused[1]
        assert outcome(reference_validate, unchecked(*table_fields))[0] != "ok"
    inner = counting(monkeypatch, CharacterTable, "inner")
    assert outcome(unchecked(*table_fields).validate) == refused
    assert outcome(CharacterTable, *table_fields) == refused
    assert outcome(table_ring, *table_fields) == refused
    assert inner == []
    if fault == "big-degree":
        assert refused[1].startswith("class 0: |c| * sum_i |chi_i(c)|^2 is 1000")
