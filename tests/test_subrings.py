"""Subring closure, enumeration, grouplike groups, freeness obstructions."""

from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import subrings
from fusionring.subrings import IncompleteClosure, StandardSubring

from conftest import (
    abelian_group_ring,
    all_fixture_rings,
    chain_length_one_ring,
    corrupt_z5_ring,
    count4_corrupt_ring,
    factorization_branch_ring,
    nonassociative_order9_ring,
    order2_branch_ring,
    withhold_rows,
)


def divisors(n):
    return sorted(d for d in range(1, n + 1) if n % d == 0)


def test_closure_unit_only(fragment):
    sub = fr.closure(fragment, set())
    assert sub.members == ("1",)
    assert sub.hopf_dimension == 1


def test_closure_fragment_x5(fragment):
    sub = fr.closure(fragment, {"x5"})
    assert sub.members == ("1", "g", "h1", "h2", "h3", "x5")
    assert sub.hopf_dimension == 30
    assert sub.closed_under_dual


def test_closure_fragment_x3(fragment):
    sub = fr.closure(fragment, {"x3"})
    assert len(sub.members) == 11
    assert sub.hopf_dimension == 75


def test_closure_monotone_idempotent_extensive(fragment):
    sub = fr.closure(fragment, {"x5"})
    again = fr.closure(fragment, set(sub.members))
    assert again.members == sub.members  # idempotent
    assert {"x5"} <= set(sub.members)  # extensive
    bigger = fr.closure(fragment, {"x5", "g"})
    assert set(sub.members) <= set(bigger.members)  # monotone here


def test_closure_duals_flag(f21):
    with_duals = fr.closure(f21, {"x3"})
    assert with_duals.closed_under_dual


def reference_closure(ring, seed):
    """The round-by-round closure: rescan every member pair until nothing
    grows, add duals, then collect the Unknown member pairs in a second pass."""
    members = {ring.unit_index}
    for label in seed:
        members.add(ring.index(label))

    grew = True
    while grew:
        grew = False
        for a in sorted(members):
            for b in sorted(members):
                row = ring.product_row(a, b)
                if row is None:
                    continue
                for c, n in enumerate(row):
                    if n and c not in members:
                        members.add(c)
                        grew = True
        for i in list(members):
            if ring.dual_index(i) not in members:
                members.add(ring.dual_index(i))
                grew = True

    pending = [
        (a, b)
        for a in sorted(members)
        for b in sorted(members)
        if ring.product_row(a, b) is None
    ]
    whole_basis = len(members) == ring.rank
    if pending and not (whole_basis and ring.truncation_bound is None):
        return IncompleteClosure(
            tuple(ring.label(i) for i in sorted(members)),
            tuple((ring.label(a), ring.label(b)) for a, b in pending),
        )
    labels = tuple(ring.label(i) for i in sorted(members))
    dual_closed = all(ring.dual_index(i) in members for i in members)
    dim = sum(ring.degree_of(i) ** 2 for i in members)
    return StandardSubring(labels, dim, dual_closed)


def assert_closures_match_reference(ring, seeds):
    for seed in seeds:
        got, want = fr.closure(ring, seed), reference_closure(ring, seed)
        # records of different kinds are never compared: match the kind first
        assert type(got) is type(want), (ring.name, seed)
        assert got == want, (ring.name, seed)


CORPUS = all_fixture_rings() + [
    fr.cyclic_group_ring(12),
    order2_branch_ring(),
    factorization_branch_ring(),
    chain_length_one_ring(),
    count4_corrupt_ring(),
    corrupt_z5_ring(),
]


@pytest.mark.parametrize("ring", CORPUS, ids=lambda r: r.name)
def test_closure_matches_reference_on_corpus(ring):
    labels = ring.labels
    assert_closures_match_reference(ring, [(), *((lab,) for lab in labels), *combinations(labels, 2)])


@st.composite
def withheld_rings(draw):
    """A corpus ring with up to six non-unit rows withheld, and sometimes a
    truncation bound, under which no closure is complete by covering the basis."""
    ring = draw(st.sampled_from(CORPUS))
    pairs = [(ring.label(i), ring.label(j)) for i, j in ring.known_pairs() if ring.unit_index not in (i, j)]
    withheld = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    bound = draw(st.one_of(st.none(), st.integers(0, 20).map(lambda k: 2 * k + 1)))  # odd, as rings require
    return withhold_rows(ring, *withheld, truncation_bound=bound)


@settings(max_examples=60, deadline=None)
@given(withheld_rings(), st.data())
def test_closure_matches_reference_on_withheld_rings(ring, data):
    seeds = data.draw(st.lists(st.lists(st.sampled_from(ring.labels), max_size=3), min_size=1, max_size=4))
    assert_closures_match_reference(ring, seeds)


def test_closure_incomplete_on_truncated():
    so = fr.so3_truncated(9)
    result = fr.closure(so, {"x3"})
    assert isinstance(result, IncompleteClosure)
    assert ("x9", "x9") in result.pending


def test_enumerate_zn_matches_divisor_lattice():
    for n in range(1, 9):
        ring = fr.cyclic_group_ring(n)
        subs = fr.enumerate_standard_subrings(ring)
        assert [s.hopf_dimension for s in subs] == divisors(n)


def test_enumerate_quotient_dims():
    # Hopf quotients: A4 -> {1, Z3, A4}, F21 -> {1, Z3, F21}, S3 -> {1, Z2, S3}
    assert [s.hopf_dimension for s in fr.enumerate_standard_subrings(fr.a4_character_ring())] == [1, 3, 12]
    assert [s.hopf_dimension for s in fr.enumerate_standard_subrings(fr.f21_character_ring())] == [1, 3, 21]
    assert [s.hopf_dimension for s in fr.enumerate_standard_subrings(fr.s3_character_ring())] == [1, 2, 6]


def test_enumerate_fragment(fragment):
    subs = fr.enumerate_standard_subrings(fragment)
    assert [s.hopf_dimension for s in subs] == [1, 5, 30, 75]


def test_enumerate_exhaustive_agrees(complete_rings):
    # every subring of Z1-Z8, S3, A4 and F21 has two generators, so closing
    # every subset of the basis finds nothing more
    for ring in complete_rings:
        seeds = (seed for k in range(ring.rank + 1) for seed in combinations(ring.labels, k))
        every = {s.members: s for s in map(partial(fr.closure, ring), seeds)}
        assert fr.enumerate_standard_subrings(ring) == sorted(
            every.values(), key=lambda s: (s.hopf_dimension, s.members)
        ), ring.name


def test_enumerate_so3_only_trivial_completes():
    # every nontrivial closure runs past the truncation
    subs = fr.enumerate_standard_subrings(fr.so3_truncated(9))
    assert [s.hopf_dimension for s in subs] == [1]


def reference_subrings(ring):
    """The pair seeding: close the empty seed, every label and every pair of
    labels, keep the complete closures, dedup and sort."""
    labels = ring.labels
    seeds = [(), *((lab,) for lab in labels), *combinations(labels, 2)]
    found = {}
    for seed in seeds:
        result = fr.closure(ring, seed)
        if isinstance(result, StandardSubring):
            found.setdefault(result.members, result)
    return sorted(found.values(), key=lambda s: (s.hopf_dimension, s.members))


# Klein four {1, a, b, ab} with a = e1_0, b = e0_1 and the rows a*a and
# ab*ab withheld: the atoms of a and ab are incomplete, and only joining one
# of them with b reaches the whole ring.
KLEIN_WITHHELD = withhold_rows(abelian_group_ring(2, 2), ("e1_0", "e1_0"), ("e1_1", "e1_1"))


@pytest.mark.parametrize(
    "ring",
    CORPUS
    + [fr.cyclic_group_ring(n) for n in range(9, 31) if n != 12]
    + [abelian_group_ring(*m) for m in ((2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 2))]
    + [KLEIN_WITHHELD],
    ids=lambda r: r.name,
)
def test_enumerate_matches_reference(ring):
    assert fr.enumerate_standard_subrings(ring, rank_bound=30) == reference_subrings(ring)


@settings(max_examples=80, deadline=None)
@given(withheld_rings())
def test_enumerate_matches_reference_on_withheld_rings(ring):
    assert fr.enumerate_standard_subrings(ring) == reference_subrings(ring)


def test_enumerate_closes_each_label_then_pairs_of_atoms(monkeypatch):
    # Z20 has 6 atoms, one per divisor: 20 label closures and at most 15 joins
    calls = []
    close = subrings._close
    monkeypatch.setattr(subrings, "_close", lambda ring, seed: calls.append(seed) or close(ring, seed))
    assert len(fr.enumerate_standard_subrings(fr.cyclic_group_ring(20))) == 6
    assert 20 < len(calls) <= 20 + 15


def test_enumerate_rank_bound():
    with pytest.raises(fr.RankTooLarge):
        fr.enumerate_standard_subrings(fr.cyclic_group_ring(8), rank_bound=5)


@pytest.mark.parametrize("rank_bound", [None, 0, 2.5, "8", True])
def test_bad_rank_bound_rejected(rank_bound):
    with pytest.raises(fr.InvalidSetting, match="rank_bound"):
        fr.enumerate_standard_subrings(fr.cyclic_group_ring(3), rank_bound=rank_bound)


def test_subring_restriction_is_valid_ring():
    # restricting a complete valid ring to a standard subring stays valid
    for ring in (fr.cyclic_group_ring(6), fr.a4_character_ring(), fr.f21_character_ring()):
        for sub in fr.enumerate_standard_subrings(ring):
            members = set(sub.members)
            products = {}
            for a in members:
                for b in members:
                    row = ring.product_row(ring.index(a), ring.index(b))
                    products[(a, b)] = {
                        ring.label(c): m for c, m in enumerate(row) if m
                    }
                    assert all(lab in members for lab in products[(a, b)])
            basis = [
                (x.label, x.degree, x.dual_label)
                for x in ring.elements
                if x.label in members
            ]
            restricted = fr.build_ring(f"{ring.name}_sub", basis, ring.label(ring.unit_index), products)
            assert fr.check_axioms(restricted).all_pass


def test_grouplike_group_z3():
    gg = fr.grouplike_group(fr.cyclic_group_ring(3))
    assert gg.elements == ("1", "g", "g2")
    assert gg.orders == (1, 3, 3)
    # the form demos/03_subrings_and_obstructions.py prints
    assert gg.as_dict() == {"elements": ["1", "g", "g2"], "orders": {"1": 1, "g": 3, "g2": 3}}


def test_grouplike_group_f21(f21):
    gg = fr.grouplike_group(f21)
    assert gg.elements == ("1", "s", "s2")
    assert gg.orders == (1, 3, 3)
    assert gg.product("s", "s2") == "1"


def test_grouplike_group_so3(so3_21):
    gg = fr.grouplike_group(so3_21)
    assert gg.elements == ("x1",)
    assert gg.orders == (1,)


def test_grouplike_lagrange_property():
    for ring in all_fixture_rings():
        try:
            gg = fr.grouplike_group(ring)
        except fr.UnknownProduct:
            continue
        for order in gg.orders:
            assert gg.order % order == 0


def test_grouplike_group_withheld_row(a4):
    with pytest.raises(fr.UnknownProduct, match=r"s\*s2"):
        fr.grouplike_group(withhold_rows(a4, ("s", "s2")))


def test_grouplike_not_closed():
    # degree-1 products leaving the grouplike set signal an invalid ring
    bad = fr.build_ring(
        "bad",
        [("1", 1, "1"), ("g", 1, "g"), ("x", 3, "x")],
        "1",
        {("g", "g"): {"x": 1}},
    )
    with pytest.raises(fr.NotClosed):
        fr.grouplike_group(bad)


def test_grouplike_table_must_be_associative():
    # closed, with each dual the inverse, but every power cycle has length 4,
    # which no group of order 9 has; (a1 a1) a1 = a2 while a1 (a1 a1) = a1
    ring = nonassociative_order9_ring()
    with pytest.raises(fr.NotClosed, match=r"not associative at \(a1a1\)a1"):
        fr.grouplike_group(ring)
    assert fr.degree3_case_split(ring, "x") == fr.Obstruction(
        "grouplikes of the remainder do not close under product to a group: "
        "grouplike product is not associative at (a1a1)a1"
    )


def test_stabilizer_group_unit():
    ring = fr.cyclic_group_ring(5)
    assert fr.stabilizer_group(ring, "1").elements == ("1",)


def test_stabilizer_group_f21(f21):
    stab = fr.stabilizer_group(f21, "x3")
    assert stab.elements == ("1", "s", "s2")
    assert stab.orders == (1, 3, 3)


def test_stabilizer_group_fragment_x5(fragment):
    stab = fr.stabilizer_group(fragment, "x5")
    assert stab.elements == ("1", "g", "h1", "h2", "h3")
    assert sorted(stab.orders) == [1, 5, 5, 5, 5]


def test_stabilizer_group_unknown(fragment):
    with pytest.raises(fr.UnknownProduct):
        fr.stabilizer_group(fragment, "x3")


def test_stabilizer_order_bound_violation():
    # a degree-1 element fixed by a non-unit grouplike breaks the deg^2 bound
    bad = fr.build_ring("bad", [
        ("1", 1, "1"), ("g", 1, "g"), ("x", 1, "x"),
    ], "1", {
        ("g", "g"): {"1": 1},
        ("g", "x"): {"x": 1}, ("x", "g"): {"x": 1},
        ("x", "x"): {"1": 1},
    })
    with pytest.raises(fr.NotClosed, match="order 2 > deg"):
        fr.stabilizer_group(bad, "x")


def test_freeness_z6_clean():
    assert fr.freeness_obstructions(fr.cyclic_group_ring(6)) == []


def test_freeness_a4_clean(a4):
    assert fr.freeness_obstructions(a4) == []


def test_freeness_fragment_violation(fragment):
    violations = fr.freeness_obstructions(fragment)
    assert [(s.hopf_dimension, b.hopf_dimension) for s, b in violations] == [(30, 75)]


def test_freeness_compares_supplied_subrings_with_the_whole_complete_ring():
    z4 = fr.cyclic_group_ring(4)
    made_up = StandardSubring(("1", "g2"), 3, True)  # a dimension that does not divide 4
    assert fr.freeness_obstructions(z4, [made_up]) == [(made_up, StandardSubring(z4.labels, 4, True))]


def test_freeness_supplied_subrings(fragment):
    small = fr.closure(fragment, {"x5"})
    big = fr.closure(fragment, {"x3"})
    violations = fr.freeness_obstructions(fragment, [small, big])
    assert [(s.hopf_dimension, b.hopf_dimension) for s, b in violations] == [(30, 75)]
