"""Constrained enumeration: soundness, completeness at desk scale, dedup."""

from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest

import fusionring as fr
from fusionring import search


def test_degrees_111_exactly_z3():
    rings = fr.enumerate_rings([1, 1, 1], max_mult=2)
    assert len(rings) == 1
    ring = rings[0]
    gg = fr.grouplike_group(ring)
    assert sorted(gg.orders) == [1, 3, 3]


def test_degrees_1113_matches_a4_constants():
    rings = fr.enumerate_rings([1, 1, 1, 3], max_mult=2)
    assert len(rings) == 1
    ring = rings[0]
    x = ring.element("d3n1")
    sq = ring.multiply(x, x)
    assert ring.decompose(sq) == [("1", 1), ("d1n1", 1), ("d1n2", 1), ("d3n1", 2)]
    # same constants as the A4 character ring under the label map
    a4 = fr.a4_character_ring()
    relabel = {"1": "1", "d1n1": "s", "d1n2": "s2", "d3n1": "x3"}
    for i, j in ring.known_pairs():
        a = relabel[ring.label(i)]
        b = relabel[ring.label(j)]
        row = a4.product_row(a4.index(a), a4.index(b))
        for c, m in enumerate(ring.product_row(i, j)):
            assert m == row[a4.index(relabel[ring.label(c)])]


def test_emitted_rings_pass_identities():
    for degrees in ([1, 1], [1, 1, 1], [1, 1, 1, 3]):
        for ring in fr.enumerate_rings(degrees, max_mult=2):
            report = fr.check_axioms(ring)
            assert report.all_pass
            assert report.total_skipped == 0
            verdict = fr.dichotomy_verdict(ring)
            assert verdict.kind in ("grouplike", "ladder", "no_degree3")


def test_degrees_1111_gives_both_order4_groups():
    rings = fr.enumerate_rings([1, 1, 1, 1], max_mult=1)
    assert len(rings) == 2
    order_profiles = sorted(sorted(fr.grouplike_group(r).orders) for r in rings)
    assert order_profiles == [[1, 2, 2, 2], [1, 2, 4, 4]]


def test_degrees_11_gives_z2():
    rings = fr.enumerate_rings([1, 1], max_mult=1)
    assert len(rings) == 1
    gg = fr.grouplike_group(rings[0])
    assert sorted(gg.orders) == [1, 2]


def test_even_degree_rejected():
    with pytest.raises(fr.PreconditionUnmet):
        fr.enumerate_rings([1, 2], max_mult=1)


def test_even_degree_allowed_with_flag():
    rings = fr.enumerate_rings([1, 1], max_mult=1, odd_only=False)
    assert len(rings) == 1


def test_rank_bound():
    with pytest.raises(fr.RankTooLarge):
        fr.enumerate_rings([1] * 7, max_mult=1)


def test_unit_required():
    with pytest.raises(fr.PreconditionUnmet):
        fr.enumerate_rings([3, 3], max_mult=1)


def test_trivial_ring():
    rings = fr.enumerate_rings([1], max_mult=1)
    assert len(rings) == 1
    assert rings[0].rank == 1


def test_max_mult_cap_excludes():
    # the only degrees-(1,1,1,3) ring needs a structure constant of 2
    assert fr.enumerate_rings([1, 1, 1, 3], max_mult=1) == []


@pytest.mark.parametrize("degrees,max_mult,dual_classes", [
    ([1] * 6, 1, 3),
    ([1, 1, 1, 3, 3], 2, 4),
    ([1, 3, 3, 3, 5, 5], 2, 4),
])
def test_one_search_per_dual_class(monkeypatch, degrees, max_mult, dual_classes):
    built = []
    init = search._Search.__init__

    def counting_init(self, *args):
        built.append(args[2])
        init(self, *args)

    monkeypatch.setattr(search._Search, "__init__", counting_init)
    fr.enumerate_rings(degrees, max_mult=max_mult)
    assert len(built) == len(set(built)) == dual_classes


@pytest.mark.parametrize("degrees,max_mult,runs", [
    pytest.param([1, 3, 3, 5, 5, 5], 2, 6, id="133555-m2"),
    pytest.param([1, 1, 3, 3, 5, 5], 2, 28, id="113355-m2"),
    pytest.param([1] * 6, 1, 173, id="111111-m1"),
])
def test_forward_check_backs_up_when_a_reader_has_no_candidate(monkeypatch, degrees, max_mult, runs):
    calls = []
    run = search._Search.run

    def counting_run(self, *args):
        calls.append(args)
        run(self, *args)

    monkeypatch.setattr(search._Search, "run", counting_run)
    fr.enumerate_rings(degrees, max_mult=max_mult)
    assert len(calls) == runs


@pytest.mark.parametrize("rank_bound", [None, 0, 2.5, "8", True])
def test_bad_rank_bound_rejected(rank_bound):
    with pytest.raises(fr.InvalidSetting, match="rank_bound"):
        fr.enumerate_rings([1, 3], max_mult=1, rank_bound=rank_bound)


@pytest.mark.parametrize("degrees,max_mult,match", [
    ([1, 2.7], 1, "degrees"),
    ([1, "3"], 1, "degrees"),
    ([1.0, 1], 1, "degrees"),
    ([1, 1], 1.5, "max_mult"),
    ([1, 1], "2", "max_mult"),
    ([1, True], 1, "degrees"),
    ([1, 1], True, "max_mult"),
])
def test_non_integer_degrees_or_max_mult_rejected(degrees, max_mult, match):
    with pytest.raises(fr.PreconditionUnmet, match=match):
        fr.enumerate_rings(degrees, max_mult=max_mult, odd_only=False)


def test_chain_fixture_degree_sets_admit_no_complete_ring():
    # The synthetic self-dual-chain example cannot be a complete ring at
    # this degree pattern; the partial fixture in conftest is the honest
    # carrier of that behavior.
    assert fr.enumerate_rings([1, 3, 3, 5, 5], max_mult=4) == []


def test_chain_fixture_rank_six_also_empty():
    assert fr.enumerate_rings([1, 3, 3, 3, 5, 5], max_mult=4) == []


@pytest.mark.parametrize("k,groups", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 1), (6, 2), (7, 1), (8, 5)])
def test_all_grouplike_degrees_give_the_groups_of_order_k(k, groups):
    rings = fr.enumerate_rings([1] * k, max_mult=1, rank_bound=max(k, 7))
    assert len(rings) == groups


def test_census_of_odd_degree_lists_with_a_3_finds_only_grouplike_verdicts():
    # The paper's main theorem: a degree-3 simple and no even degree give a finite ring a grouplike of order 2 or 3.
    lists = [
        [1, *rest] for n in range(1, 7) for rest in combinations_with_replacement((1, 3, 5, 7), n) if 3 in rest
    ]
    assert len(lists) == 126
    rings = [ring for degrees in lists for ring in fr.enumerate_rings(degrees, max_mult=2, rank_bound=8)]
    assert Counter(ring.rank for ring in rings) == {4: 1, 5: 2, 6: 2, 7: 4}
    verdicts = [fr.dichotomy_verdict(ring) for ring in rings]
    assert [v.kind for v in verdicts] == ["grouplike"] * 9
    odd = [v for v in verdicts if v.dimension is not None]
    assert sorted(v.dimension for v in odd) == [15, 15, 21, 21, 39, 39]
    assert all(v.divisible_by_3 is True for v in odd)
    # A4 and the two [1,1,1,3,3,3] rings have even dimension, so report none
    even = [ring for ring, v in zip(rings, verdicts) if v.dimension is None]
    assert [(ring.rank, ring.dimension()) for ring in even] == [(4, 12), (6, 30), (6, 30)]


def _ring(degrees, dual, table, new):
    """The ring of ``table`` with basis element i labelled ``e<new[i]>`` and
    listed in that order."""
    label = [f"e{n}" for n in new]
    products = {
        (label[a], label[b]): {label[c]: n for c, n in enumerate(row) if n} for (a, b), row in table.items()
    }
    order = sorted(range(len(degrees)), key=new.__getitem__)
    return fr.build_ring("ring", [(label[i], degrees[i], label[dual[i]]) for i in order], "e0", products)


def _canonical_spec(degrees, dual, table):
    """The least ``write_spec`` text over relabellings within equal-degree
    blocks; the unit stays first."""
    r = len(degrees)
    blocks = [[i for i in range(1, r) if degrees[i] == d] for d in sorted(set(degrees[1:]))]
    texts = []
    for images in product(*(permutations(block) for block in blocks)):
        new = list(range(r))
        for block, image in zip(blocks, images):
            for old, moved in zip(block, image):
                new[old] = moved
        texts.append(fr.write_spec(_ring(degrees, dual, table, new)))
    return min(texts)


def _brute_force(degrees, max_mult):
    """Every table whose rows meet the degree sums with entries up to
    ``max_mult``, for every dual involution within equal-degree blocks, that
    passes ``check_axioms``; as canonical specs.  Rows failing the duality
    pairing's unit coordinate are dropped before the product is taken."""
    r = len(degrees)
    pairs = [(a, b) for a in range(1, r) for b in range(1, r)]
    unit = {(0, i): tuple(int(c == i) for c in range(r)) for i in range(r)}
    unit.update({(i, 0): row for (_, i), row in unit.items()})
    found = set()
    for dual in product(range(r), repeat=r):
        if dual[0] != 0 or any(dual[dual[i]] != i or degrees[dual[i]] != degrees[i] for i in range(r)):
            continue
        choices = [
            [
                row for row in product(range(max_mult + 1), repeat=r)
                if sum(n * d for n, d in zip(row, degrees)) == degrees[a] * degrees[b]
                and row[0] == int(b == dual[a])
            ]
            for a, b in pairs
        ]
        for rows in product(*choices):
            table = {**unit, **dict(zip(pairs, rows))}
            if fr.check_axioms(_ring(degrees, dual, table, range(r))).all_pass:
                found.add(_canonical_spec(degrees, dual, table))
    return found


@pytest.mark.parametrize(
    "degrees,max_mult",
    [
        ([1], 1), ([1, 1], 2), ([1, 1, 1], 2), ([1, 3], 3),
        ([1, 1, 3], 2), ([1, 3, 3], 2), ([1, 1, 1, 1], 1), ([1, 1, 1, 3], 2),
    ],
)
def test_search_matches_brute_force(degrees, max_mult):
    rings = fr.enumerate_rings(degrees, max_mult=max_mult)
    specs = [
        _canonical_spec(
            degrees,
            [ring.dual_index(i) for i in range(ring.rank)],
            {(a, b): ring.product_row(a, b) for a in range(ring.rank) for b in range(ring.rank)},
        )
        for ring in rings
    ]
    assert len(set(specs)) == len(specs)
    assert set(specs) == _brute_force(degrees, max_mult)
