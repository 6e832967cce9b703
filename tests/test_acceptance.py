"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact integer equality; the stated runtime budgets are
asserted with a monotonic clock.
"""

import time
from contextlib import contextmanager

import fusionring as fr

from conftest import all_fixture_rings, complete_fixture_rings, count4_corrupt_ring


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_oracle_axiom_suite():
    with criterion(1, "oracle axiom suite, all-pass zero-skip, <5s"):
        start = time.monotonic()
        rings = [fr.cyclic_group_ring(n) for n in range(1, 9)]
        rings += [fr.s3_character_ring(), fr.a4_character_ring(), fr.f21_character_ring()]
        for ring in rings:
            report = fr.check_axioms(ring)
            assert report.all_pass, ring.name
            assert report.total_skipped == 0, ring.name
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_grouplike():
    with criterion(2, "grouplike conclusion on F21 and A4, 3 | 21 noted"):
        f21 = fr.f21_character_ring()
        v = fr.dichotomy_verdict(f21)
        assert v.kind == "grouplike"
        assert v.order == 3
        assert v.dimension == 21
        assert v.divisible_by_3 is True
        a4 = fr.a4_character_ring()
        v = fr.dichotomy_verdict(a4)
        assert v.kind == "grouplike"
        assert v.order == 3


def test_criterion_3_ladder():
    with criterion(3, "ladder certificate on so3(21), depth 9, re-verified, <1s"):
        start = time.monotonic()
        so = fr.so3_truncated(21)
        v = fr.dichotomy_verdict(so)
        assert v.kind == "ladder"
        cert = v.certificate
        assert cert.depth_reached == 9
        assert cert.xprime_family == cert.x_family[1:10]  # x'_{2n+1} = x_{2n+1}
        # independent checker path: direct multiply/decompose per relation
        assert fr.verify_certificate(so, cert)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_fragment_numbers():
    with criterion(4, "fragment closures 30 and 75, violation exactly (30,75)"):
        frag = fr.fragment_ring()
        assert fr.closure(frag, {"x5"}).hopf_dimension == 30
        assert fr.closure(frag, {"x3"}).hopf_dimension == 75
        violations = fr.freeness_obstructions(frag)
        assert [(s.hopf_dimension, b.hopf_dimension) for s, b in violations] == [(30, 75)]


def test_criterion_5_case_split_branches():
    with criterion(5, "degree-3 case split branch coverage"):
        assert fr.degree3_case_split(fr.so3_truncated(9), "x3") == fr.SquareSplit("x3", "x5")
        assert fr.degree3_case_split(fr.a4_character_ring(), "x3") == fr.GrouplikeFound("s", 3)
        assert fr.degree3_case_split(fr.f21_character_ring(), "x3") == fr.GrouplikeFound("s", 3)
        result = fr.degree3_case_split(count4_corrupt_ring(), "x3")
        assert isinstance(result, fr.Obstruction)


def test_criterion_6_stabilizer_law_full_corpus():
    with criterion(6, "stabilizer law over the full corpus, zero counterexamples"):
        checked = 0
        for ring in all_fixture_rings():
            for b in ring.elements:
                x = ring.index(b.label)
                row = ring.product_row(x, ring.dual_index(x))
                if row is None:
                    continue
                by_mult = {g for g in ring.grouplike_indices() if row[g] == 1}
                assert all(row[g] in (0, 1) for g in ring.grouplike_indices())
                rows_known = all(
                    ring.basic_product(g, x) is not None for g in ring.grouplike_indices()
                )
                if rows_known:
                    fixing = {
                        g
                        for g in ring.grouplike_indices()
                        if ring.basic_product(g, x) == ring.element(b.label)
                    }
                    assert by_mult == fixing, (ring.name, b.label)
                assert len(by_mult) <= b.degree**2
                for g in by_mult:
                    for h in by_mult:
                        gh = ring.basic_product(g, h)
                        if gh is not None:
                            assert gh.is_basic() and gh.basic_index() in by_mult
                checked += 1
        assert checked > 30


def test_criterion_7_identity_suite():
    with criterion(7, "reciprocity, dual symmetry, degree map on all complete rings"):
        for ring in complete_fixture_rings():
            r = ring.rank
            d = ring.dual_index
            for a in range(r):
                for b in range(r):
                    row = ring.product_row(a, b)
                    # degree homomorphism
                    assert sum(m * ring.degree_of(c) for c, m in enumerate(row)) == \
                        ring.degree_of(a) * ring.degree_of(b)
                    # m(x,y) = m(x*,y*) through structure constants: (ab)* = b*a*
                    mirror = ring.product_row(d(b), d(a))
                    for c in range(r):
                        assert row[c] == mirror[d(c)]
                    # Frobenius reciprocity on every basic triple
                    for x in range(r):
                        assert row[x] == ring.product_row(b, d(x))[d(a)]
                        assert row[x] == ring.product_row(x, d(b))[a]
                    # basic-pair dual symmetry of the multiplicity pairing
                    assert (a == b) == (d(a) == d(b))


def test_criterion_8_search_desk_scale():
    with criterion(8, "search soundness/completeness at desk scale, <60s"):
        start = time.monotonic()
        z3_rings = fr.enumerate_rings([1, 1, 1], max_mult=2)
        assert len(z3_rings) == 1
        gg = fr.grouplike_group(z3_rings[0])
        assert sorted(gg.orders) == [1, 3, 3]

        rings = fr.enumerate_rings([1, 1, 1, 3], max_mult=2)
        assert len(rings) == 1
        ring = rings[0]
        a4 = fr.a4_character_ring()
        relabel = {"1": "1", "d1n1": "s", "d1n2": "s2", "d3n1": "x3"}
        for i, j in ring.known_pairs():
            oracle_row = a4.product_row(
                a4.index(relabel[ring.label(i)]), a4.index(relabel[ring.label(j)])
            )
            for c, m in enumerate(ring.product_row(i, j)):
                assert m == oracle_row[a4.index(relabel[ring.label(c)])]

        # every emitted ring passes the criterion-7 identities
        for emitted in z3_rings + rings:
            rep = fr.check_axioms(emitted)
            assert rep.all_pass and rep.total_skipped == 0
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_9_round_trip():
    with criterion(9, "spec round trip over every fixture ring"):
        for ring in all_fixture_rings():
            text = fr.write_spec(ring)
            parsed = fr.parse_spec(text)
            assert parsed == ring, ring.name
            assert fr.write_spec(parsed) == text, ring.name
