"""Axiom checker: oracle rings pass, corrupt rings fail with witnesses,
partial rings skip honestly."""

import pytest

import fusionring as fr

from conftest import all_fixture_rings, complete_fixture_rings, corrupt_z5_ring

CHECK_NAMES = (
    "unit_law",
    "duality_pairing",
    "associativity",
    "degree_homomorphism",
    "dual_compatibility",
    "frobenius_reciprocity",
    "grouplike_rule",
)


@pytest.mark.parametrize("ring", complete_fixture_rings(), ids=lambda r: r.name)
def test_oracle_rings_all_pass_zero_skip(ring):
    report = fr.check_axioms(ring)
    assert report.all_pass
    assert report.total_skipped == 0


def test_every_named_check_appears_once():
    report = fr.check_axioms(fr.cyclic_group_ring(4))
    assert tuple(e.name for e in report.entries) == CHECK_NAMES
    with pytest.raises(KeyError, match="no_such_check"):
        report.entry("no_such_check")


def test_corrupt_z5_fails_degree_homomorphism_with_witness():
    report = fr.check_axioms(corrupt_z5_ring())
    entry = report.entry("degree_homomorphism")
    assert entry.status == "fail"
    assert entry.witness is not None
    assert entry.witness.instance == ("g", "g")
    assert "expected 1" in entry.witness.detail


def test_corrupt_ring_shows_all_downstream_symptoms():
    # checks never short-circuit: the single corrupt constant trips several
    report = fr.check_axioms(corrupt_z5_ring())
    failed = {e.name for e in report.entries if e.status == "fail"}
    assert "degree_homomorphism" in failed
    assert "associativity" in failed
    assert "frobenius_reciprocity" in failed
    assert "grouplike_rule" in failed


def test_partial_ring_skips_not_passes():
    report = fr.check_axioms(fr.so3_truncated(3))
    assert not report.has_failures
    assert report.total_skipped > 0
    assert report.entry("duality_pairing").status == "skipped-unknown"


def test_fragment_zero_failures(fragment):
    report = fr.check_axioms(fragment)
    assert not report.has_failures
    assert report.total_skipped > 0


def test_report_deterministic_and_idempotent(fragment):
    r1 = fr.check_axioms(fragment)
    r2 = fr.check_axioms(fragment)
    assert r1 == r2
    assert r1.as_dict() == r2.as_dict()


def test_frobenius_extension_consequence():
    # m(xy, z*1) = m(x, z*y^*) re-derived through the biadditive extension
    for ring in (fr.cyclic_group_ring(6), fr.a4_character_ring(), fr.f21_character_ring()):
        for a in ring.elements:
            for b in ring.elements:
                for c in ring.elements:
                    x = ring.element(a.label)
                    y = ring.element(b.label)
                    z = ring.element(c.label)
                    lhs = ring.multiplicity(ring.multiply(x, y), z)
                    rhs = ring.multiplicity(x, ring.multiply(z, ring.dual(y)))
                    assert lhs == rhs


def test_stabilizer_rule_so3(so3_21):
    report = fr.check_stabilizer_rule(so3_21, "x3")
    assert not report.has_failures
    assert fr.stabilizer_labels(so3_21, "x3") == ("x1",)


def test_stabilizer_rule_f21(f21):
    report = fr.check_stabilizer_rule(f21, "x3")
    assert report.all_pass
    assert fr.stabilizer_labels(f21, "x3") == ("1", "s", "s2")


def test_stabilizer_of_unit_is_trivial():
    for ring in (fr.cyclic_group_ring(5), fr.f21_character_ring()):
        unit = ring.label(ring.unit_index)
        assert fr.stabilizer_labels(ring, unit) == (unit,)


def test_stabilizer_rule_unknown_product(fragment):
    with pytest.raises(fr.UnknownProduct):
        fr.check_stabilizer_rule(fragment, "gx3")
    with pytest.raises(fr.UnknownProduct, match=r"gx3\*h3x3 is Unknown"):
        fr.stabilizer_labels(fragment, "gx3")


def test_stabilizer_rule_fragment_x5(fragment):
    report = fr.check_stabilizer_rule(fragment, "x5")
    assert not report.has_failures
    assert fr.stabilizer_labels(fragment, "x5") == ("1", "g", "h1", "h2", "h3")


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_single_fault_injection_always_caught(complete_rings, data):
    # bump any single structure constant of a valid complete ring: the
    # degree homomorphism check must trip (the row sum is off by deg(c))
    ring = data.draw(st.sampled_from(complete_rings))
    pairs = [(i, j) for i, j in ring.known_pairs()
             if i != ring.unit_index and j != ring.unit_index]
    if not pairs:
        return
    i, j = data.draw(st.sampled_from(pairs))
    c = data.draw(st.integers(min_value=0, max_value=ring.rank - 1))
    products = {}
    for a, b in ring.known_pairs():
        row = ring.product_row(a, b)
        products[(ring.label(a), ring.label(b))] = {
            ring.label(k): m for k, m in enumerate(row) if m
        }
    target = products[(ring.label(i), ring.label(j))]
    label_c = ring.label(c)
    target[label_c] = target.get(label_c, 0) + 1
    basis = [(b.label, b.degree, b.dual_label) for b in ring.elements]
    mutated = fr.build_ring("mutated", basis, ring.label(ring.unit_index), products)
    report = fr.check_axioms(mutated)
    assert report.entry("degree_homomorphism").status == "fail"


def test_stabilizer_law_full_corpus():
    # {g : gx = x} == {g : m(g, x x*) = 1}, product-closed, size <= deg^2
    for ring in all_fixture_rings():
        for b in ring.elements:
            x = ring.index(b.label)
            row = ring.product_row(x, ring.dual_index(x))
            if row is None:
                continue
            by_mult = {g for g in ring.grouplike_indices() if row[g] == 1}
            fixing = set()
            skip = False
            for g in ring.grouplike_indices():
                gx = ring.basic_product(g, x)
                if gx is None:
                    skip = True
                    break
                if gx == ring.element(b.label):
                    fixing.add(g)
            if not skip:
                assert by_mult == fixing, (ring.name, b.label)
            assert len(by_mult) <= b.degree**2
            for g in by_mult:
                for h in by_mult:
                    gh = ring.basic_product(g, h)
                    if gh is not None:
                        assert gh.is_basic() and gh.basic_index() in by_mult
