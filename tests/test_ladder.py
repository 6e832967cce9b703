"""Degree-3 case splits, the self-dual chain, the ladder and its failure
branches, and the top-level verdict."""

import pytest

import fusionring as fr
from fusionring.ladder import (
    FailureBranch,
    GrouplikeFound,
    Obstruction,
    SelfDual,
    SquareSplit,
    TruncationReached,
)

from conftest import (
    TERMINAL_WITHOUT_VIOLATION,
    all_fixture_rings,
    bad_reciprocity_ring,
    chain_length_one_ring,
    count4_corrupt_ring,
    factorization_branch_ring,
    laurent_cg_decompose,
    order2_branch_ring,
    order3_chain_end_ring,
    withhold_rows,
)


# -- degree-3 case split -------------------------------------------------------------------


def test_case_split_on_so3():
    result = fr.degree3_case_split(fr.so3_truncated(9), "x3")
    assert result == SquareSplit("x3", "x5")


def test_case_split_grouplike_a4(a4):
    assert fr.degree3_case_split(a4, "x3") == GrouplikeFound("s", 3)


def test_case_split_grouplike_f21(f21):
    assert fr.degree3_case_split(f21, "x3") == GrouplikeFound("s", 3)
    assert fr.degree3_case_split(f21, "x3c") == GrouplikeFound("s", 3)


def test_case_split_count4_obstruction():
    result = fr.degree3_case_split(count4_corrupt_ring(), "x3")
    assert isinstance(result, Obstruction)
    assert "4 grouplikes" in result.description


def test_case_split_even_degree_obstruction(s3):
    # S3 has a degree-2 simple; the even-degree validation fires before
    # anything else, so probe with a synthetic degree-3 ring containing a 2
    ring = fr.build_ring(
        "even", [("1", 1, "1"), ("w", 2, "w"), ("x", 3, "x")], "1",
        {("x", "x"): {"1": 1, "x": 1, "w": 1}},
    )
    result = fr.degree3_case_split(ring, "x")
    assert isinstance(result, Obstruction)
    assert "even-degree" in result.description


def test_case_split_errors():
    with pytest.raises(fr.NotDegreeThree):
        fr.degree3_case_split(fr.so3_truncated(9), "x5")
    with pytest.raises(fr.UnknownProduct):
        fr.degree3_case_split(fr.so3_truncated(3), "x3")


def _cyclic_block(n, labels):
    rows = {}
    for i in range(n):
        for j in range(n):
            rows[(labels[i], labels[j])] = {labels[(i + j) % n]: 1}
    return rows


def test_case_split_count1_order2():
    # x3 x3* = 1 + g + x7 with g of order 2
    rows = _cyclic_block(2, ["1", "g"])
    rows[("x3", "x3")] = {"1": 1, "g": 1, "x7": 1}
    ring = fr.build_ring("count1", [
        ("1", 1, "1"), ("g", 1, "g"), ("x3", 3, "x3"), ("x7", 7, "x7"),
    ], "1", rows)
    assert fr.degree3_case_split(ring, "x3") == GrouplikeFound("g", 2)


def test_case_split_count3_order4_gives_order2():
    # Klein grouplikes in the remainder: the subgroup of order 4 yields an
    # order-2 element
    rows = {}
    table = {("a", "a"): "1", ("b", "b"): "1", ("c", "c"): "1",
             ("a", "b"): "c", ("b", "a"): "c", ("a", "c"): "b",
             ("c", "a"): "b", ("b", "c"): "a", ("c", "b"): "a"}
    for (x, y), z in table.items():
        rows[(x, y)] = {z: 1}
    rows[("x3", "x3")] = {"1": 1, "a": 1, "b": 1, "c": 1, "x5": 1}
    ring = fr.build_ring("count3", [
        ("1", 1, "1"), ("a", 1, "a"), ("b", 1, "b"), ("c", 1, "c"),
        ("x3", 3, "x3"), ("x5", 5, "x5"),
    ], "1", rows)
    assert fr.degree3_case_split(ring, "x3") == GrouplikeFound("a", 2)


def test_case_split_count5_order6_prefers_order2():
    labs = ["1", "g", "g2", "g3", "g4", "g5"]
    rows = _cyclic_block(6, labs)
    rows[("x3", "x3")] = {l: 1 for l in labs} | {"x3": 1}
    basis = [(labs[k], 1, labs[(6 - k) % 6]) for k in range(6)] + [("x3", 3, "x3")]
    ring = fr.build_ring("count5", basis, "1", rows)
    # order-6 subgroup: g3 has order 2, g2/g4 order 3; canonical pick is order 2
    assert fr.degree3_case_split(ring, "x3") == GrouplikeFound("g3", 2)


def test_case_split_count8_order9():
    # elementary 3-group of order 9: all of x3 x3* - 1 is grouplike
    labs = ["1"] + [f"e{k}" for k in range(1, 9)]
    # (i, j) in Z3 x Z3 encoded as 3*i + j
    def mul(p, q):
        return ((p // 3 + q // 3) % 3) * 3 + (p % 3 + q % 3) % 3
    def inv(p):
        return ((3 - p // 3) % 3) * 3 + (3 - p % 3) % 3
    rows = {}
    for p in range(9):
        for q in range(9):
            rows[(labs[p], labs[q])] = {labs[mul(p, q)]: 1}
    rows[("x3", "x3")] = {l: 1 for l in labs}
    basis = [(labs[p], 1, labs[inv(p)]) for p in range(9)] + [("x3", 3, "x3")]
    ring = fr.build_ring("count8", basis, "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, GrouplikeFound)
    assert result.order == 3


def test_case_split_count6_obstruction():
    labs = ["1", "g", "g2", "g3", "g4", "g5", "g6"]
    rows = _cyclic_block(7, labs)
    rows[("x3", "x3")] = {l: 1 for l in labs}  # degree-corrupt: count 6
    basis = [(labs[k], 1, labs[(7 - k) % 7]) for k in range(7)] + [("x3", 3, "x3")]
    ring = fr.build_ring("count6", basis, "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, Obstruction)
    assert "6 grouplikes" in result.description


def test_case_split_count7_obstruction():
    labs = ["1"] + [f"g{k}" for k in range(1, 8)]
    rows = _cyclic_block(8, labs)
    rows[("x3", "x3")] = {l: 1 for l in labs}  # count 7: impossible accounting
    basis = [(labs[k], 1, labs[(8 - k) % 8]) for k in range(8)] + [("x3", 3, "x3")]
    ring = fr.build_ring("count7", basis, "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, Obstruction)
    assert "inconsistent with the degree accounting" in result.description


def test_case_split_multiplicity_violation():
    rows = _cyclic_block(2, ["1", "g"])
    rows[("x3", "x3")] = {"1": 1, "g": 2, "x3": 2}  # grouplike with mult 2
    ring = fr.build_ring("mult2", [
        ("1", 1, "1"), ("g", 1, "g"), ("x3", 3, "x3"),
    ], "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, Obstruction)
    assert "multiplicity" in result.description


def test_case_split_nonclosed_grouplikes():
    labs = ["1", "g", "g2", "g3", "g4"]
    rows = _cyclic_block(5, labs)
    rows[("x3", "x3")] = {"1": 1, "g": 1, "g2": 1, "x3": 2}
    basis = [(labs[k], 1, labs[(5 - k) % 5]) for k in range(5)] + [("x3", 3, "x3")]
    ring = fr.build_ring("nonclosed", basis, "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, Obstruction)
    assert "close under product" in result.description


def test_case_split_unknown_grouplike_product(a4):
    # A4 with s*s2 withheld: the stabilizer {1, s, s2} of x3 cannot be built
    ring = withhold_rows(a4, ("s", "s2"))
    with pytest.raises(fr.UnknownProduct, match=r"grouplike product s\*s2 is Unknown"):
        fr.degree3_case_split(ring, "x3")
    verdict = fr.dichotomy_verdict(ring)
    assert verdict.kind == "truncated"
    assert verdict.detail == "x3: grouplike product s*s2 is Unknown"


def test_case_split_dual_not_inverse():
    # Z3 grouplikes that close under product, but g and g2 are declared
    # self-dual: the case split rejects them; the verdict stops earlier, at
    # the axiom check
    rows = _cyclic_block(3, ["1", "g", "g2"])
    rows[("x3", "x3")] = {"1": 1, "g": 1, "g2": 1, "x3": 2}
    ring = fr.build_ring("selfdual_z3", [
        ("1", 1, "1"), ("g", 1, "g"), ("g2", 1, "g2"), ("x3", 3, "x3"),
    ], "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, Obstruction)
    assert "dual of g is not its inverse" in result.description
    assert fr.dichotomy_verdict(ring).detail.startswith("axiom check failed")


def test_case_split_dual_check_silent_on_corpus():
    rings = all_fixture_rings() + [
        order2_branch_ring(), factorization_branch_ring(), chain_length_one_ring(),
        count4_corrupt_ring(),
    ]
    for ring in rings:
        for b in ring.elements:
            if b.degree != 3:
                continue
            try:
                result = fr.degree3_case_split(ring, b.label)
            except fr.UnknownProduct:
                continue
            assert not (isinstance(result, Obstruction) and "inverse" in result.description)


def test_case_split_unit_multiplicity_obstruction():
    rows = {("x3", "x3"): {"1": 2, "x3": 1, "x5": 1}}
    ring = fr.build_ring("badunit", [
        ("1", 1, "1"), ("x3", 3, "x3"), ("x5", 5, "x5"),
    ], "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, Obstruction)
    assert "expected 1" in result.description


def test_case_split_bad_split_shape():
    rows = {("x3", "x3"): {"1": 1, "x3": 2}}  # two copies of a degree-3
    ring = fr.build_ring("badsplit", [
        ("1", 1, "1"), ("x3", 3, "x3"),
    ], "1", rows)
    result = fr.degree3_case_split(ring, "x3")
    assert isinstance(result, Obstruction)
    assert "degree-3 plus a degree-5" in result.description


def test_case_split_never_returns_even_degree():
    # split components have degrees 3 and 5 by construction
    for ring in (fr.so3_truncated(9), chain_length_one_ring()):
        for b in ring.elements:
            if b.degree != 3:
                continue
            try:
                result = fr.degree3_case_split(ring, b.label)
            except fr.UnknownProduct:
                continue
            if isinstance(result, SquareSplit):
                assert ring.degree_of(ring.index(result.deg3_label)) == 3
                assert ring.degree_of(ring.index(result.deg5_label)) == 5


# -- self-dual chain -------------------------------------------------------------------


def test_selfdual_chain_zero_on_so3():
    result = fr.selfdual_chain(fr.so3_truncated(9), "x3")
    assert result == SelfDual("x3", "x5", ("x3",))
    assert result.chain_length == 0


def test_selfdual_chain_shortcircuit_f21(f21):
    assert fr.selfdual_chain(f21, "x3") == GrouplikeFound("s", 3)


def test_selfdual_chain_length_one():
    ring = chain_length_one_ring()
    result = fr.selfdual_chain(ring, "a")
    assert result == SelfDual("u", "d", ("a", "u"))
    assert result.chain_length == 1


def test_selfdual_chain_failure_on_cycle():
    # a -> u -> a -> ... : revisits without stabilizing
    ring = fr.build_ring("cyc", [
        ("1", 1, "1"), ("a", 3, "a"), ("u", 3, "u"), ("c", 5, "c"),
    ], "1", {
        ("a", "a"): {"1": 1, "u": 1, "c": 1},
        ("u", "u"): {"1": 1, "a": 1, "c": 1},
    })
    result = fr.selfdual_chain(ring, "a")
    assert isinstance(result, fr.ChainFailure)
    assert result.trace == ("a", "u", "a")


# -- ladder -----------------------------------------------------------------------


def test_ladder_so3_depth_and_families(so3_21):
    cert = fr.ladder_build(so3_21, "x3")
    assert cert.depth_reached == 9
    assert cert.terminal_status == TruncationReached(9)
    assert cert.x_family == tuple(f"x{2*k+1}" for k in range(11))
    assert cert.xprime_family == tuple(f"x{2*k+1}" for k in range(1, 10))
    # x'_{2n+1} = x_{2n+1} at every step
    assert cert.xprime_family == cert.x_family[1:10]


def test_ladder_relations_match_cg_oracle(so3_21):
    cert = fr.ladder_build(so3_21, "x3")
    for n, decomp in cert.relations:
        oracle = laurent_cg_decompose(n, 1, 10)
        assert oracle is not None
        expect = sorted((f"x{2*k+1}", m) for k, m in oracle.items())
        assert sorted(decomp) == expect


def test_ladder_certificate_reverifies(so3_21):
    cert = fr.ladder_build(so3_21, "x3")
    assert fr.verify_certificate(so3_21, cert)


def test_ladder_certificate_tamper_detected(so3_21):
    cert = fr.ladder_build(so3_21, "x3")
    tampered = fr.LadderCertificate(
        cert.x_family[:9] + ("x19", "x17"),
        cert.xprime_family,
        cert.depth_reached,
        cert.relations,
        cert.terminal_status,
    )
    assert not fr.verify_certificate(so3_21, tampered)
    # degree tampering in the primed family is caught too
    tampered = fr.LadderCertificate(
        cert.x_family,
        cert.xprime_family[:-1] + ("x3",),
        cert.depth_reached,
        cert.relations,
        cert.terminal_status,
    )
    assert not fr.verify_certificate(so3_21, tampered)


def test_ladder_certificate_rejects_edited_relations(so3_21):
    cert = fr.ladder_build(so3_21, "x3")
    (n, decomposition), *rest = cert.relations
    edited = cert._replace(relations=((n, decomposition[:-1] + (("x5", 2),)), *rest))
    assert not fr.verify_certificate(so3_21, edited)
    # x1*x3 = x3 is recorded truly, but it is not a ladder step
    assert not fr.verify_certificate(so3_21, cert._replace(relations=((0, (("x3", 1),)),)))
    # the product x5*x3 of the second relation is Unknown
    assert not fr.verify_certificate(withhold_rows(so3_21, ("x5", "x3")), cert)
    # x3*x3 = 1 + x3 + x5 is recorded truly, but x'_3 is gx3, of the same degree
    ring = order2_branch_ring()
    step = fr.LadderCertificate(
        ("1", "x3", "x5"), ("x3",), 1, ((1, (("1", 1), ("x3", 1), ("x5", 1))),), TruncationReached(1)
    )
    assert fr.verify_certificate(ring, step)
    assert not fr.verify_certificate(ring, step._replace(xprime_family=("gx3",)))


def _first_step(cert):
    """The valid depth-1 prefix of a certificate."""
    return cert._replace(
        x_family=cert.x_family[:3], xprime_family=cert.xprime_family[:1], depth_reached=1,
        relations=cert.relations[:1], terminal_status=TruncationReached(1),
    )


@pytest.mark.parametrize("malform", [
    pytest.param(lambda c: c._replace(relations=()), id="no-relations"),
    pytest.param(lambda c: c._replace(relations=c.relations[:2]), id="first-two-relations"),
    pytest.param(lambda c: c._replace(relations=c.relations[:1] * 3), id="one-relation-thrice"),
    pytest.param(lambda c: c._replace(depth_reached=50), id="depth-50"),
    # checked before anything is sized by the claimed depth, which here no list could hold
    pytest.param(lambda c: c._replace(depth_reached=10**18), id="depth-10**18"),
    pytest.param(
        lambda c: c._replace(x_family=c.x_family[:3], xprime_family=c.xprime_family[:1], relations=c.relations[:1]),
        id="cut-families-depth-kept",
    ),
    pytest.param(lambda c: c._replace(x_family=c.x_family[:5]), id="short-x-family"),
    pytest.param(lambda c: c._replace(relations=(*c.relations[:-1], (12, c.relations[-1][1]))), id="past-families"),
    pytest.param(lambda c: c._replace(x_family=(*c.x_family[:-1], "x99")), id="label-not-in-ring"),
    pytest.param(
        lambda c: _first_step(c)._replace(x_family=c.x_family[:2], relations=((-1, c.relations[0][1]),)),
        id="relation-minus-one",
    ),
    pytest.param(lambda c: _first_step(c)._replace(depth_reached=True), id="bool-depth"),
    pytest.param(lambda c: _first_step(c)._replace(relations=(1,)), id="relation-not-a-pair"),
    pytest.param(lambda c: c._replace(relations=(1,)), id="relations-one-int"),
    pytest.param(lambda c: c._replace(x_family=(["x1"], *c.x_family[1:])), id="unhashable-label"),
    pytest.param(lambda c: c._replace(relations=None), id="relations-none"),
    pytest.param(lambda c: c._replace(xprime_family=None), id="xprime-family-none"),
    pytest.param(lambda c: c._replace(terminal_status=TruncationReached(8)), id="terminal-depth"),
    pytest.param(
        lambda c: c._replace(terminal_status=FailureBranch("inconsistent_data", "x21*x3 Unknown")),
        id="failure-terminal",
    ),
])
def test_verify_certificate_refuses_malformed_certificates(so3_21, malform):
    # a certificate re-verifies only with relations 1..depth in order, families
    # of depth + 2 and depth members and a truncation at that depth
    cert = fr.ladder_build(so3_21, "x3")
    assert fr.verify_certificate(so3_21, _first_step(cert))
    assert fr.verify_certificate(so3_21, malform(cert)) is False


def test_ladder_frobenius_symmetry(so3_21):
    # m(x_{2n+1}, x_{2n+3} x3) = m(x_{2n+3}, x_{2n+1} x3) = 1 at every step
    cert = fr.ladder_build(so3_21, "x3")
    e_x3 = so3_21.element("x3")
    for n in range(1, cert.depth_reached):
        lower = so3_21.element(cert.x_family[n])
        upper = so3_21.element(cert.x_family[n + 1])
        assert so3_21.multiplicity(lower, so3_21.multiply(upper, e_x3)) == 1
        assert so3_21.multiplicity(upper, so3_21.multiply(lower, e_x3)) == 1


def test_ladder_truncation_depths():
    so3_3 = fr.so3_truncated(3)
    cert = fr.ladder_build(so3_3, "x3")
    assert cert.terminal_status == TruncationReached(0)
    assert cert.relations == () and fr.verify_certificate(so3_3, cert)
    so3_5 = fr.so3_truncated(5)
    cert = fr.ladder_build(so3_5, "x3")
    assert cert.terminal_status == TruncationReached(1)
    assert cert.depth_reached == 1 and fr.verify_certificate(so3_5, cert)


def test_ladder_deeper_truncation():
    so = fr.so3_truncated(41)
    cert = fr.ladder_build(so, "x3")
    assert cert.depth_reached == 19
    assert cert.terminal_status == TruncationReached(19)
    assert cert.xprime_family == cert.x_family[1:20]
    assert fr.verify_certificate(so, cert)


def test_ladder_max_depth_cap(so3_21):
    cert = fr.ladder_build(so3_21, "x3", max_depth=4)
    assert cert.depth_reached == 4
    assert cert.terminal_status == TruncationReached(4)
    assert fr.verify_certificate(so3_21, cert)


@pytest.mark.parametrize("depth", [0, -1, 1.5, 2.0, "3", True])
def test_non_positive_max_depth_rejected(so3_21, depth):
    with pytest.raises(fr.PreconditionUnmet, match="positive integer"):
        fr.ladder_build(so3_21, "x3", max_depth=depth)
    with pytest.raises(fr.PreconditionUnmet, match="positive integer"):
        fr.dichotomy_verdict(so3_21, max_depth=depth)


def test_ladder_requires_selfdual_shape(a4, f21):
    with pytest.raises(fr.PreconditionUnmet):
        fr.ladder_build(f21, "x3")  # not self-dual
    with pytest.raises(fr.PreconditionUnmet):
        fr.ladder_build(a4, "x3")  # self-dual but square has grouplikes


def test_ladder_fragment_terminal(fragment):
    cert = fr.ladder_build(fragment, "x3")
    t = cert.terminal_status
    assert isinstance(t, FailureBranch)
    assert t.kind == "freeness_violation"
    assert t.violation == (30, 75)
    # gx3*x3 is Unknown, so the shape fallback takes the terminal branch and verifies nothing
    assert t.verified == ()


def test_ladder_order2_branch():
    for ring, verified in [
        (order2_branch_ring(), ("chain t=1: gx3 = g*x3", "chain t=2: x5 = g*x5")),
        # the chain walk meets the Unknown gx3*x3, and the shape fallback finds g
        (withhold_rows(order2_branch_ring(), ("gx3", "x3")), ()),
    ]:
        t = fr.ladder_build(ring, "x3").terminal_status
        assert (t.kind, t.grouplike, t.order, t.verified) == ("grouplike_order2", "g", 2, verified)
        # rows are read through product_row alone, so the packed-row kernel is never built
        assert "_kernel" not in vars(ring)


def test_ladder_impossible_factorization_branch():
    cert = fr.ladder_build(factorization_branch_ring(), "x3")
    t = cert.terminal_status
    assert t.kind == "impossible_factorization"
    assert "g*x5" in t.diagnosis


def test_ladder_inconsistent_reciprocity():
    t = fr.ladder_build(bad_reciprocity_ring(), "x3").terminal_status
    assert isinstance(t, FailureBranch)
    assert t.kind == "inconsistent_data"
    assert "expected 1" in t.diagnosis


def test_ladder_inconsistent_y0_degree():
    # corrupt row where the smallest new component exceeds the top degree
    ring = fr.build_ring("bady0", [
        ("1", 1, "1"), ("x3", 3, "x3"), ("x5", 5, "x5"), ("x7", 7, "x7"),
    ], "1", {
        ("x3", "x3"): {"1": 1, "x3": 1, "x5": 1},
        ("x5", "x3"): {"x3": 1, "x7": 1},
    })
    t = fr.ladder_build(ring, "x3").terminal_status
    assert t.kind == "inconsistent_data"
    assert "degree" in t.diagnosis


def test_ladder_inconsistent_z0_not_basic():
    ring = fr.build_ring("badz0", [
        ("1", 1, "1"), ("x3", 3, "x3"), ("x5", 5, "x5"), ("x7", 7, "x7"),
    ], "1", {
        ("x3", "x3"): {"1": 1, "x3": 1, "x5": 1},
        ("x5", "x3"): {"x3": 1, "x5": 1, "x7": 2},
    })
    t = fr.ladder_build(ring, "x3").terminal_status
    assert t.kind == "inconsistent_data"
    assert "not a basic element" in t.diagnosis


def test_ladder_order3_chain_end_is_inconsistent():
    t = fr.ladder_build(order3_chain_end_ring(), "x3").terminal_status
    assert t.kind == "inconsistent_data"
    assert "square to 1" in t.diagnosis


def test_ladder_skips_an_unknown_chain_identity():
    # with g*x5 withheld, the factorization x5 = g*x5 is skipped, not failed
    t = fr.ladder_build(withhold_rows(order2_branch_ring(), ("g", "x5")), "x3").terminal_status
    assert t.kind == "grouplike_order2"
    assert t.verified == ("chain t=1: gx3 = g*x3", "chain t=2: skipped (Unknown product)")


# Rows whose degree sums are wrong, so no spec file can hold them.
@pytest.mark.parametrize("extra,rows,diagnosis", [
    pytest.param([], {("x5", "x3"): {"x3": 1}}, "x5*x3 - x3 is not a nonzero nonnegative element", id="zero-remainder"),
    pytest.param(
        [("u3", 3, "u3"), ("x9", 9, "x9")],
        {("x5", "x3"): {"x3": 1, "u3": 1, "x9": 1}, ("u3", "x3"): {"x5": 1, "x3": 1}},
        "descending chain does not descend: deg(x3) >= deg(u3)",
        id="chain-does-not-descend",
    ),
    pytest.param(
        [("a3", 3, "a3"), ("b3", 3, "b3"), ("c3", 3, "c3")],
        {("x5", "x3"): {"x3": 1, "a3": 1, "b3": 1, "c3": 1}},
        "non-basic z0 = [('b3', 1), ('c3', 1)] with n = 1 violates the degree accounting "
        "(three degree-3 components at n = 1 are forced)",
        id="terminal-shape",
    ),
])
def test_ladder_inconsistent_degree_sums(extra, rows, diagnosis):
    basis = [("1", 1, "1"), ("x3", 3, "x3"), ("x5", 5, "x5"), *extra]
    ring = fr.build_ring("baddegrees", basis, "1", {("x3", "x3"): {"1": 1, "x3": 1, "x5": 1}, **rows})
    t = fr.ladder_build(ring, "x3").terminal_status
    assert (t.kind, t.diagnosis) == ("inconsistent_data", diagnosis)


# -- verdict ----------------------------------------------------------------------


def test_verdict_f21(f21):
    v = fr.dichotomy_verdict(f21)
    assert v.kind == "grouplike"
    assert v.order == 3
    assert v.dimension == 21
    assert v.divisible_by_3 is True


def test_verdict_a4(a4):
    v = fr.dichotomy_verdict(a4)
    assert v.kind == "grouplike"
    assert v.order == 3
    assert v.dimension is None  # even dimension: no divisibility note


def test_verdict_so3(so3_21):
    v = fr.dichotomy_verdict(so3_21)
    assert v.kind == "ladder"
    assert v.certificate.depth_reached == 9
    assert fr.verify_certificate(so3_21, v.certificate)


def test_verdict_no_degree3():
    assert fr.dichotomy_verdict(fr.cyclic_group_ring(5)).kind == "no_degree3"
    assert fr.dichotomy_verdict(fr.s3_character_ring()).kind == "no_degree3"


def test_verdict_fragment_obstruction(fragment):
    v = fr.dichotomy_verdict(fragment)
    assert v.kind == "obstruction"
    assert "freeness_violation" in v.detail
    assert "30" in v.detail and "75" in v.detail


def test_verdict_order2_ring():
    v = fr.dichotomy_verdict(order2_branch_ring())
    assert v.kind == "grouplike"
    assert v.grouplike == "g"
    assert v.order == 2


def test_verdict_axiom_failure_aborts():
    from conftest import corrupt_z5_ring

    v = fr.dichotomy_verdict(corrupt_z5_ring())
    assert v.kind == "obstruction"
    assert "axiom check failed" in v.detail


def test_verdict_builds_each_ladder_once(monkeypatch):
    # the chains of a and of x3 both stabilize at x3, whose failed ladder is
    # not built a second time
    from fusionring import ladder

    calls = []
    build = ladder.ladder_build
    monkeypatch.setattr(ladder, "ladder_build", lambda ring, label, **kw: calls.append(label) or build(ring, label, **kw))
    assert fr.dichotomy_verdict(fr.parse_spec(TERMINAL_WITHOUT_VIOLATION)).kind == "obstruction"
    assert calls == ["x3"]
