"""Ring spec format: round trips, load-time validation, error reporting."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import specfmt
from fusionring.cli import run

from conftest import all_fixture_rings


@pytest.mark.parametrize("ring", all_fixture_rings(), ids=lambda r: r.name)
def test_round_trip_equality(ring):
    text = fr.write_spec(ring)
    parsed = fr.parse_spec(text)
    assert parsed == ring


@pytest.mark.parametrize("ring", all_fixture_rings(), ids=lambda r: r.name)
def test_round_trip_byte_identical(ring):
    text = fr.write_spec(ring)
    assert fr.write_spec(fr.parse_spec(text)) == text


@pytest.mark.parametrize("ring", [fr.cyclic_group_ring(6), fr.so3_truncated(9), fr.fragment_ring()], ids=lambda r: r.name)
def test_parsed_rows_share_one_string_per_label(ring, monkeypatch):
    seen = {}

    def capture(name, basis, unit, products, truncation_bound=None):
        seen["products"] = products
        return fr.build_ring(name, basis, unit, products, truncation_bound)

    monkeypatch.setattr(specfmt, "build_ring", capture)
    assert fr.parse_spec(fr.write_spec(ring)) == ring
    strings = {}
    for (a, b), row in seen["products"].items():
        for lab in (a, b, *row):
            assert strings.setdefault(lab, lab) is lab
    assert set(strings) == set(ring.labels)


@st.composite
def plain_rings(draw):
    """A ring with a drawn name, degrees and truncation bound that FusionRing
    accepts, and its implied unit rows only."""
    name = draw(st.text(min_size=1, max_size=8).filter(lambda s: s.split() == [s] and "#" not in s))
    degrees = draw(st.lists(st.integers(1, 2**20), max_size=4))
    bound = draw(st.one_of(st.none(), st.integers(0, 2**40).map(lambda k: 2 * k + 1)))
    basis = [("u", 1, "u")] + [(f"b{i}", d, f"b{i}") for i, d in enumerate(degrees)]
    return fr.build_ring(name, basis, "u", {}, truncation_bound=bound)


@settings(max_examples=200, deadline=None)
@given(plain_rings())
def test_every_accepted_name_degree_and_bound_round_trips(ring):
    assert fr.parse_spec(fr.write_spec(ring)) == ring


# Values whose spec text parse_spec would refuse or read back otherwise.
@pytest.mark.parametrize("name,degree,bound", [
    pytest.param("t", True, None, id="bool-degree"),
    pytest.param("t", "3", None, id="string-degree"),
    pytest.param("t", None, None, id="no-degree"),
    pytest.param("t", 1, True, id="bool-bound"),
    pytest.param("t", 1, 4, id="even-bound"),
    pytest.param("my ring", 1, None, id="two-token-name"),
    pytest.param("", 1, None, id="empty-name"),
    pytest.param("a#b", 1, None, id="comment-in-name"),
    pytest.param("a\u2028b", 1, None, id="line-separator-in-name"),
    pytest.param(None, 1, None, id="name-not-a-string"),
])
def test_ring_refuses_values_the_spec_cannot_hold(name, degree, bound):
    with pytest.raises(fr.InvalidRing):
        fr.build_ring(name, [("1", 1, "1"), ("x", degree, "x")], "1", {}, truncation_bound=bound)


def test_partial_flag_written_only_for_partial():
    assert "partial true" not in fr.write_spec(fr.cyclic_group_ring(3))
    assert "partial true" in fr.write_spec(fr.so3_truncated(9))
    assert "truncation 9" in fr.write_spec(fr.so3_truncated(9))


def test_unknown_rows_survive_round_trip():
    so = fr.so3_truncated(9)
    parsed = fr.parse_spec(fr.write_spec(so))
    x9 = parsed.index("x9")
    assert parsed.product_row(x9, x9) is None
    x3 = parsed.index("x3")
    assert parsed.product_row(x3, x3) is not None


def test_z3_spec_line_count():
    # 3 basis lines, unit line, ring line, 4 non-unit product lines
    text = fr.write_spec(fr.cyclic_group_ring(3))
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) == 1 + 3 + 1 + 4
    assert fr.check_axioms(fr.parse_spec(text)).all_pass


def test_z3_handwritten_all_nine_product_lines():
    # explicit unit rows are accepted when they agree with the unit law
    text = """ring Z3
basis 1 1 1
basis g 1 g2
basis g2 1 g
unit 1
prod 1 1 : 1 1
prod 1 g : g 1
prod 1 g2 : g2 1
prod g 1 : g 1
prod g g : g2 1
prod g g2 : 1 1
prod g2 1 : g2 1
prod g2 g : 1 1
prod g2 g2 : g 1
"""
    ring = fr.parse_spec(text)
    assert ring == fr.cyclic_group_ring(3)
    assert fr.check_axioms(ring).all_pass


def test_comments_and_whitespace():
    text = """
# a comment
ring demo   # trailing comment
basis a 1 a
unit a
"""
    ring = fr.parse_spec(text)
    assert ring.name == "demo"
    assert ring.labels == ("a",)


def test_dangling_dual_semantic_error():
    with pytest.raises(fr.RingSemanticError, match="dangling dual"):
        fr.parse_spec("ring t\nbasis a 3 b\nunit a\n")


def test_duplicate_product_semantic_error():
    text = "ring t\nbasis a 1 a\nunit a\nprod a a : a 1\nprod a a : a 1\n"
    with pytest.raises(fr.RingSemanticError, match="duplicate product line"):
        fr.parse_spec(text)


def test_degree_sum_semantic_error():
    text = "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b b : b 1\n"
    with pytest.raises(fr.RingSemanticError, match="degree sum"):
        fr.parse_spec(text)


def test_missing_row_without_partial():
    text = "ring t\nbasis a 1 a\nbasis b 3 b\nunit a\n"
    with pytest.raises(fr.RingSemanticError, match="missing product row"):
        fr.parse_spec(text)


def test_syntax_error_position():
    with pytest.raises(fr.RingSyntaxError) as exc:
        fr.parse_spec("ring t\n  bogus a\n")
    assert exc.value.line == 2
    assert exc.value.column == 3


def test_missing_token_syntax_error():
    with pytest.raises(fr.RingSyntaxError, match="missing token"):
        fr.parse_spec("ring t\nbasis a 1\nunit a\n")


def test_bad_partial_value():
    with pytest.raises(fr.RingSyntaxError, match="partial must be"):
        fr.parse_spec("ring t\npartial maybe\nbasis a 1 a\nunit a\n")


def test_bad_truncation_value():
    with pytest.raises(fr.RingSyntaxError, match="truncation"):
        fr.parse_spec("ring t\ntruncation 8\nbasis a 1 a\nunit a\n")


def test_bad_multiplicity():
    text = "ring t\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b b : b x\n"
    with pytest.raises(fr.RingSyntaxError, match="multiplicity"):
        fr.parse_spec(text)


def test_unit_rows_implied_not_required():
    text = "ring t\nbasis e 1 e\nbasis b 3 b\nunit e\nprod b b : e 1, b 1, b5 0\n"
    with pytest.raises(fr.RingSyntaxError):
        fr.parse_spec(text)  # zero multiplicity is rejected


def test_explicit_unit_row_must_match():
    text = "ring t\nbasis e 1 e\nbasis b 3 b\nunit e\nprod e b : b 3\nprod b b : e 1, b 1, e 0\n"
    with pytest.raises((fr.RingSemanticError, fr.RingSyntaxError)):
        fr.parse_spec(text)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_cyclic_round_trip_property(n):
    ring = fr.cyclic_group_ring(n)
    assert fr.parse_spec(fr.write_spec(ring)) == ring


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcdef \n:#013579", max_size=80))
def test_parser_raises_only_format_errors(junk):
    # arbitrary junk must come back as a format error, never something else
    try:
        fr.parse_spec(junk)
    except (fr.RingSyntaxError, fr.RingSemanticError):
        pass


# -- one validation pass: the ring's checks, mapped back to spec lines ---------

# Invalid specs and the error each gives.  The dangling-dual, unit-label and
# unknown-product-label checks are made by FusionRing alone; parse_spec adds
# the line of the basis label or product pair at fault.  Where a file has
# several errors, the ring's structural checks come before the format's
# degree-sum and completeness rules.
INVALID_SPECS = [
    ("dangling-dual", "ring t\nbasis a 1 a\nbasis b 3 zz\nunit a\n",
     fr.RingSemanticError, "line 3: dangling dual label 'zz' on basis element 'b'"),
    ("unit-missing", "ring t\nbasis a 1 a\nunit z\n",
     fr.RingSemanticError, "unit label 'z' not in basis"),
    ("unknown-left", "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod q b : b 3\n",
     fr.RingSemanticError, "line 6: product row (q,b) references unknown label 'q'"),
    ("unknown-right", "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b q : b 3\n",
     fr.RingSemanticError, "line 6: product row (b,q) references unknown label 'q'"),
    ("unknown-term", "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b b : a 1, q 2, b 2\n",
     fr.RingSemanticError, "line 6: product row (b,b) references unknown label 'q'"),
    ("not-involution", "ring t\npartial true\nbasis a 1 a\nbasis b 3 c\nbasis c 3 c\nunit a\n",
     fr.RingSemanticError, "dual map is not an involution at b"),
    ("unit-not-self-dual", "ring t\npartial true\nbasis a 1 b\nbasis b 1 a\nunit a\n",
     fr.RingSemanticError, "unit must be self-dual"),
    ("unit-row", "ring t\npartial true\nbasis e 1 e\nbasis b 3 b\nunit e\nprod b e : e 3\n",
     fr.RingSemanticError, "explicit unit row (1, 0) contradicts the unit law"),
    ("degree-sum", "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b b : b 1\n",
     fr.RingSemanticError, "line 6: degree sum of product row (b,b) is 3, expected 9"),
    ("missing-row", "ring t\nbasis a 1 a\nbasis b 3 b\nunit a\n",
     fr.RingSemanticError, "missing product row (b,b) in a complete (partial false) ring"),
    ("unknown-before-degree-sum",
     "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b b : b 1\nprod b q : b 3\n",
     fr.RingSemanticError, "line 7: product row (b,q) references unknown label 'q'"),
    ("unit-row-before-degree-sum", "ring t\npartial true\nbasis e 1 e\nbasis b 3 b\nunit e\nprod e b : b 3\n",
     fr.RingSemanticError, "explicit unit row (0, 1) contradicts the unit law"),
    ("dangling-before-unit", "ring t\nbasis a 1 a\nbasis b 3 zz\nunit z\n",
     fr.RingSemanticError, "line 3: dangling dual label 'zz' on basis element 'b'"),
    # a directive of fixed arity names its first surplus token
    ("ring-surplus", "ring R junk\nbasis 1 1 1\nunit 1\n",
     fr.RingSyntaxError, "line 1, column 8: ring: surplus token 'junk'"),
    ("partial-surplus", "ring t\npartial true false\nbasis a 1 a\nunit a\n",
     fr.RingSyntaxError, "line 2, column 14: partial: surplus token 'false'"),
    ("truncation-surplus", "ring t\ntruncation 3\t5 # comment\nbasis a 1 a\nunit a\n",
     fr.RingSyntaxError, "line 2, column 14: truncation: surplus token '5'"),
    ("basis-surplus", "ring t\nbasis 1 1 1 extra\nunit 1\n",
     fr.RingSyntaxError, "line 2, column 13: basis: surplus token 'extra'"),
    ("unit-surplus", "ring t\nbasis 1 1 1\nunit 1 more\n",
     fr.RingSyntaxError, "line 3, column 8: unit: surplus token 'more'"),
    # a repeated ring or unit line: a surplus token is named first, then the
    # repetition, then a missing token
    ("ring-repeated-surplus", "ring t\nring u v\nbasis 1 1 1\nunit 1\n",
     fr.RingSyntaxError, "line 2, column 8: ring: surplus token 'v'"),
    ("ring-repeated-bare", "ring t\nring\nbasis 1 1 1\nunit 1\n",
     fr.RingSemanticError, "line 2: duplicate ring line"),
    ("unit-repeated-bare", "ring t\nbasis 1 1 1\nunit 1\nunit\n",
     fr.RingSemanticError, "line 4: duplicate unit line"),
]


@pytest.mark.parametrize("text,error,message", [c[1:] for c in INVALID_SPECS], ids=[c[0] for c in INVALID_SPECS])
def test_invalid_spec_error(text, error, message):
    with pytest.raises(error) as exc:
        fr.parse_spec(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,column", [
    ("ring t\nbasis a ² a\nunit a\n", 9),  # superscript two as a degree
    ("ring t\ntruncation ³\nbasis a 1 a\nunit a\n", 12),
    ("ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b b : a ²\n", 14),
    ("ring t\nbasis a " + "1" * 5000 + " a\nunit a\n", 9),  # more digits than int() converts
])
def test_non_decimal_number_is_a_syntax_error(text, column):
    # str.isdigit() accepts these tokens but int() rejects them
    with pytest.raises(fr.RingSyntaxError) as exc:
        fr.parse_spec(text)
    assert exc.value.column == column


def test_decimal_digits_of_any_script_are_numbers():
    ring = fr.parse_spec("ring t\nbasis a ١ a\nunit a\n")  # ARABIC-INDIC DIGIT ONE
    assert ring.degree_of(0) == 1


def test_coefficient_overflow_is_a_semantic_error():
    big = 2**63
    text = f"ring t\npartial true\nbasis a 1 a\nbasis b {big} b\nunit a\nprod b b : b {big}\n"
    with pytest.raises(fr.RingSemanticError, match="exceeds checked 64-bit range"):
        fr.parse_spec(text)


def test_coefficient_overflow_in_range_basis_is_a_semantic_error():
    # the dimension fits in 64 bits, so the row's coefficient is what overflows
    text = f"ring t\npartial true\nbasis a 1 a\nbasis b 1 b\nunit a\nprod b b : b {2**63}\n"
    with pytest.raises(fr.RingSemanticError, match="coefficient 9223372036854775808 exceeds checked 64-bit range"):
        fr.parse_spec(text)


# -- fuzzing the spec edge -----------------------------------------------------

LABEL = st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True)


@st.composite
def spec_rings(draw):
    """Rings the format accepts: any labels, degrees and dual involution, and
    rows meeting the degree sums; Unknown rows when partial."""
    labels = draw(st.lists(LABEL, min_size=1, max_size=5, unique=True))
    degrees = [1] + [draw(st.integers(1, 4)) for _ in labels[1:]]
    dual = list(range(len(labels)))
    for i in range(1, len(labels)):
        if dual[i] == i:
            free = [j for j in range(i, len(labels)) if dual[j] == j and degrees[j] == degrees[i]]
            j = draw(st.sampled_from(free))
            dual[i], dual[j] = j, i
    partial = draw(st.booleans())
    products = {}
    for a in range(1, len(labels)):
        for b in range(1, len(labels)):
            if partial and draw(st.booleans()):
                continue
            left = degrees[a] * degrees[b]
            row = {}
            for c in draw(st.lists(st.integers(1, len(labels) - 1), max_size=3)):
                if degrees[c] <= left:
                    m = draw(st.integers(1, left // degrees[c]))
                    row[labels[c]] = row.get(labels[c], 0) + m
                    left -= m * degrees[c]
            if left:
                row[labels[0]] = left
            products[(labels[a], labels[b])] = row
    truncation = draw(st.none() | st.integers(0, 20).map(lambda k: 2 * k + 1))
    basis = [(lab, deg, labels[d]) for lab, deg, d in zip(labels, degrees, dual)]
    return fr.build_ring(draw(LABEL), basis, labels[0], products, truncation)


@settings(max_examples=100, deadline=None)
@given(spec_rings())
def test_random_rings_round_trip(ring):
    text = fr.write_spec(ring)
    parsed = fr.parse_spec(text)
    assert parsed == ring
    assert fr.write_spec(parsed) == text


MUTATION_ALPHABET = "ab1_ 0123456789\n:,#²٣-x"


@st.composite
def mutated_specs(draw):
    """A valid spec with a few tokens or separators replaced, extended or cut."""
    pieces = re.split(r"(\s+)", fr.write_spec(draw(spec_rings())))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.sampled_from(range(len(pieces))))
        junk = draw(st.text(MUTATION_ALPHABET, max_size=3))
        pieces[k] = draw(st.sampled_from([junk, pieces[k] + junk, junk + pieces[k]]))
    return "".join(pieces)


@settings(max_examples=150, deadline=None)
@given(mutated_specs())
def test_mutated_specs_raise_only_format_errors(text):
    try:
        fr.parse_spec(text)
    except (fr.RingSyntaxError, fr.RingSemanticError):
        pass


@settings(max_examples=60, deadline=None)
@given(mutated_specs())
def test_mutated_specs_through_cli_check(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.spec"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["check", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("fusionring: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
