"""Character tables: validation, exact structure constants, float cross-checks."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import chartable
from fusionring.chartable import parse_value
from fusionring.cyclotomic import Cyclotomic

from conftest import Z4_WITHOUT_CHI2, float_inner_product, float_structure_constant, value_or_error
from cyclo_reference import zeta_sum


def test_parse_value_forms():
    assert parse_value("3", 7) == 3
    assert parse_value("-1", 7) == -1
    assert parse_value("z", 7) == Cyclotomic.zeta_power(7, 1)
    assert parse_value("z^3", 7) == Cyclotomic.zeta_power(7, 3)
    assert parse_value("-z^2", 7) == Cyclotomic(7, [0, 0, -1])
    assert parse_value("1+2*z", 7) == Cyclotomic(7, [1, 2])
    assert parse_value("z^3+z^6+z^12", 21) == zeta_sum(21, 3, 6, 12)
    # a stray sign is refused, not dropped: "--1" once read as -1, "1++2" as 3 and "-" as 0
    for bad in ("z*2", "", "--1", "1+", "1++2", "-", "+", "z-", "1+-z"):
        with pytest.raises(ValueError):
            parse_value(bad, 7)


@pytest.mark.parametrize("name,order,rank", [("s3", 6, 3), ("a4", 12, 4), ("f21", 21, 5), ("z3", 3, 3)])
def test_fixture_tables_validate(name, order, rank):
    table = fr.fixture_character_table(name)
    table.validate()
    assert table.group_order == order
    assert len(table.characters) == rank


@pytest.mark.parametrize("name", ["s3", "a4", "f21"])
def test_orthogonality_matches_float_oracle(name):
    table = fr.fixture_character_table(name)
    n = len(table.characters)
    for i in range(n):
        for j in range(n):
            numeric = float_inner_product(table, i, j)
            expect = 1 if i == j else 0
            assert abs(numeric - expect) < 1e-9


@pytest.mark.parametrize("name", ["s3", "a4", "f21", "z3"])
def test_structure_constants_match_float_oracle(name):
    table = fr.fixture_character_table(name)
    ring = fr.fixture_character_ring(name)
    n = ring.rank
    # ring labels are in canonical order; map ring index -> table row
    label_to_row = {}
    labels = {
        "s3": ("1", "sgn", "x2"),
        "a4": ("1", "s", "s2", "x3"),
        "f21": ("1", "s", "s2", "x3", "x3c"),
        "z3": ("1", "g", "g2"),
    }[name]
    for row, lab in enumerate(labels):
        label_to_row[lab] = row
    for a in range(n):
        for b in range(n):
            row = ring.product_row(a, b)
            for c in range(n):
                expect = float_structure_constant(
                    table,
                    label_to_row[ring.label(a)],
                    label_to_row[ring.label(b)],
                    label_to_row[ring.label(c)],
                )
                assert row[c] == expect


def test_a4_square_decomposition():
    a4 = fr.a4_character_ring()
    sq = a4.multiply(a4.element("x3"), a4.element("x3"))
    assert a4.decompose(sq) == [("1", 1), ("s", 1), ("s2", 1), ("x3", 2)]


def test_f21_cube_root_structure():
    f21 = fr.f21_character_ring()
    x3 = f21.element("x3")
    assert f21.decompose(f21.multiply(x3, f21.element("x3c"))) == [
        ("1", 1), ("s", 1), ("s2", 1), ("x3", 1), ("x3c", 1),
    ]
    assert f21.decompose(f21.multiply(x3, x3)) == [("x3", 1), ("x3c", 2)]
    assert f21.decompose(f21.multiply(f21.element("s"), x3)) == [("x3", 1)]


def test_s3_even_degree_ring_for_axiom_tests():
    s3 = fr.s3_character_ring()
    sq = s3.multiply(s3.element("x2"), s3.element("x2"))
    assert s3.decompose(sq) == [("1", 1), ("sgn", 1), ("x2", 1)]


def test_cyclic_table_ring_equals_group_ring():
    # two oracle routes to the same ring must agree exactly
    for n in (1, 2, 3, 5, 8):
        table = fr.cyclic_character_table(n)
        labels = ["1"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
        via_table = fr.char_table_ring(table, labels)
        assert via_table == fr.cyclic_group_ring(n)


# The generators take exactly an int: True is not 1, and 2.0 and "3" are not orders.
@pytest.mark.parametrize("make,value,message", [
    *[(fr.cyclic_group_ring, v, "n must be >= 1") for v in (True, 2.0, "3")],
    *[(fr.cyclic_character_table, v, "n must be >= 1") for v in (True, 2.0, "3")],
    *[(fr.so3_truncated, v, "odd integer >= 3") for v in (True, 7.0, "7")],
])
def test_generators_refuse_non_int(make, value, message):
    with pytest.raises(ValueError, match=message):
        make(value)


def test_cyclic_character_table_refuses_zero():
    with pytest.raises(ValueError, match="n must be >= 1"):
        fr.cyclic_character_table(0)


def test_unknown_fixture_table_names_the_fixtures():
    with pytest.raises(ValueError, match="'nope': one of s3, a4, f21, z3"):
        fr.fixture_character_table("nope")


def test_load_character_table_from_path(tmp_path):
    from importlib import resources

    src = resources.files("fusionring.fixtures").joinpath("z3.chartab").read_text()
    path = tmp_path / "z3.chartab"
    path.write_text(src)
    table = fr.load_character_table(path)
    assert table.group_order == 3
    assert table.conjugate_map == (0, 2, 1)


def test_corrupt_table_orthogonality_failure():
    text = """
group bad 6
conductor 1
class 1
class 3
class 2
char 1 1 1 1
char 1 1 -1 1
char 2 2 1 -1
"""
    with pytest.raises(fr.OrthogonalityFailure):
        fr.parse_character_table(text)


def test_corrupt_table_class_sizes():
    text = """
group bad 7
conductor 1
class 1
class 3
class 2
char 1 1 1 1
"""
    with pytest.raises(fr.OrthogonalityFailure):
        fr.parse_character_table(text)


def test_dualpair_mismatch_detected():
    # dualpair claims rows 1,2 conjugate but values are not
    text = """
group bad 3
conductor 3
class 1
class 1
class 1
char 1 1 1 1
char 1 1 z z^2
char 1 1 z z^2
dualpair 1 2
"""
    with pytest.raises(fr.OrthogonalityFailure):
        fr.parse_character_table(text)


def test_gen_chartable_validates_the_table_once(monkeypatch, tmp_path, capsys):
    from importlib import resources

    from fusionring.chartable import CharacterTable
    from fusionring.cli import run

    calls = []
    validate = CharacterTable.validate
    monkeypatch.setattr(CharacterTable, "validate", lambda table: calls.append(table) or validate(table))
    path = tmp_path / "a4.chartab"
    path.write_text(resources.files("fusionring.fixtures").joinpath("a4.chartab").read_text())
    assert run(["gen", "chartable", str(path)]) == 0
    assert len(calls) == 1



def test_incomplete_table_rejected():
    with pytest.raises(fr.OrthogonalityFailure, match="3 character rows for 4 classes"):
        fr.parse_character_table(Z4_WITHOUT_CHI2)


@pytest.mark.parametrize("text,message", [
    ("group Z1 1\nconductor 0\nclass 1\nchar 1 1\n", "line 2: conductor must be a positive integer"),
    ("group Z1 1\nconductor -3\nclass 1\nchar 1 1\n", "line 2: conductor must be a positive integer"),
    ("group Z1 1\nconductor 1\nclass 1\n", "no char lines"),
    ("group Z1 1\nconductor 1\nclass 1\nchar\n", "line 4: char needs a degree"),
    ("group Z2 2\nconductor 2\nclass 1\nclass 1\nchar 1 1 1\nchar 1 1 -1\ndualpair 1 5\n",
     "line 7: dualpair index out of range"),
    ("group Z2 2\nconductor 2\nclass 1\nclass 1\nchar 1 1 1\nchar 1 1 -1\ndualpair -1 0\n",
     "line 7: dualpair index out of range"),
    ("group Z1 0\nconductor 1\nclass 1\nchar 1 1\n", "line 1: group order must be a positive integer"),
    ("group Z1 1\nconductor 1\nclass 0\nchar 1 1\n", "line 3: class size must be a positive integer"),
    ("group Z1 1\nconductor 1\nclass 1\n\nchar 1 2\n", "line 5: char row 0: declared degree 1"),
    ("group Z1 1\nconductor 1\nclass 1\nchar 1 y\n", "line 4: bad cyclotomic term"),
    ("group Z1 1\nconductor 1\nclass 1\nchar 1 1+\n", r"line 4: bad cyclotomic term '\+' in '1\+'"),
    ("group Z2 2\ngroup Z3 3\nconductor 1\nclass 1\nchar 1 1\n", "line 2: duplicate group line"),
    ("group Z1 1\nconductor 1\nconductor 2\nclass 1\nchar 1 1\n", "line 3: duplicate conductor line"),
    (Z4_WITHOUT_CHI2.replace("dualpair 1 2", "char 1 1 -1 1 -1\ndualpair 1 3\ndualpair 3 2"),
     "line 13: row 3 is already paired on line 12"),
    ("group Z1 1\nconductor 5041\nclass 1\nchar 1 1\n", "line 2: conductor 5041 exceeds bound 5040"),
    ("group Z2\nconductor 2\nclass 1\nchar 1 1\n", "line 1: group needs a name and an order"),
    ("group Z1 1\nconductor\nclass 1\nchar 1 1\n", "line 2: conductor needs a number"),
    ("group Z1 1\nconductor 1\nclass\nchar 1 1\n", "line 3: class needs a size"),
    ("group Z2 2\nconductor 2\nclass 1\nclass 1\nchar 1 1 1\nchar 1 1 -1\ndualpair 1\n",
     "line 7: dualpair needs two row indices"),
    ("group Z1 1 extra\nconductor 1\nclass 1\nchar 1 1\n",
     "line 1: group takes only a name and an order, got surplus token 'extra'"),
    ("group Z1 1\nconductor 1 7\nclass 1\nchar 1 1\n", "line 2: conductor takes only a number, got surplus token '7'"),
    ("group Z1 1\nconductor 1\nclass 1 2\nchar 1 1\n", "line 3: class takes only a size, got surplus token '2'"),
    ("group Z2 2\nconductor 2\nclass 1\nclass 1\nchar 1 1 1\nchar 1 1 -1\ndualpair 1 1 0\n",
     "line 7: dualpair takes only two row indices, got surplus token '0'"),
    ("group Z1 1\nconductor 1\nclass 1\nbogus 1\nchar 1 1\n", "line 4: unknown directive 'bogus'"),
    ("conductor 1\nclass 1\nchar 1 1\n", "missing group line"),
    ("group Z1 1\nclass 1\nchar 1 1\n", "missing conductor line"),
    ("group Z1 1\nconductor 1\nchar 1 1\n", "no class lines"),
    ("group Z1 1\nconductor 1\nclass 1\nchar 1 1 1\n", "line 4: char row 0 has 2 values for 1 classes"),
], ids=[
    "conductor-0", "conductor-negative", "no-char", "empty-char", "dualpair-high", "dualpair-negative",
    "order-0", "class-0", "degree-mismatch", "bad-value", "stray-sign", "duplicate-group", "duplicate-conductor",
    "dualpair-overlap", "conductor-over-bound", "group-no-order", "conductor-bare", "class-bare",
    "dualpair-one-index", "group-surplus", "conductor-surplus", "class-surplus", "dualpair-surplus",
    "unknown-directive", "no-group", "no-conductor", "no-class", "char-value-count",
])
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        fr.parse_character_table(text)


def _z2(conj=(0, 1), sizes=(1, 1), row1=(1, -1), conductor1=1):
    one = Cyclotomic(1, [1])
    chars = ((one, one), tuple(Cyclotomic(conductor1, [v]) for v in row1))
    return fr.CharacterTable("Z2", 2, sizes, chars, conj)


def _z3_mixed():
    # Z3's table with chi2 in conductor 6: the pair (1, 2) breaks at class 0, where 1 in
    # conductor 3 is not 1 in conductor 6, but the conductors are refused before any pair
    one, z, w = Cyclotomic(3, [1]), Cyclotomic.zeta_power(3, 1), Cyclotomic.zeta_power(6, 2)
    chars = ((one, one, one), (one, z, Cyclotomic.zeta_power(3, 2)), (Cyclotomic(6, [1]), Cyclotomic.zeta_power(6, 4), w))
    return fr.CharacterTable("Z3", 3, (1, 1, 1), chars, (0, 2, 1))


# Faults the table file cannot hold are built through the public CharacterTable.
@pytest.mark.parametrize("thunk,expected", [
    pytest.param(
        lambda: fr.parse_character_table("group Z2 2\nconductor 1\nclass 1\nclass 1\nchar 1 1 1\nchar 1 1 1\n"),
        (fr.OrthogonalityFailure, "<chi0, chi1> = 1, expected 0"),
        id="not-orthonormal",
    ),
    pytest.param(
        lambda: fr.parse_character_table("group Z2 2\nconductor 1\nclass 1\nclass 1\nchar 1 1 1\nchar 2 2 2\n"),
        (fr.OrthogonalityFailure, "class 0: |c| * sum_i |chi_i(c)|^2 is 5, not |G| = 2"),
        id="column-norm",
    ),
    pytest.param(
        lambda: fr.parse_character_table("group Z2 3\nconductor 1\nclass 1\nclass 1\nchar 1 1 1\nchar 1 1 -1\n"),
        (fr.OrthogonalityFailure, "class sizes sum to 2, group order is 3"),
        id="class-sizes-sum",
    ),
    pytest.param(
        lambda: fr.parse_character_table("group Z1 2\nconductor 1\nclass 2\nchar 1 1\n"),
        (fr.OrthogonalityFailure, "class 0 has size 2; the identity class comes first, of size 1"),
        id="identity-class-size",
    ),
    pytest.param(
        lambda: fr.parse_character_table(
            "group Z3 3\nconductor 3\nclass 1\nclass 1\nclass 1\n"
            "char 1 1 1 1\nchar 1 1 z z\nchar 1 1 z^2 z^2\ndualpair 1 2\n"
        ),
        (fr.OrthogonalityFailure, "the Galois map zeta_3 -> zeta_3^2 does not permute the columns within their class sizes"),
        id="not-galois-stable",
    ),
    pytest.param(lambda: _z2(sizes=(2, 0)), (fr.OrthogonalityFailure, "class sizes must be positive"), id="class-size-0"),
    pytest.param(lambda: _z2(conj=(0,)), (fr.InvalidRing, "conjugate map length mismatch"), id="conjugate-map-length"),
    pytest.param(lambda: _z2(conj=(1, 1)), (fr.InvalidRing, "conjugate map is not an involution"), id="not-involution"),
    pytest.param(
        lambda: _z2(row1=(-1, 1)),
        (fr.InvalidRing, "character degree (value at the identity) must be a positive integer"),
        id="degree-negative",
    ),
    pytest.param(
        lambda: _z2(conductor1=2),
        (fr.OrthogonalityFailure, "a value of conductor 2 in a table of conductor 1"),
        id="mixed-conductors",
    ),
    pytest.param(
        _z3_mixed,
        (fr.OrthogonalityFailure, "a value of conductor 6 in a table of conductor 3"),
        id="mixed-conductors-and-a-broken-pair",
    ),
    pytest.param(
        lambda: fr.char_table_ring(fr.fixture_character_table("z3"), ("1", "g", "g")),
        (fr.InvalidRing, "labels must be distinct, one per character row"),
        id="duplicate-labels",
    ),
])
def test_invalid_tables_refused(thunk, expected):
    assert value_or_error(thunk) == expected


DIRECTIVE_LINES = st.one_of(
    st.builds(
        lambda kind, tokens: " ".join([kind, *tokens]),
        st.sampled_from(("group", "conductor", "class", "char", "dualpair", "bogus")),
        st.lists(
            st.one_of(
                st.integers(-3, 12).map(str),
                st.sampled_from(("z", "z^2", "-z", "1+z", "z^3+z^5", "-1", "x", "2*z", "", "Z3")),
            ),
            max_size=5,
        ),
    ),
    st.sampled_from(("", "# comment", "class 1", "char 1 1 1 1", "conductor 3", "group G 3")),
)


def _fixture_lines(name):
    from importlib import resources

    return resources.files("fusionring.fixtures").joinpath(f"{name}.chartab").read_text().splitlines()


@st.composite
def table_texts(draw):
    """Lines drawn from the directive vocabulary, or a fixture with lines edited."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(DIRECTIVE_LINES, max_size=12)))
    lines = _fixture_lines(draw(st.sampled_from(("z3", "s3", "a4"))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("delete", "insert", "replace")))
        if edit == "delete" and at < len(lines):
            del lines[at]
        elif edit == "insert":
            lines.insert(at, draw(DIRECTIVE_LINES))
        elif at < len(lines):
            lines[at] = draw(DIRECTIVE_LINES)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(table_texts())
def test_fuzzed_tables_raise_only_documented_errors(text):
    try:
        fr.char_table_ring(fr.parse_character_table(text))
    except (ValueError, fr.FusionRingError):
        pass


@settings(max_examples=60, deadline=None)
@given(table_texts())
def test_gen_chartable_never_prints_a_traceback(tmp_path_factory, text):
    from fusionring.cli import run

    path = tmp_path_factory.mktemp("fuzz") / "t.chartab"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["gen", "chartable", str(path)])
    if code == 0:
        assert fr.parse_spec(out.getvalue())
    else:
        assert code == 2
        assert err.getvalue().startswith(f"fusionring: {path}: ")
        assert err.getvalue().count("\n") == 1


def test_a_conductor_over_the_bound_is_refused_before_any_value_is_parsed(monkeypatch):
    # the char line's value is malformed, but the conductor line before it is refused first
    parsed = []
    monkeypatch.setattr(chartable, "parse_value", lambda *args: parsed.append(args) or parse_value(*args))
    text = "group Z1 1\nconductor 5041\nclass 1\nchar 1 y\n"
    with pytest.raises(ValueError, match="^line 2: conductor 5041 exceeds bound 5040$"):
        fr.parse_character_table(text)
    assert parsed == []
    with pytest.raises(ValueError, match="^line 4: bad cyclotomic term 'y' in 'y'$"):
        fr.parse_character_table(text.replace("5041", "5040"))
    assert parsed == [("y", 5040)]
