"""parse_spec against the reference parser in ``spec_reference.py``.

Both parsers must give an equal ring, or the same error class and message
with the same line and column.  The one difference allowed is the new
parser's rejection of surplus tokens after a fixed-arity directive, and the
test checks that the line it names really has one.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
import spec_reference

from conftest import (
    all_fixture_rings,
    chain_length_one_ring,
    corrupt_z5_ring,
    count4_corrupt_ring,
    factorization_branch_ring,
    order2_branch_ring,
)
from test_specfmt import INVALID_SPECS, mutated_specs, spec_rings

# The tokens each fixed-arity directive takes, its own included.
ARITY = {"ring": 2, "partial": 2, "truncation": 2, "basis": 4, "unit": 2}


def _outcome(parse, text):
    try:
        return parse(text)
    except (fr.RingSyntaxError, fr.RingSemanticError) as exc:
        return type(exc), str(exc), exc.line, getattr(exc, "column", None)


def assert_same_outcome(text: str) -> None:
    new, ref = _outcome(fr.parse_spec, text), _outcome(spec_reference.parse_spec, text)
    if new == ref:
        return
    # the new parser's one extra error: a surplus token, at its column
    assert isinstance(new, tuple) and new[0] is fr.RingSyntaxError, (new, ref)
    _, message, line, column = new
    code = text.splitlines()[line - 1].split("#", 1)[0]
    tokens = list(re.finditer(r"\S+", code))
    arity = ARITY[tokens[0].group()]
    assert len(tokens) > arity, (new, ref)
    assert column == tokens[arity].start() + 1
    assert message.endswith(f"{tokens[0].group()}: surplus token {tokens[arity].group()!r}")


def corpus():
    rings = all_fixture_rings() + [
        corrupt_z5_ring(), count4_corrupt_ring(), order2_branch_ring(), factorization_branch_ring(),
        chain_length_one_ring(),
    ]
    rings += [fr.cyclic_group_ring(n) for n in (1, 2, 7, 12)] + [fr.so3_truncated(d) for d in (3, 9, 41, 81)]
    return rings


@pytest.mark.parametrize("ring", corpus(), ids=lambda r: r.name)
def test_corpus_spec_parses_alike(ring):
    # the corrupt rings break the format's degree sums: both parsers say so alike
    assert_same_outcome(fr.write_spec(ring))


def shuffled(text: str, rng: random.Random) -> str:
    """``text`` with its lines and terms reordered, separators and blanks
    varied and comments appended; the same ring for any draw."""
    lines = text.splitlines()
    rng.shuffle(lines)  # prod lines may come before basis lines
    out = []
    for line in lines:
        head, _, terms = line.partition(" : ")
        if terms:
            pairs = terms.split(", ")
            rng.shuffle(pairs)
            seps = [rng.choice((", ", ",", " ,, ", " , ", ",\t")) for _ in pairs[1:]]
            terms = pairs[0] + "".join(sep + pair for sep, pair in zip(seps, pairs[1:]))
            line = f"{head} : {terms}"
        line = rng.choice((" ", "\t", "  ")).join(line.split(" "))
        if rng.random() < 0.3:
            line += rng.choice((" # note", "\t#", "#x 1, y 2"))
        out.append(line)
        if rng.random() < 0.1:
            out.append(rng.choice(("", "   ", "# a comment")))
    return "\n".join(out) + "\n"


@settings(max_examples=150, deadline=None)
@given(spec_rings(), st.randoms(use_true_random=False))
def test_shuffled_specs_parse_alike(ring, rng):
    text = shuffled(fr.write_spec(ring), rng)
    assert_same_outcome(text)
    assert fr.parse_spec(text) == ring


@settings(max_examples=300, deadline=None)
@given(mutated_specs())
def test_mutated_specs_parse_alike(text):
    assert_same_outcome(text)


# Each check on a prod line, reached after its labels and numbers were
# already seen on an earlier line, and the first time they are seen.
PROD_LINES = [
    "prod b b : a 1, b 2, c 2",
    "prod b b : a 1 , b 2,c 2",
    "prod b b : a 1, b 2, c",  # odd piece count
    "prod b b : a 1, b 1, b 1",  # repeated label
    "prod b b : a 1, b 2, c 0",  # zero multiplicity
    "prod b b : a 1, b 2, c 02",  # leading zero
    "prod b b : a 1, b 2, c +2",
    "prod b b : a 1, b 2, c ²",
    "prod b b : a 1, b- 2, c 2",  # bad label
    "prod b b : a 1,b- 2, c 2",  # bad label inside a comma-joined token
    "prod b b : a 1,b 0, c 2",  # zero multiplicity inside a comma-joined token
    "prod b b : a 1, b 2,c",  # odd piece count inside a comma-joined token
    "prod b b : a 1, q 2, c 2",  # unknown label
    "prod b b : a 1, ,, b 2, c 2",
    "prod b b :",
    "prod b b : ,",
    "prod b b a 1",
    "prod b b :a 1",
    "prod b",
]
BASE = "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nbasis c 3 c\nunit a\n"


@pytest.mark.parametrize("line", PROD_LINES)
@pytest.mark.parametrize("before", ["", "prod c c : a 1, b 2, c 2\n", "prod b b : a 1, b 2, c 2\n"])
def test_prod_line_parses_alike(before, line):
    assert_same_outcome(BASE + before + line + "\n")


@pytest.mark.parametrize("text", [c[1] for c in INVALID_SPECS], ids=[c[0] for c in INVALID_SPECS])
def test_invalid_specs_differ_only_in_surplus_tokens(text):
    assert_same_outcome(text)


# One-term rows, good and malformed, read twice: a repeat of a row already
# read is shared, so each error must still be the reference parser's.
ONE_TERM = ["h 1", "h 1,", "h\t 1", "h 2", "h 01", "h 0", "h- 1", "q 1", "x 1", "h", "h 1, h 1", "h 1, g 0"]
GROUP_BASE = "ring t\npartial true\nbasis a 1 a\nbasis g 1 h\nbasis h 1 g\nbasis x 3 x\nunit a\n"


@pytest.mark.parametrize("second", ONE_TERM)
@pytest.mark.parametrize("first", ONE_TERM)
@pytest.mark.parametrize("pairs", [("g g", "h h"), ("g h", "g h")])
def test_repeated_one_term_rows_parse_alike(pairs, first, second):
    assert_same_outcome(GROUP_BASE + f"prod {pairs[0]} : {first}\nprod {pairs[1]} : {second}\n")
