"""Line-oriented text format for fusion rings, with a strict round trip.

::

    ring <name>
    partial <true|false>          # default false
    truncation <odd integer>      # optional
    basis <label> <degree> <dual-label>
    unit <label>
    prod <a> <b> : <label> <mult> [, <label> <mult>]*

``#`` starts a comment.  Every directive but ``prod`` takes exactly the
tokens shown.  Unit rows are implied and never written.  Omitted
non-unit pairs are Unknown when partial, an error otherwise.  Parsing
validates label uniqueness, the dual involution, and per-row degree sums
at load time; writing emits canonical order so parse(write(r)) == r and
write(parse(write(r))) is byte-identical.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .ring import LABEL_RE, FusionRing, FusionRingError, InvalidRing, OverflowDetected, build_ring


class RingSyntaxError(FusionRingError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class RingSemanticError(FusionRingError):
    def __init__(self, message: str, line: Optional[int] = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line
        self.message = message


_TOKEN_RE = re.compile(r"\S+")


def _tokenize(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs, comments stripped."""
    code = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(code)]


def _decimal(token: str) -> Optional[int]:
    """The value of an unsigned decimal token; None for any other token."""
    if not token.isdecimal():
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


# The tokens each directive takes, its own included; for prod, the least.
_ARITY = {"ring": 2, "partial": 2, "truncation": 2, "basis": 4, "unit": 2, "prod": 4}


def _column(raw: str, k: int) -> int:
    """The 1-based column of token ``k`` of a line, found only for an error."""
    return _tokenize(raw)[k][1]


def _piece_column(raw: str, k: int) -> int:
    """The 1-based column of the token that holds piece ``k`` of a prod
    line's terms, found only for an error."""
    return [col for tok, col in _tokenize(raw)[4:] for piece in tok.split(",") if piece][k]


def parse_spec(text: str) -> FusionRing:
    """Parse the ring spec format into a FusionRing."""
    name: Optional[str] = None
    partial = False
    truncation: Optional[int] = None
    basis: list[tuple[str, int, str]] = []
    unit: Optional[str] = None
    rows: dict[tuple[str, str], dict[str, int]] = {}
    # the line of each basis label and of each product pair
    lines: dict[Union[str, tuple[str, str]], int] = {}
    # each label already matched, mapped to its first string so that every row
    # and pair refers to one string per label, and the positive integer
    # strings already read
    labels: dict[str, str] = {}
    numbers: dict[str, int] = {}
    # each one-term row already read, by its label and multiplicity tokens
    single: dict[Optional[tuple[str, str]], dict[str, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        arity = _ARITY.get(head)
        if arity is None:
            raise RingSyntaxError(lineno, _column(raw, 0), f"unknown directive {head!r}")
        if len(tokens) > arity and head != "prod":
            raise RingSyntaxError(lineno, _column(raw, arity), f"{head}: surplus token {tokens[arity]!r}")
        # a repeated ring or unit line is named ahead of a token it lacks
        if (head == "ring" and name is not None) or (head == "unit" and unit is not None):
            raise RingSemanticError(f"duplicate {head} line", lineno)
        if len(tokens) < arity:
            raise RingSyntaxError(lineno, len(raw) + 1, f"{head}: missing token {len(tokens)}")

        if head == "ring":
            name = tokens[1]
        elif head == "partial":
            value = tokens[1]
            if value not in ("true", "false"):
                raise RingSyntaxError(lineno, _column(raw, 1), f"partial must be true or false, got {value!r}")
            partial = value == "true"
        elif head == "truncation":
            value = tokens[1]
            truncation = _decimal(value)
            if truncation is None or truncation % 2 == 0:
                raise RingSyntaxError(lineno, _column(raw, 1), f"truncation must be an odd integer, got {value!r}")
        elif head == "basis":
            label, degree_s, dual = tokens[1:]
            if not LABEL_RE.match(label):
                raise RingSyntaxError(lineno, _column(raw, 1), f"bad label {label!r}")
            degree = _decimal(degree_s)
            if degree is None or degree < 1:
                raise RingSyntaxError(lineno, _column(raw, 2), f"degree must be a positive integer, got {degree_s!r}")
            if label in lines:
                raise RingSemanticError(f"duplicate basis label {label!r}", lineno)
            lines[label] = lineno
            labels.setdefault(label, label)
            numbers[degree_s] = degree
            basis.append((label, degree, dual))
        elif head == "unit":
            unit = tokens[1]
        else:  # prod
            a, b, colon = tokens[1:4]
            if colon != ":":
                raise RingSyntaxError(lineno, _column(raw, 3), f"expected ':', got {colon!r}")
            if len(tokens) == 4:
                raise RingSyntaxError(lineno, len(raw) + 1, "product row has no terms")
            # terms come as label mult pairs, comma-separated
            pieces = " ".join(tokens[4:]).replace(",", " ").split()
            if len(pieces) % 2 != 0:
                raise RingSyntaxError(lineno, _piece_column(raw, -1), "product terms must be label/multiplicity pairs")
            # a one-term row already read is shared, so the ring checks it once
            key = (pieces[0], pieces[1]) if len(pieces) == 2 else None
            row = single.get(key)
            if row is None:
                row = {}
                for k in range(0, len(pieces), 2):
                    lab, mult_s = pieces[k], pieces[k + 1]
                    if lab not in labels:
                        if not LABEL_RE.match(lab):
                            raise RingSyntaxError(lineno, _piece_column(raw, k), f"bad label {lab!r}")
                        labels[lab] = lab
                    if mult_s not in numbers:
                        mult = _decimal(mult_s)
                        if mult is None or mult < 1:
                            raise RingSyntaxError(
                                lineno, _piece_column(raw, k + 1),
                                f"multiplicity must be a positive integer, got {mult_s!r}",
                            )
                        numbers[mult_s] = mult
                    if lab in row:
                        raise RingSemanticError(f"label {lab!r} repeated in product row ({a},{b})", lineno)
                    row[labels[lab]] = numbers[mult_s]
                if key is not None:
                    single[key] = row
            pair = (labels.get(a, a), labels.get(b, b))
            if pair in rows:
                raise RingSemanticError(f"duplicate product line ({a},{b})", lineno)
            rows[pair] = row
            lines[pair] = lineno

    if name is None:
        raise RingSemanticError("missing ring line")
    if not basis:
        raise RingSemanticError("no basis lines")
    if unit is None:
        raise RingSemanticError("missing unit line")

    try:
        ring = build_ring(name, basis, unit, rows, truncation_bound=truncation)
    except InvalidRing as exc:
        raise RingSemanticError(str(exc), lines.get(exc.subject)) from exc
    except OverflowDetected as exc:
        raise RingSemanticError(str(exc)) from exc

    # The ring checks its rows' structure; these two rules belong to the format.
    degrees = {lab: deg for lab, deg, _ in basis}
    for (a, b), row in rows.items():
        total = sum(m * degrees[lab] for lab, m in row.items())
        expect = degrees[a] * degrees[b]
        if total != expect:
            raise RingSemanticError(
                f"degree sum of product row ({a},{b}) is {total}, expected {expect}", lines[(a, b)]
            )

    if not partial:
        order = sorted(degrees)
        for a in order:
            for b in order:
                if unit not in (a, b) and (a, b) not in rows:
                    raise RingSemanticError(
                        f"missing product row ({a},{b}) in a complete (partial false) ring"
                    )
    return ring


def write_spec(ring: FusionRing) -> str:
    """Canonical text form of a ring; inverse of parse_spec."""
    lines = [f"ring {ring.name}"]
    if ring.is_partial:
        lines.append("partial true")
    if ring.truncation_bound is not None:
        lines.append(f"truncation {ring.truncation_bound}")
    for b in ring.elements:
        lines.append(f"basis {b.label} {b.degree} {b.dual_label}")
    lines.append(f"unit {ring.label(ring.unit_index)}")
    u = ring.unit_index
    for i, j in ring.known_pairs():
        if i == u or j == u:
            continue
        row = ring.product_row(i, j)
        terms = [
            f"{ring.label(c)} {m}" for c, m in enumerate(row) if m
        ]
        lines.append(f"prod {ring.label(i)} {ring.label(j)} : " + ", ".join(terms))
    lines.append("")  # the last newline, without a second copy of the text
    return "\n".join(lines)
