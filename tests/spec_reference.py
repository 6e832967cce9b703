"""The spec parser as it was before it tokenised with ``str.split``, kept
verbatim as the reference that ``tests/test_specfmt_differential.py``
compares ``fusionring.parse_spec`` against.  Not part of the package."""

from __future__ import annotations

import re
from typing import Optional, Union

from fusionring.ring import LABEL_RE, FusionRing, InvalidRing, OverflowDetected, build_ring
from fusionring.specfmt import RingSemanticError, RingSyntaxError


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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head, col = tokens[0]

        def need(k: int) -> tuple[str, int]:
            if k >= len(tokens):
                raise RingSyntaxError(lineno, len(raw) + 1, f"{head}: missing token {k}")
            return tokens[k]

        if head == "ring":
            if name is not None:
                raise RingSemanticError("duplicate ring line", lineno)
            name = need(1)[0]
        elif head == "partial":
            value, vcol = need(1)
            if value not in ("true", "false"):
                raise RingSyntaxError(lineno, vcol, f"partial must be true or false, got {value!r}")
            partial = value == "true"
        elif head == "truncation":
            value, vcol = need(1)
            truncation = _decimal(value)
            if truncation is None or truncation % 2 == 0:
                raise RingSyntaxError(lineno, vcol, f"truncation must be an odd integer, got {value!r}")
        elif head == "basis":
            label, lcol = need(1)
            degree_s, dcol = need(2)
            dual, _ = need(3)
            if not LABEL_RE.match(label):
                raise RingSyntaxError(lineno, lcol, f"bad label {label!r}")
            degree = _decimal(degree_s)
            if degree is None or degree < 1:
                raise RingSyntaxError(lineno, dcol, f"degree must be a positive integer, got {degree_s!r}")
            if label in lines:
                raise RingSemanticError(f"duplicate basis label {label!r}", lineno)
            lines[label] = lineno
            basis.append((label, degree, dual))
        elif head == "unit":
            if unit is not None:
                raise RingSemanticError("duplicate unit line", lineno)
            unit = need(1)[0]
        elif head == "prod":
            a, _ = need(1)
            b, _ = need(2)
            colon, ccol = need(3)
            if colon != ":":
                raise RingSyntaxError(lineno, ccol, f"expected ':', got {colon!r}")
            terms = tokens[4:]
            if not terms:
                raise RingSyntaxError(lineno, len(raw) + 1, "product row has no terms")
            row: dict[str, int] = {}
            # terms come as label mult pairs, comma-separated
            flat: list[tuple[str, int]] = []
            for tok, tcol in terms:
                for piece in tok.split(","):
                    if piece:
                        flat.append((piece, tcol))
            if len(flat) % 2 != 0:
                raise RingSyntaxError(lineno, flat[-1][1], "product terms must be label/multiplicity pairs")
            for k in range(0, len(flat), 2):
                lab, lcol = flat[k]
                mult_s, mcol = flat[k + 1]
                if not LABEL_RE.match(lab):
                    raise RingSyntaxError(lineno, lcol, f"bad label {lab!r}")
                mult = _decimal(mult_s)
                if mult is None or mult < 1:
                    raise RingSyntaxError(lineno, mcol, f"multiplicity must be a positive integer, got {mult_s!r}")
                if lab in row:
                    raise RingSemanticError(f"label {lab!r} repeated in product row ({a},{b})", lineno)
                row[lab] = mult
            if (a, b) in rows:
                raise RingSemanticError(f"duplicate product line ({a},{b})", lineno)
            rows[(a, b)] = row
            lines[(a, b)] = lineno
        else:
            raise RingSyntaxError(lineno, col, f"unknown directive {head!r}")

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
        for a in sorted(degrees):
            for b in sorted(degrees):
                if unit not in (a, b) and (a, b) not in rows:
                    raise RingSemanticError(
                        f"missing product row ({a},{b}) in a complete (partial false) ring"
                    )
    return ring
