"""The README's Library tour, run as written, with each of its commented claims pinned."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import fusionring as fr

README = Path(__file__).resolve().parents[1] / "README.md"


def run_tour() -> tuple[dict, dict]:
    """Run the tour's code block one statement at a time: its namespace, and each expression's value by its source."""
    code = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            source = ast.get_source_segment(code, node)
            values[source] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_the_library_tour_does_what_its_comments_say():
    namespace, values = run_tour()
    ring, frag, so, cert = (namespace[name] for name in ("ring", "frag", "so", "cert"))
    assert values["ring.decompose(ring.multiply(x3, ring.dual(x3)))"] == [
        ("1", 1), ("s", 1), ("s2", 1), ("x3", 1), ("x3c", 1)
    ]
    assert values["fr.check_axioms(ring).all_pass"] is True
    assert fr.check_axioms(ring).total_skipped == 0
    assert [s.hopf_dimension for s in values["fr.enumerate_standard_subrings(ring)"]] == [1, 3, 21]
    verdict = values["fr.dichotomy_verdict(ring)"]
    assert (verdict.kind, verdict.order, verdict.dimension, verdict.divisible_by_3) == ("grouplike", 3, 21, True)

    assert values['fr.closure(frag, {"x5"}).hopf_dimension'] == 30
    assert values['fr.closure(frag, {"x3"}).hopf_dimension'] == 75
    obstructions = values["fr.freeness_obstructions(frag)"]
    assert [(a.hopf_dimension, b.hopf_dimension) for a, b in obstructions] == [(30, 75)]
    assert frag.rank == 11 and fr.check_axioms(frag).total_skipped > 0  # a partial ring: some products are Unknown

    assert (cert.depth_reached, cert.terminal_status) == (9, fr.TruncationReached(9))
    assert len(cert.relations) == 9
    assert values["fr.verify_certificate(so, cert)"] is True
    assert [so.degree_of(i) for i in range(so.rank)] == list(range(1, 22, 2))

    assert len(values["fr.enumerate_rings([1, 1, 1, 3], max_mult=2)"]) == 1
