"""
Enumerating fusion rings with prescribed degrees
================================================

Backtracking over structure constants with heavy pruning: duality pins the
unit coordinate of every row, reciprocity mirrors pin coordinates across
rows, grouplike rows must be basic translates, degree sums bound each row,
and associativity is re-checked as rows land.  A row that leaves some row
mirroring it with no candidate at all is backed out at once (an exact
forward check).  Each class of dual involutions is searched once, at its
least member, and a solution is kept only when no relabeling inside
equal-degree blocks that fixes its dual makes it smaller, so each ring
appears once.  Survivors must pass the full axiom checker.
"""

import fusionring as fr

# Three degree-1 elements: the only ring is the cyclic group of order 3.
rings = fr.enumerate_rings([1, 1, 1], max_mult=2)
print(f"degrees (1,1,1): {len(rings)} ring(s)")
print(fr.write_spec(rings[0]))

# Adding one degree-3 element forces the order-12 character ring's constants:
# x^2 = 1 + g + g^2 + 2x is the only completion.
rings = fr.enumerate_rings([1, 1, 1, 3], max_mult=2)
ring = rings[0]
x = ring.element("d3n1")
print(f"degrees (1,1,1,3): {len(rings)} ring(s); x3^2 =", ring.decompose(ring.multiply(x, x)))

# Every emitted ring survives the axiom checker and the verdict dichotomy.
for r in rings:
    print("axioms all pass:", fr.check_axioms(r).all_pass,
          "| verdict:", fr.dichotomy_verdict(r).kind)

# Some degree patterns admit no ring at all; the search proves it.
print("\ndegrees (1,3,3,5,5):", fr.enumerate_rings([1, 3, 3, 5, 5], max_mult=4), "(none exist)")

# Even degrees are rejected under the default odd-only constraint.
try:
    fr.enumerate_rings([1, 2], max_mult=1)
except fr.PreconditionUnmet as exc:
    print("rejected:", exc)
