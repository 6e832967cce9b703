"""Reference fusion rings built from independent data.

Three construction routes, deliberately unlike the generic machinery they
feed: group rings from modular arithmetic, character rings from exact
cyclotomic inner products, and the odd orthogonal truncation from the
triangle rule.  ``fragment_ring`` ships the rank-11 partial
configuration whose nested subrings of dimensions 30 and 75 violate the
divisibility obstruction.
"""

from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING

from .ring import FusionRing, build_ring

# `chartable` and `cyclotomic` are imported by the table functions that run
# them, so `gen cyclic|so3|fragment` loads neither.
if TYPE_CHECKING:
    from .chartable import CharacterTable


def cyclic_group_ring(n: int) -> FusionRing:
    """Group ring of the cyclic group of order n; labels 1, g, g2, ..."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be >= 1")
    labels = ["1"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]

    def lab(k: int) -> str:
        return labels[k % n]

    basis = [(lab(k), 1, lab((n - k) % n)) for k in range(n)]
    terms = [{lab(c): 1} for c in range(n)]  # one row per result, shared by its n pairs
    products = {(lab(a), lab(b)): terms[(a + b) % n] for a in range(n) for b in range(n)}
    return build_ring(f"Z{n}", basis, "1", products)


def so3_truncated(max_degree: int) -> FusionRing:
    """Odd-degree triangle-rule ring truncated at ``max_degree`` (partial).

    Basis x1, x3, ..., x_max, all self-dual; products follow
    x_{2a+1} * x_{2b+1} = sum of x_{2c+1} for |a-b| <= c <= a+b, and any
    row whose top term would exceed the bound is left Unknown.
    """
    if type(max_degree) is not int or max_degree < 3 or max_degree % 2 == 0:
        raise ValueError("max_degree must be an odd integer >= 3")
    half = max_degree // 2  # basis indexed by a = 0..half, degree 2a+1
    labels = [f"x{2 * a + 1}" for a in range(half + 1)]
    basis = [(labels[a], 2 * a + 1, labels[a]) for a in range(half + 1)]
    products = {}
    for a in range(half + 1):
        for b in range(a, half + 1):
            if 2 * (a + b) + 1 > max_degree:
                break  # Unknown: decomposition leaves the truncation
            # one row for (a, b) and (b, a)
            row = {labels[c]: 1 for c in range(b - a, a + b + 1)}
            products[(labels[a], labels[b])] = products[(labels[b], labels[a])] = row
    return build_ring(f"so3_{max_degree}", basis, "x1", products, truncation_bound=max_degree)


def fragment_ring() -> FusionRing:
    """The rank-11 partial ring of the terminal degree-3 configuration.

    Five grouplikes fixing x5 (five degree-1 elements closed under product
    force the cyclic group of order 5), the five distinct translates v*x3,
    and x5, with exactly the forced products Known:

    - the group table of V = {1, g, h1, h2, h3},
    - v*x5 = x5*v = x5,
    - x3*x3 = 1 + x3 + x5,
    - x5*x3 = x3 + gx3 + h1x3 + h2x3 + h3x3,
    - x5*x5 = 4*x5 + 1 + g + h1 + h2 + h3.

    Everything else is Unknown: no completion of this data exists, and the
    nested closures of {x5} (dimension 30) and {x3} (dimension 75) exhibit
    the divisibility violation that rules it out.
    """
    v_labels = ["1", "g", "h1", "h2", "h3"]  # powers a^0..a^4 of a generator

    def v_mul(i: int, j: int) -> str:
        return v_labels[(i + j) % 5]

    def v_inv(i: int) -> int:
        return (5 - i) % 5

    t_labels = ["x3", "gx3", "h1x3", "h2x3", "h3x3"]  # translate of a^i is t_labels[i]

    basis = []
    for i, v in enumerate(v_labels):
        basis.append((v, 1, v_labels[v_inv(i)]))
    for i, t in enumerate(t_labels):
        basis.append((t, 3, t_labels[v_inv(i)]))
    basis.append(("x5", 5, "x5"))

    products = {}
    for i in range(5):
        for j in range(5):
            products[(v_labels[i], v_labels[j])] = {v_mul(i, j): 1}
    for v in v_labels:
        products[(v, "x5")] = {"x5": 1}
        products[("x5", v)] = {"x5": 1}
    products[("x3", "x3")] = {"1": 1, "x3": 1, "x5": 1}
    products[("x5", "x3")] = {t: 1 for t in t_labels}
    products[("x5", "x5")] = {"x5": 4, "1": 1, "g": 1, "h1": 1, "h2": 1, "h3": 1}

    return build_ring("fragment", basis, "1", products)


# -- character table fixtures -------------------------------------------------

_FIXTURE_LABELS = {
    "s3": ("1", "sgn", "x2"),
    "a4": ("1", "s", "s2", "x3"),
    "f21": ("1", "s", "s2", "x3", "x3c"),
    "z3": ("1", "g", "g2"),
}


def fixture_character_table(name: str) -> CharacterTable:
    """Load a character table shipped with the package (s3, a4, f21, z3)."""
    from .chartable import parse_character_table

    if name not in _FIXTURE_LABELS:
        raise ValueError(f"no fixture table {name!r}: one of {', '.join(_FIXTURE_LABELS)}")
    text = resources.files("fusionring.fixtures").joinpath(f"{name}.chartab").read_text(encoding="utf-8")
    return parse_character_table(text)


def fixture_character_ring(name: str) -> FusionRing:
    from .chartable import char_table_ring

    return char_table_ring(fixture_character_table(name), _FIXTURE_LABELS.get(name))


def s3_character_ring() -> FusionRing:
    return fixture_character_ring("s3")


def a4_character_ring() -> FusionRing:
    return fixture_character_ring("a4")


def f21_character_ring() -> FusionRing:
    return fixture_character_ring("f21")


def cyclic_character_table(n: int) -> CharacterTable:
    """Character table of the cyclic group of order n, built from roots of unity."""
    from .chartable import CharacterTable
    from .cyclotomic import Cyclotomic

    if type(n) is not int or n < 1:
        raise ValueError("n must be >= 1")
    powers = [Cyclotomic.zeta_power(n, k) for k in range(n)]
    chars = tuple(tuple(powers[j * k % n] for k in range(n)) for j in range(n))
    return CharacterTable(
        name=f"Z{n}",
        group_order=n,
        class_sizes=(1,) * n,
        characters=chars,
        conjugate_map=tuple((n - j) % n for j in range(n)),
    )
