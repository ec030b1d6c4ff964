"""Coloring matrix, exact link determinant, n-colorability.

Colors live on arcs: maximal strands running from one undercrossing to the
next, i.e. PD edges glued together wherever they pass over a crossing. Each
crossing imposes 2*(over arc) - (under-in arc) - (under-out arc) = 0; the
coefficient matrix has one row per crossing and one column per arc, with
coincident arcs collapsed by summing coefficients (a kink row collapses to 0).

The determinant is the absolute value of any maximal minor, computed by
fraction-free Bareiss elimination over Python integers; no floating point.
The empty 0x0 minor is 1, which makes the unknot's determinant 1 without a
special case. Split diagrams (free loops next to other content, or a component
that never passes under) have determinant 0.
"""

from __future__ import annotations

from .diagram import LinkDiagram, PDError, _UnionFind

__all__ = [
    "ColoringMatrix",
    "coloring_matrix",
    "determinant",
    "n_colorable",
    "bareiss_determinant",
    "rank_mod_p",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class ColoringMatrix:
    """Crossing-relation coefficients: rows index crossings, columns arcs."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _fox_arcs(d: LinkDiagram) -> tuple[dict[int, int], int]:
    """Map each edge label to its arc index; arcs merge over-strand passages."""
    uf = _UnionFind()
    for _, b, _, dd in d.crossings:
        uf.union(b, dd)
    arc_index: dict[int, int] = {}
    arc_of: dict[int, int] = {}
    for e in range(1, d.arc_count + 1):
        arc_of[e] = arc_index.setdefault(uf.find(e), len(arc_index))
    return arc_of, len(arc_index)


def coloring_matrix(d: LinkDiagram) -> ColoringMatrix:
    """Coefficient matrix of the crossing relations.

    Square (k x k) whenever every component passes under somewhere; the extra
    columns of degenerate diagrams are kept so ranks stay meaningful.
    """
    if d.slots:
        raise PDError("diagram has unfilled slots")
    if not d.crossings:
        raise PDError("coloring matrix needs at least one crossing")
    arc_of, m = _fox_arcs(d)
    rows = []
    for a, b, c, _ in d.crossings:
        row = [0] * m
        row[arc_of[b]] += 2
        row[arc_of[a]] -= 1
        row[arc_of[c]] -= 1
        rows.append(tuple(row))
    return ColoringMatrix(tuple(rows))


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor(entries, drop_row: int, drop_col: int) -> list[list[int]]:
    return [
        [v for j, v in enumerate(row) if j != drop_col]
        for i, row in enumerate(entries)
        if i != drop_row
    ]


def determinant(d: LinkDiagram) -> int:
    """|det| of the coloring matrix with its last row and column removed.

    Any other row/column pair gives the same value. Conventions: a crossing-free
    unknot has determinant 1; split diagrams have determinant 0.
    """
    if d.slots:
        raise PDError("diagram has unfilled slots")
    k = len(d.crossings)
    if k == 0:
        return 1 if d.loops == 1 else 0
    if d.loops > 0:
        return 0
    cm = coloring_matrix(d)
    if cm.cols != k:
        # some component never passes under: it lifts off, a split diagram
        return 0
    return abs(bareiss_determinant(_minor(cm.entries, k - 1, k - 1)))


# Deterministic Miller-Rabin: the first twelve primes as bases decide every
# n below _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases"); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise ValueError(
            f"{n} is beyond the proven range of the primality test (< {_MR_LIMIT})"
        )
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rank_mod_p(matrix, p: int) -> int:
    """Rank over the field with p elements, by Gaussian elimination."""
    m = [[v % p for v in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def n_colorable(d: LinkDiagram, n: int) -> bool:
    """Whether the diagram admits a non-monochromatic coloring mod prime n.

    Computed two ways that must agree: nullspace rank of the coloring system
    over the n-element field, and divisibility of the determinant by n.
    """
    if not _is_prime(n):
        raise ValueError(f"{n} is not prime")
    if d.slots:
        raise PDError("diagram has unfilled slots")
    k = len(d.crossings)
    if k == 0:
        variables = d.loops
        by_rank = variables >= 2
    else:
        cm = coloring_matrix(d)
        variables = cm.cols + d.loops
        rows = [list(r) + [0] * d.loops for r in cm.entries]
        by_rank = variables - rank_mod_p(rows, n) >= 2
    by_det = determinant(d) % n == 0
    if by_rank != by_det:  # pragma: no cover - the two criteria are equivalent
        raise AssertionError(
            f"colorability criteria disagree for n={n}: rank={by_rank} det={by_det}"
        )
    return by_rank
