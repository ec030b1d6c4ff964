"""Coloring system, exact link determinant, n-colorability.

Colors live on arcs: maximal strands running from one undercrossing to the
next, i.e. PD edges glued together wherever they pass over a crossing. Each
crossing imposes 2*(over arc) - (under-in arc) - (under-out arc) = 0; the
system has one row per crossing and one column per arc, with coincident arcs
collapsed by summing coefficients (a kink row collapses to 0);
coloring_matrix renders it densely, as a tuple of row tuples. Rows are built
sparse, as {arc: coefficient} dicts, once per diagram and kept on the diagram
instance together with its determinant, so asking again, or asking
n_colorable for several primes, eliminates nothing twice. n_colorable reads
the determinant first and settles every prime that does not divide it from
the determinant alone; only a prime that divides it gets a rank pass.

The determinant is the absolute value of any maximal minor, computed by
fraction-free Bareiss elimination over Python integers; no floating point.
A coloring row has at most 3 nonzeros, so above a small size the elimination
runs on sparse rows, pivoting on the shortest remaining row in its column
held by the fewest rows; rank mod p uses the same sparse kernel at every
size.
The empty 0x0 minor is 1, which makes the unknot's determinant 1 without a
special case. Split diagrams (free loops next to other content, or a component
that never passes under) have determinant 0.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .diagram import LinkDiagram, PDError, _UnionFind, is_planar

__all__ = [
    "coloring_matrix",
    "determinant",
    "n_colorable",
    "bareiss_determinant",
    "rank_mod_p",
]


def _fox_arcs(d: LinkDiagram) -> tuple[list[int], int]:
    """Each edge label's arc index, as a list indexed by label (index 0 is
    unused), and the number of arcs. The union-find merges the two
    over-strand edges of every crossing in one call, and its roots are read
    in one more; arcs are numbered in order of their smallest label."""
    uf = _UnionFind()
    uf.merge([(b, dd) for _, b, _, dd in d.crossings])
    root = uf.roots()
    index: dict[int, int] = {}
    arc_of = [0]
    for e in range(1, d.arc_count + 1):
        arc_of.append(index.setdefault(root.get(e, e), len(index)))
    return arc_of, len(index)


Row = dict[int, int]  # {column: nonzero coefficient}


def _build_system(d: LinkDiagram) -> tuple[list[Row], int]:
    """The crossing relations as sparse rows, one per crossing, and the
    number of arcs (columns)."""
    arc_of, arcs = _fox_arcs(d)
    rows = []
    for a, b, c, _ in d.crossings:
        row = {arc_of[b]: 2}
        for j in (arc_of[a], arc_of[c]):
            v = row.get(j, 0) - 1
            if v:
                row[j] = v
            else:
                del row[j]
        rows.append(row)
    return rows, arcs


def _system(d: LinkDiagram) -> tuple[list[Row], int]:
    """The diagram's coloring system, built on first use and kept in the
    instance __dict__, so it lives exactly as long as the diagram. Callers
    read the rows and never change them."""
    memo = vars(d)
    system = memo.get("_coloring_system")
    if system is None:
        system = memo["_coloring_system"] = _build_system(d)
    return system


def coloring_matrix(d: LinkDiagram) -> tuple[tuple[int, ...], ...]:
    """Coefficient matrix of the crossing relations, a dense rendering of the
    diagram's coloring system: a tuple of rows, one per crossing, each a
    tuple with one coefficient per arc.

    Square (k x k) whenever every component passes under somewhere; the extra
    columns of degenerate diagrams are kept so ranks stay meaningful.
    """
    if d.slots:
        raise PDError("diagram has unfilled slots")
    if not d.crossings:
        raise PDError("coloring matrix needs at least one crossing")
    rows, arcs = _system(d)
    return tuple(tuple(row.get(j, 0) for j in range(arcs)) for row in rows)


# Largest dimension that bareiss_determinant eliminates densely. Timed on
# 120 coloring minors of each size (rational closures and knot sums, min of
# 25 runs, three repeats on a shared 2-vCPU host), the sparse kernel costs
# 1.4-1.6x the dense loop at 8 rows and 1.1-1.4x at 10 (its index and heap
# outweigh the few updates it saves), 0.91-1.03x at 11, 0.73-0.83x at 14 and
# 0.54-0.61x at 16.
_DENSE_MAX = 10


def bareiss_determinant(matrix) -> int:
    """Exact signed integer determinant by Bareiss fraction-free elimination:
    dense up to _DENSE_MAX rows, on sparse rows (see _SparseRows) above.

    Rows are dense sequences or {col: value} dicts; neither is changed.
    """
    if len(matrix) <= _DENSE_MAX:
        return _dense_determinant(matrix)
    return _sparse_determinant(matrix)


def _items(row):
    """(col, value) pairs of a dense row or a {col: value} row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _dense_determinant(matrix) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    m = [
        [row.get(j, 0) for j in range(n)] if isinstance(row, dict) else list(row)
        for row in matrix
    ]
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


class _SparseRows:
    """Matrix rows as {col: value} dicts, a column -> rows index, and a heap
    of (row length, row) entries.

    Only the rows not yet used as pivots are kept. `pivot` picks the shortest
    live row and, within it, the column held by the fewest rows; the caller
    does the arithmetic and hands each updated row back through `put`. The
    heap is updated lazily: `put` pushes an entry when a row's length
    changes, and `pivot` drops entries that no longer match a live row.
    """

    def __init__(self, rows: list[dict[int, int]]) -> None:
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        for i, row in enumerate(rows):
            if row:
                self.rows[i] = row
                for j in row:
                    self.cols.setdefault(j, set()).add(i)
        self.heap = [(len(row), i) for i, row in self.rows.items()]
        heapify(self.heap)

    def pivot(self) -> tuple[int, int] | None:
        """(row, col) of the pivot, or None if no row is left."""
        rows, heap = self.rows, self.heap
        while heap:
            k, i = heap[0]
            row = rows.get(i)
            if row is not None and len(row) == k:
                return i, min(row, key=lambda j: len(self.cols[j]))
            heappop(heap)
        return None

    def take(self, r: int, c: int) -> tuple[dict[int, int], set[int]]:
        """Retire pivot row r; return it and the other rows with column c."""
        prow = self.rows.pop(r)
        others = self.cols.pop(c)
        others.discard(r)
        for j in prow:
            if j != c:
                self.cols[j].discard(r)
        return prow, others

    def put(self, i: int, new: dict[int, int]) -> None:
        """Replace a row returned by `take` with its eliminated form."""
        old = self.rows[i]
        cols = self.cols
        for j in old:
            if j not in new and j in cols:  # the pivot column is gone already
                cols[j].discard(i)
        for j in new:
            if j not in old:
                cols[j].add(i)
        if new:
            self.rows[i] = new
            if len(new) != len(old):
                heappush(self.heap, (len(new), i))
        else:
            del self.rows[i]


def _sparse_determinant(matrix) -> int:
    """Signed determinant by fraction-free Bareiss on sparse rows.

    Step t pivots on P_t and leaves every entry a minor of the input. A row
    that step t does not touch would only be scaled by P_t / P_(t-1), so it
    is left at the step s it was last updated at: its true entries are
    v * P_(t-1) / P_s. Updating such a row at step t combines both factors
    into one exact division, (P_t * v - f * u) // P_s, exact because the
    result is a minor (Sylvester's identity).
    """
    n = len(matrix)
    el = _SparseRows([{j: v for j, v in _items(row) if v} for row in matrix])
    rows = el.rows
    level = [0] * n  # the step each row was last updated at
    pivots = [1]  # pivots[t] = P_t, P_0 = 1
    perm = [0] * n  # pivot column of each row
    for t in range(1, n + 1):
        pick = el.pivot()
        if pick is None:
            return 0
        r, c = pick
        prow, others = el.take(r, c)
        prev = pivots[-1]
        s = level[r]
        if s != t - 1:
            scale = pivots[s]
            prow = {j: v * prev // scale for j, v in prow.items()}
        pv = prow.pop(c)
        for i in others:
            row = rows[i]
            f = row[c]
            div = pivots[level[i]]
            new = {j: v * pv // div for j, v in row.items() if j != c and j not in prow}
            for j, u in prow.items():
                w = (pv * row.get(j, 0) - f * u) // div
                if w:
                    new[j] = w
            el.put(i, new)
            level[i] = t
        pivots.append(pv)
        perm[r] = c
    return _permutation_sign(perm) * pivots[n]


def _permutation_sign(perm: list[int]) -> int:
    """Sign of a permutation: -1 to the power (length - number of cycles)."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def _minor(rows: list[Row], n: int) -> list[Row]:
    """The system without row n and column n, the last of each. Only the
    rows that hold column n are copied; the others are shared, read-only."""
    return [
        {j: v for j, v in row.items() if j != n} if n in row else row
        for row in rows[:n]
    ]


def determinant(d: LinkDiagram) -> int:
    """|det| of the coloring matrix with its last row and column removed.

    Any other row/column pair gives the same value. Conventions: a crossing-free
    unknot has determinant 1; split diagrams have determinant 0. The value is
    kept on the diagram, so a second call on the same instance is a lookup.
    """
    if d.slots:
        raise PDError("diagram has unfilled slots")
    k = len(d.crossings)
    if k == 0:
        return 1 if d.loops == 1 else 0
    if d.loops > 0:
        return 0
    memo = vars(d)
    det = memo.get("_determinant")
    if det is None:
        rows, arcs = _system(d)
        # with fewer than k arcs some component never passes under: it
        # lifts off, a split diagram
        det = abs(bareiss_determinant(_minor(rows, k - 1))) if arcs == k else 0
        memo["_determinant"] = det
    return det


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
    """Rank over the field with p elements (p prime), by elimination on
    sparse rows (see _SparseRows). Rows are dense sequences or {col: value}
    dicts; neither is changed."""
    el = _SparseRows([{j: v % p for j, v in _items(row) if v % p} for row in matrix])
    rows = el.rows
    rank = 0
    while (pick := el.pivot()) is not None:
        r, c = pick
        prow, others = el.take(r, c)
        inv = pow(prow.pop(c), -1, p)
        for i in others:
            row = rows[i]
            f = row[c] * inv % p
            new = {j: v for j, v in row.items() if j != c and j not in prow}
            for j, u in prow.items():
                w = (row.get(j, 0) - f * u) % p
                if w:
                    new[j] = w
            el.put(i, new)
        rank += 1
    return rank


def n_colorable(d: LinkDiagram, n: int) -> bool:
    """Whether the diagram admits a non-monochromatic coloring mod prime n.

    The determinant is read first. When n does not divide it the answer is
    no, on any diagram, planar or not. Without crossings that is one loop.
    With k crossings, a nonzero determinant means k arcs and no free loops,
    and a (k-1)-minor nonzero mod n, so the rank mod n is at least k-1;
    every row sums to 0, so the all-ones vector is in the kernel and the
    rank is at most k-1. The nullity is 1: only the constant colorings.

    When n divides the determinant, the nullity of the coloring system over
    the n-element field is computed too. The two criteria agree on planar
    diagrams; where they disagree on a diagram that is not planar, PDError
    says so.
    """
    if type(n) is not int:  # 5.0 passed the primality test and answered False
        raise ValueError(f"modulus must be an int, not {type(n).__name__}")
    if not _is_prime(n):
        raise ValueError(f"{n} is not prime")
    if d.slots:
        raise PDError("diagram has unfilled slots")
    if determinant(d) % n:
        return False
    if not d.crossings:
        by_rank = d.loops >= 2
    else:
        rows, arcs = _system(d)
        # free loops are further variables: zero columns that add no rank
        by_rank = arcs + d.loops - rank_mod_p(rows, n) >= 2
    if not by_rank:
        if not is_planar(d):
            raise PDError(
                f"diagram is not planar: its rank and determinant criteria "
                f"for n={n} disagree"
            )
        # on a planar diagram the two criteria are equivalent
        raise AssertionError(
            f"colorability criteria disagree for n={n}: rank=False det=True"
        )
    return True
