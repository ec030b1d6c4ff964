"""Planar diagram (PD) codes built by the benchmark itself, without tanglekit.

The benchmark hands tanglekit PD text only. Building that text here keeps the
input generator independent of the surgery code under test, so a det-closures
op exercises parsing and the determinant layer and nothing else.

Conventions match the tanglekit README: X[a,b,c,d] lists a crossing's edges
counterclockwise starting from an under-strand end (positions 0 and 2 are the
under-strand, 1 and 3 the over-strand); every edge label occurs exactly twice.
"""

from __future__ import annotations

Crossing = tuple[int, int, int, int]


def word_fraction(start: str, ops: list[tuple[str, int]]) -> tuple[int, int]:
    """(p, q) of a twist word: 'h' adds k to p/q, 'v' adds k to q/p."""
    p, q = (0, 1) if start == "h" else (1, 0)
    for kind, k in ops:
        if kind == "h":
            p += k * q
        else:
            q += k * p
    return p, q


def rational_closure(start: str, ops: list[tuple[str, int]]) -> list[Crossing]:
    """Crossings of the closure that joins NW to SW and NE to SE.

    The tangle is built twist by twist: a horizontal twist adds a crossing on
    the right (acting on the NE and SE ends), a vertical twist adds one below
    (acting on SW and SE). A positive twist of either kind is the same
    crossing, the SW-NE strand over, so the word's fraction is word_fraction
    and the closure's determinant is |q|.
    """
    crossings: list[Crossing] = []
    nxt = 3
    if start == "h":
        nw = ne = 1
        sw = se = 2
    else:
        nw = sw = 1
        ne = se = 2
    for kind, k in ops:
        for _ in range(abs(k)):
            a, b = nxt, nxt + 1
            nxt += 2
            if kind == "h":
                # counterclockwise from top-left: NE end, SE end, new SE, new NE
                crossings.append((ne, se, b, a) if k > 0 else (se, b, a, ne))
                ne, se = a, b
            else:
                # counterclockwise from top-left: SW end, new SW, new SE, SE end
                crossings.append((sw, a, b, se) if k > 0 else (se, sw, a, b))
                sw, se = a, b
    return _compact(crossings, {sw: nw, se: ne})


def _compact(crossings: list[Crossing], alias: dict[int, int]) -> list[Crossing]:
    """Apply label aliases, then renumber labels 1..n by first appearance."""

    def find(e: int) -> int:
        while e in alias and alias[e] != e:
            e = alias[e]
        return e

    seen: dict[int, int] = {}
    out = []
    for t in crossings:
        out.append(tuple(seen.setdefault(find(e), len(seen) + 1) for e in t))
    counts: dict[int, int] = {}
    for t in out:
        for e in t:
            counts[e] = counts.get(e, 0) + 1
    if any(c != 2 for c in counts.values()):
        raise ValueError("closure left a free loop or a dangling end")
    return out


def face_count(crossings: list[Crossing]) -> int:
    """Faces of the 4-valent diagram graph, traced from the cyclic order."""
    where: dict[int, list[tuple[int, int]]] = {}
    for i, t in enumerate(crossings):
        for p, e in enumerate(t):
            where.setdefault(e, []).append((i, p))
    seen: set[tuple[int, int]] = set()
    faces = 0
    for start in ((i, p) for i in range(len(crossings)) for p in range(4)):
        if start in seen:
            continue
        faces += 1
        dart = start
        while dart not in seen:
            seen.add(dart)
            i, p = dart
            a, b = where[crossings[i][p]]
            j, r = b if a == dart else a
            dart = (j, (r + 1) % 4)
    return faces


def is_planar(crossings: list[Crossing]) -> bool:
    """V - E + F == 2 for a connected diagram with V crossings and 2V edges."""
    return face_count(crossings) == len(crossings) + 2


def connected_sum(
    d1: list[Crossing], e1: int, d2: list[Crossing], e2: int
) -> list[Crossing]:
    """Cut edge e1 of d1 and edge e2 of d2 and rejoin the four loose ends.

    Of the two ways to rejoin them, exactly one keeps the diagram planar; that
    one is returned. Both inputs must be planar and connected.
    """
    shift = max(max(t) for t in d1)
    f = e2 + shift
    for nth in (1, 2):
        out = [list(t) for t in d1] + [[e + shift for e in t] for t in d2]
        seen_e = seen_f = 0
        for row in out:
            for p, e in enumerate(row):
                if e == e1:
                    seen_e += 1
                    if seen_e == 2:
                        row[p] = f
                elif e == f:
                    seen_f += 1
                    if seen_f == nth:
                        row[p] = e1
        result = [tuple(row) for row in out]
        if is_planar(result):
            return result
    raise ValueError("neither rejoining of the cut edges is planar")


def parse_crossings(pd: str) -> list[Crossing]:
    """Crossings of PD text made only of X[...] tokens (corpus knots)."""
    out = []
    for token in pd.split():
        if not (token.startswith("X[") and token.endswith("]")):
            raise ValueError(f"unsupported PD token {token!r}")
        out.append(tuple(int(x) for x in token[2:-1].split(",")))
    return out


def pd_text(crossings: list[Crossing]) -> str:
    return " ".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in crossings)
