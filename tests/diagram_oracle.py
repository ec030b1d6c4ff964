"""Replaced diagram code, kept as references for differential tests.

The PD construction path that `LinkDiagram.__init__` replaced, which the one
label pass is compared with: `parse_pd` counted the labels itself, `_rebuild`
compacted them to 1..n by first appearance, and the constructor canonicalized
the crossings and then counted the labels again. `old_diagram` is that
constructor's body as a function. It fills a `LinkDiagram` through the record
base, so the new constructor never runs; the traced units (for the
orientation flag count) are the library's own.

The occurrence index that the position index (`LinkDiagram._index`)
replaced, which tracing, orientation transport, planarity and connected sums
are compared with: `occurrences` maps each label to its two (kind, index,
position) triples, kind 0 for a crossing and 1 for a slot. `units`,
`edge_directions`, `incoming`, `is_planar` and `connected_sum` are the
library's code before the change, and `surgery` is its `_surgery` with the
`where` maps of `crossing_change`, `oriented_resolve` and `fill_slot` on
triples. They share no position arithmetic with the library, and the label
rule and union-find they use are this module's own: `_label_rule` and
`UnionFind` below, so a differential never runs the library's code on both
sides.
"""

from __future__ import annotations

import re

from itertools import chain, combinations

from tanglekit._record import _Record
from tanglekit.diagram import LinkDiagram, PDError


class UnionFind:
    """Disjoint sets of labels: `merge` links the roots of each pair, the
    first's under the second's, and counts pairs already joined; `roots`
    maps every label merged into another to its root. No path is shortened."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        while x in self.parent:
            x = self.parent[x]
        return x

    def merge(self, pairs) -> int:
        closed = 0
        for x, y in pairs:
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                closed += 1
            else:
                self.parent[rx] = ry
        return closed

    def roots(self) -> dict[int, int]:
        return {x: self.find(x) for x in self.parent}


def _label_rule(flat: list[int], k: int):
    """The label rule on the labels of k crossings and then of the slots,
    four per tuple: labels not already 1..n are numbered 1..n in order of
    first appearance, and each crossing is stored as the smaller of itself
    and its rotation by two. Returns the final labels, the tuples before
    rotation and the stored crossings."""
    labels = set(flat)
    if labels != set(range(1, len(labels) + 1)):
        number: dict[int, int] = {}
        for e in flat:
            number.setdefault(e, len(number) + 1)
        flat = [number[e] for e in flat]
    tuples = [tuple(flat[i : i + 4]) for i in range(0, len(flat), 4)]
    crossings = tuple(_canon(t) for t in tuples[:k])
    return flat, tuples, crossings


def _check_twice(flat: list[int]) -> None:
    """Raise PDError unless the labels are 1..n, each exactly twice: read in
    sorted order, both members of every pair equal their pair's number. The
    library's `_surgery` ran this on its output before it checked
    `fill_slot`'s tangle up front."""
    s = sorted(flat)
    if not s[::2] == s[1::2] == list(range(1, len(s) // 2 + 1)):
        raise PDError(f"surgery broke the label rule: labels {s}")


def _canon(t: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    rot = (t[2], t[3], t[0], t[1])
    return min(t, rot)


def old_diagram(crossings=(), slots=(), loops=0, orientation=None) -> LinkDiagram:
    self = object.__new__(LinkDiagram)
    crossings = tuple(_canon(tuple(t)) for t in crossings)
    _Record.__init__(self, crossings, tuple(map(tuple, slots)), loops, orientation)
    if self.loops < 0:
        raise PDError("negative loop count")
    if not self.crossings and not self.slots and self.loops == 0:
        raise PDError("empty diagram")
    counts: dict[int, int] = {}
    for t in list(self.crossings) + list(self.slots):
        if len(t) != 4:
            raise PDError("tuples must have four entries")
        for e in t:
            counts[e] = counts.get(e, 0) + 1
    n = len(counts)
    if counts and (min(counts) != 1 or max(counts) != n):
        raise PDError("edge labels must be compact 1..n")
    bad = [e for e, c in counts.items() if c != 2]
    if bad:
        raise PDError(f"edge labels must occur exactly twice, got {sorted(bad)}")
    if self.orientation is not None:
        units = self._units
        if len(self.orientation) != len(units):
            raise PDError(
                f"orientation needs {len(units)} flags, got {len(self.orientation)}"
            )
        if any(f not in (1, -1) for f in self.orientation):
            raise PDError("orientation flags must be +1 or -1")
    return self


def _rebuild(
    crossings,
    slots,
    loops: int,
    label_map=None,
) -> tuple[LinkDiagram, dict[int, int], tuple[int, ...]]:
    """Relabel (optional map), compact to 1..n by first appearance, build.

    Returns (diagram, compact map from mapped label to new label, per-crossing
    position rotation applied by canonicalization).
    """
    if label_map is not None:
        crossings = [tuple(map(label_map, t)) for t in crossings]
        slots = [tuple(map(label_map, t)) for t in slots]
    tuples = [*crossings, *slots]
    labels = {e for t in tuples for e in t}
    if labels == set(range(1, len(labels) + 1)):
        compact = {e: e for e in labels}
    else:
        compact = {}
        for t in tuples:
            for e in t:
                if e not in compact:
                    compact[e] = len(compact) + 1
    new_crossings = tuple(tuple(compact[e] for e in t) for t in crossings)
    new_slots = tuple(tuple(compact[e] for e in t) for t in slots)
    diagram = old_diagram(new_crossings, new_slots, loops)
    # the constructor may rotate a tuple by two; record the shift per crossing
    rotations = tuple(
        0 if diagram.crossings[i] == t else 2 for i, t in enumerate(new_crossings)
    )
    return diagram, compact, rotations


_TOKEN = re.compile(
    r"(?P<kind>[XT])\[(?P<body>-?\d+(?:\s*,\s*-?\d+){3})\]|(?P<loop>U)\b|O\[(?P<orient>[^\]]*)\]"
)


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text: X[i,j,k,l] crossings, T[a,b,c,d] slots, U loops, and an
    optional O[1:+,2:-] orientation directive indexing traced units."""
    crossings: list[tuple[int, int, int, int]] = []
    slots: list[tuple[int, int, int, int]] = []
    loops = 0
    orient_spec: str | None = None
    pos = 0
    for m in _TOKEN.finditer(text):
        if text[pos : m.start()].strip():
            raise PDError(f"unrecognized PD text: {text[pos:m.start()]!r}")
        pos = m.end()
        if m.group("loop"):
            loops += 1
        elif m.group("orient") is not None:
            if orient_spec is not None:
                raise PDError("multiple orientation directives")
            orient_spec = m.group("orient")
        else:
            entries = tuple(int(x) for x in m.group("body").split(","))
            if any(e <= 0 for e in entries):
                raise PDError("edge labels must be positive")
            if m.group("kind") == "X":
                crossings.append(entries)
            else:
                slots.append(entries)
    if text[pos:].strip():
        raise PDError(f"unrecognized PD text: {text[pos:]!r}")
    if not crossings and not slots and loops == 0:
        raise PDError("empty PD text")

    counts: dict[int, int] = {}
    for t in crossings + slots:
        for e in t:
            counts[e] = counts.get(e, 0) + 1
    wrong = {e: c for e, c in counts.items() if c != 2}
    if wrong:
        slot_labels = {e for t in slots for e in t}
        if any(e in slot_labels for e in wrong):
            raise PDError(f"slot endpoint reuse: labels {sorted(wrong)} occur != 2 times")
        raise PDError(f"edge labels must occur exactly twice: {sorted(wrong)}")

    d, _, _ = _rebuild(crossings, slots, loops)
    if orient_spec is not None:
        flags = _parse_orientation(orient_spec, d)
        d = old_diagram(d.crossings, d.slots, d.loops, flags)
    return d


def _parse_orientation(spec: str, d: LinkDiagram) -> tuple[int, ...]:
    unit_count = len(d._units)
    entries = [s.strip() for s in spec.split(",") if s.strip()]
    flags = [0] * unit_count
    for entry in entries:
        m = re.fullmatch(r"(\d+)\s*:\s*([+-])", entry)
        if not m:
            raise PDError(f"bad orientation entry {entry!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= unit_count:
            raise PDError(f"orientation index {idx} out of range (1..{unit_count})")
        flags[idx - 1] = 1 if m.group(2) == "+" else -1
    if any(f == 0 for f in flags):
        raise PDError("orientation directive must cover every component")
    return tuple(flags)


# -- the occurrence index ------------------------------------------------------

Occ = tuple[int, int, int]  # (kind, index, position); kind 0 = crossing, 1 = slot


def occurrences(d: LinkDiagram) -> dict[int, list[Occ]]:
    occ: dict[int, list[Occ]] = {}
    for i, t in enumerate(d.crossings):
        for p, e in enumerate(t):
            occ.setdefault(e, []).append((0, i, p))
    for j, t in enumerate(d.slots):
        for p, e in enumerate(t):
            occ.setdefault(e, []).append((1, j, p))
    return occ


def units(d: LinkDiagram) -> list[list[tuple[int, Occ, Occ]]]:
    """Traced units: open strands (slot to slot), then closed components, as
    steps (edge, from_occ, to_occ)."""
    occ = occurrences(d)
    visited: set[int] = set()
    out: list[list[tuple[int, Occ, Occ]]] = []

    def other(e: int, o: Occ) -> Occ:
        a, b = occ[e]
        return b if o == a else a

    def walk(e: int, start: Occ) -> list[tuple[int, Occ, Occ]]:
        steps = []
        cur, frm = e, start
        while True:
            visited.add(cur)
            to = other(cur, frm)
            steps.append((cur, frm, to))
            if to[0] == 1:
                return steps  # path end at a slot
            nxt_pos = (to[2] + 2) % 4
            nxt = d.crossings[to[1]][nxt_pos]
            frm = (0, to[1], nxt_pos)
            if nxt == e and frm == start:
                return steps  # cycle closed
            cur = nxt

    for j, t in enumerate(d.slots):
        for p, e in enumerate(t):
            if e not in visited:
                out.append(walk(e, (1, j, p)))
    for e in sorted(occ):
        if e not in visited:
            out.append(walk(e, occ[e][0]))
    return out


def edge_directions(d: LinkDiagram) -> dict[int, tuple[Occ, Occ]]:
    """Per-edge (tail, head) occurrences under the stored orientation."""
    dirs: dict[int, tuple[Occ, Occ]] = {}
    for flag, unit in zip(d.orientation, units(d)):
        for e, frm, to in unit:
            dirs[e] = (frm, to) if flag == 1 else (to, frm)
    return dirs


def incoming(d: LinkDiagram, kind: int, i: int) -> set[int]:
    """Positions of the edges directed into crossing i (kind 0) or into
    slot i's disk (kind 1)."""
    dirs = edge_directions(d)
    t = (d.crossings, d.slots)[kind][i]
    return {p for p, e in enumerate(t) if dirs[e][1] == (kind, i, p)}


# Slot tuple positions (a, b, c, d) = (NW, NE, SW, SE) in counterclockwise
# order: a, c, d, b.
_SLOT_CYCLE = (0, 2, 3, 1)


def is_planar(d: LinkDiagram) -> bool:
    rotations = list(d.crossings) + [
        tuple(s[i] for i in _SLOT_CYCLE) for s in d.slots
    ]
    ends: dict[int, list[tuple[int, int]]] = {}
    for v, rot in enumerate(rotations):
        for i, e in enumerate(rot):
            ends.setdefault(e, []).append((v, i))
    pieces = UnionFind()
    pieces.merge((rot[0], e) for rot in rotations for e in rot[1:])

    faces = 0
    seen: set[tuple[int, int]] = set()
    for start in ((v, i) for v in range(len(rotations)) for i in range(4)):
        if start in seen:
            continue
        faces += 1
        dart = start
        while dart not in seen:
            seen.add(dart)
            a, b = ends[rotations[dart[0]][dart[1]]]
            w, j = b if a == dart else a
            dart = (w, (j + 1) % 4)

    root = pieces.roots()
    n_pieces = len({root.get(e, e) for e in ends})
    return len(rotations) - len(ends) + faces == 2 * n_pieces


def connected_sum(d1: LinkDiagram, a1: int, d2: LinkDiagram, a2: int) -> LinkDiagram:
    """The library's connected sum for diagrams with crossings or slots and
    edges in range."""
    shift = d1.arc_count
    one = [[list(t) for t in ts] for ts in (d1.crossings, d1.slots)]
    two = [[[e + shift for e in t] for t in ts] for ts in (d2.crossings, d2.slots)]
    kind, i, p = occurrences(d1)[a1][1]
    one[kind][i][p] = a2 + shift
    kind, i, p = occurrences(d2)[a2][0]
    two[kind][i][p] = a1
    return LinkDiagram(one[0] + two[0], one[1] + two[1], d1.loops + d2.loops)


# -- orientation transport on occurrences ----------------------------------------


def _inherit(new: LinkDiagram, heads: dict[int, Occ]) -> tuple[int, ...]:
    flags: list[int] = []
    for unit in units(new):
        votes = {1 if heads[e] == to else -1 for e, _, to in unit if e in heads}
        if not votes:
            raise PDError("cannot inherit orientation: unit has no directed edge")
        if len(votes) > 1:
            raise PDError("strand directions disagree after surgery")
        flags.append(votes.pop())
    return tuple(flags)


def surgery(d: LinkDiagram, crossings, slots, joins, where) -> LinkDiagram:
    """The library's `_surgery`, with `where` mapping old occurrences to new
    ones (before canonical rotation), or to None."""
    uf = UnionFind()
    closed = uf.merge(joins)
    alias = uf.roots()
    k = len(crossings)
    flat = list(chain.from_iterable(crossings))
    flat += chain.from_iterable(slots)
    if alias:
        flat = list(map(alias.get, flat, flat))
    flat, tuples, crossings = _label_rule(flat, k)
    _check_twice(flat)
    new = object.__new__(LinkDiagram)
    vars(new).update(
        crossings=crossings, slots=tuple(tuples[k:]),
        loops=d.loops + closed, orientation=None,
    )
    if d.orientation is None:
        return new
    heads: dict[int, Occ] = {}
    for _, head in edge_directions(d).values():
        o = where(head)
        if o is not None:
            kind, i, p = o
            e = tuples[kind * k + i][p]
            if kind == 0 and crossings[i] != tuples[i]:  # stored rotated by two
                o = (0, i, (p + 2) % 4)
            heads[e] = o
    vars(new)["orientation"] = _inherit(new, heads)
    return new


def crossing_change(d: LinkDiagram, i: int) -> LinkDiagram:
    a, b, c, e = d.crossings[i]
    crossings = d.crossings[:i] + ((b, c, e, a),) + d.crossings[i + 1 :]

    def where(o: Occ) -> Occ:
        return (0, i, (o[2] + 3) % 4) if o[:2] == (0, i) else o

    return surgery(d, crossings, d.slots, (), where)


def oriented_resolve(d: LinkDiagram, i: int) -> LinkDiagram:
    ins = incoming(d, 0, i)
    which = 1 if ins in ({0, 3}, {1, 2}) else 0
    t = d.crossings[i]
    joins = [(t[0], t[3]), (t[1], t[2])] if which == 0 else [(t[0], t[1]), (t[2], t[3])]

    def where(o: Occ) -> Occ | None:
        kind, idx, p = o
        if kind == 1 or idx < i:
            return o
        return None if idx == i else (0, idx - 1, p)

    return surgery(d, d.crossings[:i] + d.crossings[i + 1 :], d.slots, joins, where)


def fill_slot(d: LinkDiagram, slot_index: int, tangle: LinkDiagram) -> LinkDiagram:
    """The library's `fill_slot` with its tangle given as crossings and the
    stubs (nw, ne, sw, se), read off the tangle's slot T[nw, sw, ne, se]."""
    nw, sw, ne, se = tangle.slots[0]
    crossings, stubs = tangle.crossings, (nw, ne, sw, se)
    shift = d.arc_count
    add = [(a + shift, b + shift, c + shift, e + shift) for a, b, c, e in crossings]
    glue = [s + shift for s in stubs]
    slot = d.slots[slot_index]
    keep_slots = d.slots[:slot_index] + d.slots[slot_index + 1 :]
    where = None
    if d.orientation is not None:
        dirs = edge_directions(d)
        entering = [dirs[e][1] == (1, slot_index, p) for p, e in enumerate(slot)]
        for p, q in combinations(range(4), 2):
            if glue[p] == glue[q] and entering[p] == entering[q]:
                raise PDError(f"tangle strand joins like-directed slot ends {p}, {q}")
        n_old = len(d.crossings)
        inner = {
            e: (0, n_old + j, p) for j, t in enumerate(add) for p, e in enumerate(t)
        }

        def where(o: Occ) -> Occ | None:
            kind, idx, p = o
            if kind == 0 or idx < slot_index:
                return o
            return inner.get(glue[p]) if idx == slot_index else (1, idx - 1, p)

    return surgery(d, [*d.crossings, *add], keep_slots, zip(slot, glue), where)
