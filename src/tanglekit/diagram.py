"""PD-code link diagrams: parsing, component tracing, crossing surgery.

A crossing X[a,b,c,d] lists its four incident edges counterclockwise starting
from the incoming under-strand, so the under-strand runs a->c and the
over-strand joins b and d. A slot T[a,b,c,d] lists the four boundary edges of
a deleted tangle disk: a top-left, b top-right, c bottom-left, d bottom-right.
`U` is a crossing-free unknot loop.

One label rule holds for every diagram. Every tuple has four entries, and
every edge label is a positive integer that occurs exactly twice across all
crossing and slot tuples. Labels are renumbered 1..n in order of first
appearance (crossings, then slots) unless they already are 1..n. A crossing
tuple and its rotation by two positions name the same unoriented crossing (the
under-strand read from the other end), and the lexicographically smaller is
stored. One helper, `_label_rule`, does the renumbering and the rotation. The
`LinkDiagram` constructor checks caller input before calling it, so
`LinkDiagram(...)` accepts exactly what `parse_pd` accepts. Surgery calls it
on its own result, which is valid by construction: its inputs are a checked
diagram and, for `fill_slot`, a tangle that is a checked diagram too.

Position 4v + i is entry i of tuple v, crossings first and slots after them,
so `q >> 2` is its tuple and `q ^ 2` the entry across a crossing. A diagram's
`_index`, built in one pass and kept on the instance, holds the label at each
position, each label's first position, and each position's `mate` (the other
position with that label). Nothing else knows where a label sits: tracing,
orientation transport, planarity and connected sums all read it.

Orientation is one direction flag per traced unit (open strands first, then
closed components), relative to the canonical traversal; per-edge directions
are derived as (tail, head) positions. Crossing-free loops carry no flag.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Collection, Iterable
from functools import cached_property
from itertools import chain, combinations

from ._record import _Record

__all__ = [
    "LinkDiagram",
    "PDError",
    "parse_pd",
    "pd_string",
    "components",
    "is_planar",
    "resolve",
    "crossing_change",
    "oriented_resolve",
    "disjoint_union",
    "connected_sum",
    "fill_slot",
]

Quad = tuple[int, int, int, int]  # a crossing or slot tuple


class PDError(ValueError):
    """Malformed PD text or invalid diagram data."""


def _exact_int(value: int, name: str) -> int:
    """An index or edge label, which must be an exact int: a float or bool
    would name the one it only rounds to."""
    if type(value) is not int:
        raise PDError(f"{name} must be an int, not {type(value).__name__}")
    return value


def _checked_labels(tuples: list[tuple], slots: list[tuple]) -> list[int]:
    """The labels of `tuples` in order; PDError, naming what is wrong, unless
    every tuple has four entries and every label is an exact positive int
    that occurs exactly twice. The exact type of every entry is read, not of
    the distinct labels: a bool is an int and True == 1, so it would pair up
    with, or hide behind, an equal int label. A miscounted label in `slots`
    is reported as a slot endpoint reused."""
    if set(map(len, tuples)) - {4}:
        short = [t for t in tuples if len(t) != 4]
        raise PDError(f"tuples must have four entries, not {short}")
    flat = list(chain.from_iterable(tuples))
    s = sorted(flat) if set(map(type, flat)) <= {int} else None
    if s is None or s and s[0] < 1:
        bad = [e for e in flat if type(e) is not int or e < 1]
        raise PDError(f"edge labels must be positive integers, not {bad}")
    # read in sorted order, each label twice is each pair equal and no two
    # pairs equal
    pairs = s[::2]
    if pairs != s[1::2] or len(set(pairs)) != len(pairs):
        wrong = sorted(e for e, c in Counter(flat).items() if c != 2)
        if any(e in t for t in slots for e in wrong):
            raise PDError(f"slot endpoint reuse: labels {wrong} occur != 2 times")
        raise PDError(f"edge labels must occur exactly twice: {wrong}")
    return flat


def _label_rule(
    flat: list[int], labels: Collection[int], k: int
) -> tuple[list[int], list[Quad], tuple[Quad, ...]]:
    """The label rule's renumbering and rotation by two, in one step, on
    labels already known to be positive and to occur twice each.

    `flat` lists the labels of k crossings and then of the slots, four per
    tuple, and `labels` its distinct labels in order of first appearance.
    Returns the final labels in the same layout, the same as 4-tuples (the
    crossings as renumbered, before rotation, then the slots), and the stored
    crossings.
    """
    if max(labels, default=0) != len(labels):
        number = dict(zip(labels, range(1, len(labels) + 1)))
        flat = list(map(number.__getitem__, flat))
    tuples = _quads(flat)
    # the smaller of (a, b, c, d) and (c, d, a, b)
    crossings = tuple([
        (a, b, c, d) if (a, b) <= (c, d) else (c, d, a, b) for a, b, c, d in tuples[:k]
    ])
    return flat, tuples, crossings


def _quads(flat: list[int]) -> list[Quad]:
    """Consecutive groups of four labels, as tuples."""
    q = iter(flat)
    return list(zip(q, q, q, q))


class _UnionFind:
    """Disjoint sets of edge labels; a label never merged is its own root.

    Pairs are merged, and roots read, in bulk, one call each: every caller
    merges a batch of pairs and then reads many labels. Both walks halve
    the paths they follow.
    """

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def merge(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Merge each pair, the first's set under the second's root; returns
        how many pairs were merged already (closure events)."""
        p = self.parent
        closed = 0
        for x, y in pairs:
            while x in p:
                up = p[x]
                if up in p:
                    up = p[x] = p[up]
                x = up
            while y in p:
                up = p[y]
                if up in p:
                    up = p[y] = p[up]
                y = up
            if x == y:
                closed += 1
            else:
                p[x] = y
        return closed

    def roots(self) -> dict[int, int]:
        """Every label merged into another, mapped to its root; any label
        e's root is `roots().get(e, e)`."""
        p = self.parent
        out: dict[int, int] = {}
        for x in p:
            r = x
            while r in p:
                up = p[r]
                if up in p:
                    up = p[r] = p[up]
                r = up
            out[x] = r
        return out


class LinkDiagram(_Record):
    # no __slots__: __dict__ caches the index, units, coloring system and determinant
    _fields = ("crossings", "slots", "loops", "orientation")

    def __init__(
        self,
        crossings: Iterable[tuple[int, int, int, int]] = (),
        slots: Iterable[tuple[int, int, int, int]] = (),
        loops: int = 0,
        orientation: tuple[int, ...] | None = None,
    ) -> None:
        """Check the caller's labels, in one counting pass whose errors name
        them, then renumber and rotate them by the label rule
        (`_label_rule`)."""
        crossings = [tuple(t) for t in crossings]
        slots = [tuple(t) for t in slots]
        if type(loops) is not int:  # a bool or float would count loops it rounds to
            raise PDError(f"loop count must be an int, not {type(loops).__name__}")
        if loops < 0:
            raise PDError("negative loop count")
        if not crossings and not slots and loops == 0:
            raise PDError("empty diagram")
        flat = _checked_labels(crossings + slots, slots)
        k = len(crossings)
        _, tuples, crossings = _label_rule(flat, dict.fromkeys(flat), k)
        _Record.__init__(self, crossings, tuple(tuples[k:]), loops, orientation)
        if orientation is not None:
            self._check_orientation()

    def _check_orientation(self) -> None:
        units = self._units
        if len(self.orientation) != len(units):
            raise PDError(
                f"orientation needs {len(units)} flags, got {len(self.orientation)}"
            )
        if any(type(f) is not int or f not in (1, -1) for f in self.orientation):
            raise PDError("orientation flags must be +1 or -1")

    # -- structure ---------------------------------------------------------

    @property
    def arc_count(self) -> int:
        # labels are compact 1..n and each occurs twice (checked in __init__)
        return 2 * (len(self.crossings) + len(self.slots))

    @property
    def is_oriented(self) -> bool:
        return self.orientation is not None

    @cached_property
    def _index(self) -> tuple[list[int], list[int], list[int]]:
        """(labels, first, mate): the label at each position, each label's
        first position (indexed by label; index 0 is unused) and each
        position's mate. Callers read the lists and never change them."""
        labels = list(chain.from_iterable(self.crossings + self.slots))
        first = [-1] * (len(labels) // 2 + 1)
        mate = [0] * len(labels)
        for q, e in enumerate(labels):
            p = first[e]
            if p < 0:
                first[e] = q
            else:
                mate[p] = q
                mate[q] = p
        return labels, first, mate

    @cached_property
    def _units(self) -> list[list[tuple[int, int, int]]]:
        """Traced units: open strands (slot to slot), then closed components.

        Each unit is a list of steps (edge, from, to) in traversal order, where
        from and to are the edge's two positions. Deterministic: paths start
        from slot positions in order, cycles from the smallest unvisited edge
        at its first position. Traced once per instance (they do not depend on
        orientation); callers read the lists and never change them.
        """
        labels, first, mate = self._index
        slot0 = 4 * len(self.crossings)
        visited = [False] * len(first)
        units: list[list[tuple[int, int, int]]] = []

        def walk(start: int) -> list[tuple[int, int, int]]:
            steps, frm = [], start
            while True:
                e = labels[frm]
                visited[e] = True
                to = mate[frm]
                steps.append((e, frm, to))
                if to >= slot0:
                    return steps  # path end at a slot
                frm = to ^ 2  # straight through the crossing
                if frm == start:
                    return steps  # cycle closed

        for q in chain(range(slot0, len(labels)), first[1:]):
            if not visited[labels[q]]:
                units.append(walk(q))
        return units

    def _heads(self) -> set[int]:
        """The head position of every edge under the stored orientation."""
        if self.orientation is None:
            raise PDError("diagram is not oriented")
        units = zip(self.orientation, self._units)
        return {to if flag == 1 else frm for flag, unit in units for _, frm, to in unit}

    def incoming_positions(self, v: int) -> set[int]:
        """Entries of tuple v (crossings first, then slots) whose edges are
        directed into it: into the crossing, or into the slot's deleted disk."""
        if not 0 <= v < len(self.crossings) + len(self.slots):
            raise PDError(f"tuple index {v} out of range")
        return _entering(self._heads(), v)

    def with_orientation(self, flags: tuple[int, ...] | None) -> "LinkDiagram":
        """This diagram with other flags, and no label pass: the checked
        fields and every value cached on this diagram (position index, traced
        units, coloring system, determinant; none depends on orientation) are
        shared, and only the flags are checked."""
        out = object.__new__(LinkDiagram)
        vars(out).update(vars(self), orientation=flags)
        if flags is not None:
            out._check_orientation()
        return out


# -- construction helpers ----------------------------------------------------


def _entering(heads: set[int], v: int) -> set[int]:
    """Entries of tuple v that are edge heads (see `incoming_positions`)."""
    return {i for i in range(4) if 4 * v + i in heads}


def _inherit_orientation(new: LinkDiagram, heads: dict[int, int]) -> tuple[int, ...]:
    """Orientation flags for `new` from inherited heads: for each directed
    edge, the position its strand flows into. A unit whose heads disagree
    has no consistent orientation."""
    flags: list[int] = []
    for unit in new._units:
        votes = {1 if heads[e] == to else -1 for e, _, to in unit if e in heads}
        if not votes:
            raise PDError("cannot inherit orientation: unit has no directed edge")
        if len(votes) > 1:
            raise PDError("strand directions disagree after surgery")
        flags.append(votes.pop())
    return tuple(flags)


# -- parsing / rendering -----------------------------------------------------

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
            (crossings if m.group("kind") == "X" else slots).append(entries)
    if text[pos:].strip():
        raise PDError(f"unrecognized PD text: {text[pos:]!r}")
    d = LinkDiagram(crossings, slots, loops)
    if orient_spec is not None:
        d = d.with_orientation(_parse_orientation(orient_spec, d))
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
        if flags[idx - 1]:
            raise PDError(f"orientation directive names component {idx} twice")
        flags[idx - 1] = 1 if m.group(2) == "+" else -1
    if any(f == 0 for f in flags):
        raise PDError("orientation directive must cover every component")
    return tuple(flags)


def pd_string(d: LinkDiagram) -> str:
    parts = [f"X[{','.join(map(str, t))}]" for t in d.crossings]
    parts += [f"T[{','.join(map(str, t))}]" for t in d.slots]
    parts += ["U"] * d.loops
    if d.orientation is not None:
        body = ",".join(
            f"{i + 1}:{'+' if f == 1 else '-'}" for i, f in enumerate(d.orientation)
        )
        parts.append(f"O[{body}]")
    return " ".join(parts)


# -- operations --------------------------------------------------------------


def components(d: LinkDiagram) -> int:
    """Number of link components; rejects diagrams with unfilled slots."""
    if d.slots:
        raise PDError("diagram has unfilled slots")
    return len(d._units) + d.loops


# A slot's entries (a, b, c, d) = (NW, NE, SW, SE) run counterclockwise a, c,
# d, b: the entry after entry i.
_SLOT_NEXT = (2, 0, 3, 1)


def is_planar(d: LinkDiagram) -> bool:
    """V - E + F = 2 * (connected pieces) for the 4-valent graph whose
    vertices are the crossings and slots, where E = 2V. Faces are the orbits
    of "go to the mate, then to the next position counterclockwise"; a
    crossing lists its positions counterclockwise, a slot as a, c, d, b.
    Crossing-free loops are ignored."""
    labels, _, mate = d._index
    slot0 = 4 * len(d.crossings)
    seen = [False] * len(labels)
    faces = 0
    for start in range(len(labels)):
        if seen[start]:
            continue
        faces += 1
        q = start
        while not seen[q]:
            seen[q] = True
            q = mate[q]
            i = q & 3
            q += (_SLOT_NEXT[i] if q >= slot0 else (i + 1) & 3) - i

    pieces = _UnionFind()
    pieces.merge((t[0], e) for t in d.crossings + d.slots for e in t[1:])
    root = pieces.roots()
    n_pieces = len({root.get(e, e) for e in labels})
    return faces - len(labels) // 4 == 2 * n_pieces


def _surgery(
    d: LinkDiagram,
    crossings: Collection[Quad],
    slots: Collection[Quad],
    joins: Iterable[tuple[int, int]],
    where: Callable[[int], int | None] | None,
    heads: set[int] | None = None,
) -> LinkDiagram:
    """Build `crossings` and `slots` with each edge-label pair in `joins`
    identified; a join that closes a cycle leaves a free loop.

    One map takes each label to its final one: to the root of its joins'
    union-find, then through the label rule (`_label_rule`, shared with the
    constructor, which also rotates the crossings). The result does not go
    through the constructor and is not checked again: with every label of the
    input twice, each joined label class is a path with two free ends, which
    keeps one label, or a closed loop, which leaves none.

    For an oriented `d`, `heads` are its edge heads (`d._heads()`, which the
    caller has read) and `where(q)` places each old position in the new
    tuples (before canonical rotation), or gives None where the surgery
    removed it. Each old edge hands its head, where it survives, to
    the final label at that position: a label that is not a free loop keeps
    exactly one.
    """
    uf = _UnionFind()
    closed = uf.merge(joins)
    alias = uf.roots()
    k = len(crossings)
    flat = list(chain.from_iterable(crossings))
    flat += chain.from_iterable(slots)
    if alias:
        flat = list(map(alias.get, flat, flat))
    flat, tuples, crossings = _label_rule(flat, dict.fromkeys(flat), k)
    new = object.__new__(LinkDiagram)
    vars(new).update(
        crossings=crossings, slots=tuple(tuples[k:]),
        loops=d.loops + closed, orientation=None,
    )
    if d.orientation is None:
        return new
    moved: dict[int, int] = {}
    for head in heads:
        q = where(head)
        if q is not None:
            v = q >> 2
            # a crossing stored rotated by two moves each entry by two
            moved[flat[q]] = q ^ 2 if v < k and crossings[v] != tuples[v] else q
    return new.with_orientation(_inherit_orientation(new, moved))


def _smooth(d: LinkDiagram, i: int, which: int, heads: set[int] | None) -> LinkDiagram:
    """Remove crossing i, joining its edges the chosen way (0 or 1)."""
    t = d.crossings[i]
    joins = [(t[0], t[3]), (t[1], t[2])] if which == 0 else [(t[0], t[1]), (t[2], t[3])]

    def where(q: int) -> int | None:
        if q >> 2 == i:
            return None
        return q if q < 4 * i else q - 4

    rest = d.crossings[:i] + d.crossings[i + 1 :]
    return _surgery(d, rest, d.slots, joins, where, heads)


def resolve(d: LinkDiagram, site: int, which: int) -> LinkDiagram:
    """Smooth one crossing the chosen way (0 or 1); the input diagram, and its
    two smoothings at a site, form an unoriented skein triple by construction.
    """
    i = _exact_int(site, "crossing site")
    if not 0 <= i < len(d.crossings):
        raise PDError(f"crossing index {i} out of range")
    if type(which) is not int or which not in (0, 1):  # True and 1.0 equal 1
        raise PDError("smoothing must be 0 or 1")
    if d.is_oriented:
        raise PDError("resolve acts on unoriented diagrams; see oriented_resolve")
    return _smooth(d, i, which, None)


def crossing_change(d: LinkDiagram, site: int) -> LinkDiagram:
    """Swap over/under at one crossing; an involution on canonical diagrams.

    Strand directions are physical data, so an oriented diagram keeps every
    edge's direction even when canonicalization rotates the flipped tuple.
    """
    i = _exact_int(site, "crossing site")
    if not 0 <= i < len(d.crossings):
        raise PDError(f"crossing index {i} out of range")
    a, b, c, e = d.crossings[i]
    crossings = d.crossings[:i] + ((b, c, e, a),) + d.crossings[i + 1 :]

    def where(q: int) -> int:
        # old entry p sits at entry p - 1 of the flipped tuple
        return 4 * i + (q + 3) % 4 if q >> 2 == i else q

    heads = d._heads() if d.is_oriented else None
    return _surgery(d, crossings, d.slots, (), where, heads)


def oriented_resolve(d: LinkDiagram, site: int) -> LinkDiagram:
    """The unique smoothing consistent with strand directions at the site;
    orientation carries to the result."""
    i = _exact_int(site, "crossing site")
    if not d.is_oriented:
        raise PDError("diagram is not oriented")
    if not 0 <= i < len(d.crossings):
        raise PDError(f"crossing index {i} out of range")
    heads = d._heads()
    # each strand runs in at one end: entry 0 or 2 (under), entry 1 or 3 (over)
    which = 1 if _entering(heads, i) in ({0, 3}, {1, 2}) else 0
    return _smooth(d, i, which, heads)


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """Place two diagrams side by side; components add."""
    shift = d1.arc_count
    crossings = d1.crossings + tuple(
        tuple(e + shift for e in t) for t in d2.crossings
    )
    slots = d1.slots + tuple(tuple(e + shift for e in t) for t in d2.slots)
    orientation = None
    if d1.is_oriented and d2.is_oriented and not slots:
        # unit order is d1 units then d2 units: labels are disjoint and ordered
        orientation = d1.orientation + d2.orientation
    return LinkDiagram(crossings, slots, d1.loops + d2.loops, orientation)


def connected_sum(
    d1: LinkDiagram, a1: int, d2: LinkDiagram, a2: int
) -> LinkDiagram:
    """Cut edge a1 of d1 and edge a2 of d2 and cross-join the loose ends.

    Component counts satisfy |result| = |d1| + |d2| - 1. The result is
    unoriented. Summing with a crossing-free unknot returns the other diagram.
    """
    if not d2.crossings and not d2.slots:
        if d2.loops != 1:
            raise PDError("connected sum with a bare unlink is ambiguous")
        return d1.with_orientation(None)
    if not d1.crossings and not d1.slots:
        if d1.loops != 1:
            raise PDError("connected sum with a bare unlink is ambiguous")
        return d2.with_orientation(None)
    if not 1 <= _exact_int(a1, "edge a1") <= d1.arc_count:
        raise PDError(f"edge {a1} not in first diagram")
    if not 1 <= _exact_int(a2, "edge a2") <= d2.arc_count:
        raise PDError(f"edge {a2} not in second diagram")
    shift = d1.arc_count
    labels1, first1, mate1 = d1._index
    labels2, first2, _ = d2._index
    one = labels1.copy()
    two = [e + shift for e in labels2]
    # cut and swap: the second end of a1 takes a2's label and the first end of
    # a2 takes a1's, so the two cut strands cross-join
    one[mate1[first1[a1]]] = a2 + shift
    two[first2[a2]] = a1
    k1, k2 = 4 * len(d1.crossings), 4 * len(d2.crossings)
    return LinkDiagram(
        _quads(one[:k1] + two[:k2]), _quads(one[k1:] + two[k2:]), d1.loops + d2.loops
    )


def fill_slot(d: LinkDiagram, slot_index: int, tangle: LinkDiagram) -> LinkDiagram:
    """Glue a tangle into one slot.

    The tangle is an unoriented one-slot `LinkDiagram` without free loops,
    such as `compile_word` builds, whose slot T[nw, sw, ne, se] is its
    boundary seen from outside the disk; nw, ne, sw and se are glued to the
    slot's (a, b, c, d). Both diagrams were checked when they were built.
    Orientation, when present, carries to the result; a tangle whose strands
    join two entering or two leaving slot endpoints raises PDError.
    """
    if not 0 <= _exact_int(slot_index, "slot index") < len(d.slots):
        raise PDError(f"slot index {slot_index} out of range")
    if (
        not isinstance(tangle, LinkDiagram)
        or len(tangle.slots) != 1
        or tangle.loops
        or tangle.orientation is not None
    ):
        raise PDError("a tangle is an unoriented one-slot diagram without loops")
    crossings, (nw, sw, ne, se) = tangle.crossings, tangle.slots[0]
    shift = d.arc_count
    add = [(a + shift, b + shift, c + shift, e + shift) for a, b, c, e in crossings]
    glue = [nw + shift, ne + shift, sw + shift, se + shift]
    slot = d.slots[slot_index]
    keep_slots = d.slots[:slot_index] + d.slots[slot_index + 1 :]
    where = heads = None
    if d.orientation is not None:
        base = 4 * len(d.crossings)
        heads = d._heads()
        entering = _entering(heads, len(d.crossings) + slot_index)
        for p, q in combinations(range(4), 2):
            if glue[p] == glue[q] and (p in entering) == (q in entering):
                raise PDError(f"tangle strand joins like-directed slot ends {p}, {q}")
        # the tangle-side end of each stub; a stub running straight across to
        # another boundary point has none
        inner = {e: base + q for q, e in enumerate(chain.from_iterable(add))}
        cut = base + 4 * slot_index  # the slot's first position
        added = 4 * len(add)

        def where(q: int) -> int | None:
            if q < base:
                return q
            if q < cut:
                return q + added
            return inner.get(glue[q - cut]) if q < cut + 4 else q + added - 4

    return _surgery(d, [*d.crossings, *add], keep_slots, zip(slot, glue), where, heads)
