"""The PD construction path that `LinkDiagram.__init__` replaced, kept as the
reference that the one label pass is compared with: `parse_pd` counted the
labels itself, `_rebuild` compacted them to 1..n by first appearance, and the
constructor canonicalized the crossings and then counted the labels again.

`old_diagram` is that constructor's body as a function. It fills a
`LinkDiagram` through the record base, so the new constructor never runs; the
traced units (for the orientation flag count) are the library's own.
"""

from __future__ import annotations

import re

from tanglekit._record import _Record
from tanglekit.diagram import LinkDiagram, PDError


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
