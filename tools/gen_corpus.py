#!/usr/bin/env python3
"""Regenerate the bundled diagram corpus (src/tanglekit/data/corpus.txt).

Two-bridge knots come from their Conway continued fractions via the tangle
compiler (denominator closure, so the determinant is the fraction's
denominator). The non-two-bridge eight-crossing knots come from standard
3-braid closures, Montesinos necklace fills, or a bounded braid search;
a candidate diagram is accepted for a name only when its determinant pins the
knot type among <= 8-crossing knots (see notes in the repo for the two
det-sharing pairs). Every entry is validated against an independent sympy
determinant before being written.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tanglekit.coloring import coloring_matrix, determinant
from tanglekit.diagram import (
    LinkDiagram,
    components,
    connected_sum,
    disjoint_union,
    parse_pd,
    pd_string,
)
from tanglekit.skein import TangleTemplate, figure8_template, splice
from tanglekit.tangle import TangleFraction, fraction_to_cf

OUT = Path(__file__).resolve().parent.parent / "src" / "tanglekit" / "data" / "corpus.txt"


def braid_closure(strands: int, word: list[int]) -> LinkDiagram:
    """Trace closure of a braid word; letter +i crosses strand i over-under
    its right neighbour one way, -i the other."""
    nxt = strands + 1
    start = list(range(1, strands + 1))
    cur = list(start)
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        a, b = cur[i], cur[i + 1]
        c, d = nxt, nxt + 1
        nxt += 2
        if letter > 0:
            crossings.append((a, c, d, b))
        else:
            crossings.append((b, a, c, d))
        cur[i], cur[i + 1] = c, d
    parent = {x: x for x in range(1, nxt)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    loops = 0
    for s, e in zip(start, cur):
        rs, re = find(s), find(e)
        if rs == re:
            loops += 1
        else:
            parent[rs] = re
    merged = tuple(tuple(find(e) for e in t) for t in crossings)
    return LinkDiagram(merged, (), loops)


def conway_fraction(terms: tuple[int, ...]) -> Fraction:
    v = Fraction(terms[0])
    for a in terms[1:]:
        v = a + 1 / v
    return v


def two_bridge(terms: tuple[int, ...]) -> LinkDiagram:
    """Denominator closure realizing the two-bridge knot/link of the Conway
    notation `terms`; its determinant is the Conway fraction's numerator."""
    f = conway_fraction(terms)
    out = splice(figure8_template(), 0, TangleFraction.make(f.denominator, f.numerator))
    assert isinstance(out, LinkDiagram)
    return out


NECKLACE3 = TangleTemplate(parse_pd("T[1,2,3,4] T[2,5,4,6] T[5,1,6,3]"))


def montesinos(f1: TangleFraction, f2: TangleFraction, f3: TangleFraction) -> LinkDiagram:
    out = splice(splice(splice(NECKLACE3, 0, f1), 0, f2), 0, f3)
    assert isinstance(out, LinkDiagram)
    return out


def sympy_det(d: LinkDiagram) -> int:
    if not d.crossings:
        return 1 if d.loops == 1 else 0
    if d.loops:
        return 0
    rows = coloring_matrix(d)
    k = len(rows)
    if len(rows[0]) != k:
        return 0
    return abs(sympy.Matrix(rows).minor_submatrix(k - 1, k - 1).det())


def crossings_of(f: TangleFraction) -> int:
    return sum(abs(a) for a in fraction_to_cf(f).terms if a)


# name -> (conway terms, expected determinant)
TWO_BRIDGE_KNOTS = {
    "3_1": ((3,), 3),
    "4_1": ((2, 2), 5),
    "5_1": ((5,), 5),
    "5_2": ((3, 2), 7),
    "6_1": ((4, 2), 9),
    "6_2": ((3, 1, 2), 11),
    "6_3": ((2, 1, 1, 2), 13),
    "7_1": ((7,), 7),
    "7_2": ((5, 2), 11),
    "7_3": ((4, 3), 13),
    "7_4": ((3, 1, 3), 15),
    "7_5": ((3, 2, 2), 17),
    "7_6": ((2, 1, 2, 2), 19),
    "7_7": ((2, 1, 1, 1, 2), 21),
    "8_1": ((6, 2), 13),
    "8_2": ((5, 1, 2), 17),
    "8_3": ((4, 4), 17),
    "8_4": ((4, 1, 3), 19),
    "8_6": ((3, 3, 2), 23),
    "8_7": ((4, 1, 1, 2), 23),
    "8_8": ((2, 3, 1, 2), 25),
    "8_9": ((3, 1, 1, 3), 25),
    "8_11": ((3, 2, 1, 2), 27),
    "8_12": ((2, 2, 2, 2), 29),
    "8_13": ((3, 1, 1, 1, 2), 29),
    "8_14": ((2, 2, 1, 1, 2), 31),
}

# dets that identify a knot uniquely among prime knots with <= 8 crossings
# (and admit no <= 8-crossing composite diagram)
BRAID_TARGETS = {
    "8_5": 21,  # realized as the (3,3,2)-pretzel below, det then confirms
    "8_10": 27,
    "8_15": 33,
    "8_16": 35,
    "8_17": 37,
    "8_18": 45,
    "8_19": 3,
    "8_20": 9,
    "8_21": 15,
}

BRAID_CANDIDATES = {
    "8_10": [
        (3, [-1, -1, -1, 2, -1, -1, 2, 2]),
        (3, [1, 1, 1, -2, 1, 1, -2, -2]),
    ],
    "8_15": [
        (4, [-1, -1, 2, -1, 3, -2, 3, 3]),
        (4, [1, 1, -2, 1, -3, 2, -3, -3]),
    ],
    "8_16": [
        (3, [-1, -1, 2, -1, -1, 2, -1, 2]),
        (3, [1, 1, -2, 1, 1, -2, 1, -2]),
    ],
    "8_17": [
        (3, [-1, -1, 2, -1, 2, -1, 2, 2]),
        (3, [1, 1, -2, 1, -2, 1, -2, -2]),
    ],
    "8_18": [
        (3, [-1, 2, -1, 2, -1, 2, -1, 2]),
    ],
    "8_21": [
        (3, [1, 1, 1, 2, -1, -1, 2, 2]),
        (3, [-1, -1, -1, -2, 1, 1, -2, -2]),
        (3, [1, 1, 1, 2, 2, -1, 2, 2]),
    ],
}


def knot_matches(d: LinkDiagram, det: int) -> bool:
    return components(d) == 1 and determinant(d) == det and sympy_det(d) == det


def braid_search(target_det: int, strands: int) -> LinkDiagram | None:
    letters = [x for g in range(1, strands) for x in (g + 1 - 1, -(g))]
    letters = [g for g in range(1, strands)] + [-g for g in range(1, strands)]
    for word in product(letters, repeat=8):
        gens = {abs(x) for x in word}
        if gens != set(range(1, strands)):
            continue
        # skip words with an obvious cancellation
        if any(word[i] == -word[i + 1] for i in range(7)):
            continue
        d = braid_closure(strands, list(word))
        if components(d) != 1:
            continue
        if determinant(d) == target_det:
            return d
    return None


def montesinos_search(target_det: int) -> LinkDiagram | None:
    fracs = []
    for q in range(1, 7):
        for p in range(-7, 8):
            from math import gcd

            if gcd(abs(p), q) == 1 and abs(p) > 0:
                f = TangleFraction(p, q)
                if 1 <= crossings_of(f) <= 6:
                    fracs.append(f)
    for f1 in fracs:
        c1 = crossings_of(f1)
        for f2 in fracs:
            c2 = crossings_of(f2)
            if c1 + c2 >= 8:
                continue
            for f3 in fracs:
                if c1 + c2 + crossings_of(f3) != 8:
                    continue
                d = montesinos(f1, f2, f3)
                if components(d) == 1 and determinant(d) == target_det:
                    print(f"  montesinos fill ({f1}, {f2}, {f3})")
                    return d
    return None


def build_hard_knots() -> dict[str, LinkDiagram]:
    out: dict[str, LinkDiagram] = {}

    pretzels = {
        "8_5": (3, 3, 2),
        "8_19": (3, 3, -2),
        "8_20": (3, -3, 2),
    }
    for name, (p, q, r) in pretzels.items():
        d = montesinos(
            TangleFraction(1, p) if p > 0 else TangleFraction(-1, -p),
            TangleFraction(1, q) if q > 0 else TangleFraction(-1, -q),
            TangleFraction(1, r) if r > 0 else TangleFraction(-1, -r),
        )
        det = BRAID_TARGETS[name]
        assert knot_matches(d, det), (name, components(d), determinant(d))
        out[name] = d
        print(f"{name}: pretzel ({p},{q},{r}), det {det} ok")

    for name in ("8_10", "8_15", "8_16", "8_17", "8_18", "8_21"):
        det = BRAID_TARGETS[name]
        found = None
        for strands, word in BRAID_CANDIDATES.get(name, []):
            d = braid_closure(strands, word)
            if knot_matches(d, det):
                found = d
                print(f"{name}: braid {word} on {strands} strands, det {det} ok")
                break
        if found is None:
            print(f"{name}: candidates failed, searching...")
            found = montesinos_search(det)
            if found is None:
                for strands in (3, 4):
                    found = braid_search(det, strands)
                    if found is not None:
                        print(f"{name}: found by {strands}-braid search")
                        break
        if found is None:
            raise SystemExit(f"could not realize {name} (det {det})")
        assert knot_matches(found, det)
        out[name] = found
    return out


def main() -> None:
    entries: list[tuple[str, LinkDiagram, int, int]] = []

    def add(name: str, d: LinkDiagram, want_comp: int, want_det: int) -> None:
        assert components(d) == want_comp, (name, components(d))
        mine = determinant(d)
        theirs = sympy_det(d)
        assert mine == theirs == want_det, (name, mine, theirs, want_det)
        rt = parse_pd(pd_string(d))
        assert rt == d, name
        entries.append((name, d, want_comp, want_det))

    add("unknot_0", parse_pd("U"), 1, 1)
    add("unknot_kink", parse_pd("X[1,2,2,1]"), 1, 1)
    unknot_2x = splice(figure8_template(), 0, TangleFraction(2, 1))
    assert isinstance(unknot_2x, LinkDiagram)
    add("unknot_2x", unknot_2x, 1, 1)

    for name, (terms, det) in TWO_BRIDGE_KNOTS.items():
        d = two_bridge(terms)
        assert len(d.crossings) == sum(terms), (name, len(d.crossings))
        add(name, d, 1, det)

    for name, d in build_hard_knots().items():
        add(name, d, 1, BRAID_TARGETS[name])

    hopf = parse_pd("X[1,4,2,3] X[3,2,4,1]")
    add("hopf", hopf, 2, 2)
    add("solomon", braid_closure(2, [1, 1, 1, 1]), 2, 4)
    add("t2_6", braid_closure(2, [1] * 6), 2, 6)
    whitehead = two_bridge((2, 1, 2))  # fraction 8/3
    add("whitehead", whitehead, 2, 8)
    add("l6a1", two_bridge((2, 2, 2)), 2, 12)

    add("unlink_2", parse_pd("U U"), 2, 0)
    add("unlink_3", parse_pd("U U U"), 3, 0)

    trefoil = two_bridge((3,))
    fig8 = two_bridge((2, 2))
    mirror_trefoil = splice(figure8_template(), 0, TangleFraction(-1, 3))
    add("union_unknot_unknot", disjoint_union(parse_pd("U"), parse_pd("U")), 2, 0)
    add("union_hopf_trefoil", disjoint_union(hopf, trefoil), 3, 0)
    add("union_trefoil_trefoil", disjoint_union(trefoil, trefoil), 2, 0)

    add("granny", connected_sum(trefoil, 1, trefoil, 1), 1, 9)
    add("square", connected_sum(trefoil, 1, mirror_trefoil, 1), 1, 9)
    add("sum_trefoil_fig8", connected_sum(trefoil, 2, fig8, 3), 1, 15)
    add("sum_hopf_trefoil", connected_sum(hopf, 1, trefoil, 1), 2, 6)

    lines = ["# name | pdcode | components | determinant"]
    for name, d, comp, det in entries:
        lines.append(f"{name} | {pd_string(d)} | {comp} | {det}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    print(f"\nwrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
