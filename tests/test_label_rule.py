"""The constructor's one label pass against the construction it replaced.

`diagram_oracle` keeps the old path: `parse_pd` counting labels itself, then
`_rebuild` compacting them, then the constructor canonicalizing and counting
again. The cases are every corpus entry and 200 random planar two-slot
diagrams. Each has its labels moved to sparse shuffled positive integers (or
shuffled within 1..n, which the rule keeps) and some crossings written rotated
by two, with and without `U` loops and an `O[...]` directive. On them the new
`parse_pd`, the old one and `LinkDiagram(...)` build the same diagram, and
refuse the same broken label sets.
"""

import random

import diagram_oracle as oracle
import pytest
from test_skein import random_planar_two_slot

from tanglekit.corpus import load_corpus
from tanglekit.diagram import LinkDiagram, PDError, parse_pd

SEED = 20260


def fields(d):
    return d.crossings, d.slots, d.loops, d.orientation


def pd_text(crossings, slots, loops, flags=None):
    parts = [f"X[{','.join(map(str, t))}]" for t in crossings]
    parts += [f"T[{','.join(map(str, t))}]" for t in slots]
    parts += ["U"] * loops
    if flags is not None:
        signs = [f"{i}:{'+' if f == 1 else '-'}" for i, f in enumerate(flags, 1)]
        parts.append(f"O[{','.join(signs)}]")
    return " ".join(parts)


def relabelled_cases():
    """(crossings, slots, loops, flags or None) for each base diagram."""
    rng = random.Random(SEED)
    bases = [oracle.parse_pd(e.pd) for e in load_corpus()]
    bases += [random_planar_two_slot(rng, rng.randint(0, 4)) for _ in range(200)]
    for d in bases:
        labels = sorted({e for t in d.crossings + d.slots for e in t})
        # sparse labels, or 1..n out of first-appearance order, which stay
        pool = range(1, 50 * len(labels) + 2) if rng.random() < 0.7 else labels
        relabel = dict(zip(labels, rng.sample(pool, len(labels))))
        crossings = []
        for t in d.crossings:
            if rng.random() < 0.5:
                t = t[2:] + t[:2]  # the same crossing, read from the other end
            crossings.append(tuple(relabel[e] for e in t))
        slots = [tuple(relabel[e] for e in t) for t in d.slots]
        loops = d.loops + rng.choice((0, 0, 1, 2))
        flags = None
        units = len(oracle.parse_pd(pd_text(crossings, slots, loops))._units)
        if units and rng.random() < 0.5:
            flags = tuple(rng.choice((1, -1)) for _ in range(units))
        yield crossings, slots, loops, flags


CASES = list(relabelled_cases())


def test_cases_cover_every_shape():
    assert len(CASES) >= 200
    assert any(f is not None for *_, f in CASES)
    assert any(s for _, s, _, _ in CASES) and any(loops for _, _, loops, _ in CASES)


def test_parse_and_constructor_match_the_old_path():
    for crossings, slots, loops, flags in CASES:
        text = pd_text(crossings, slots, loops, flags)
        d = parse_pd(text)
        assert fields(d) == fields(oracle.parse_pd(text)), text
        assert LinkDiagram(crossings, slots, loops, flags) == d, text


def test_a_label_used_once_or_three_times_is_refused_on_every_path():
    rng = random.Random(SEED)
    refused = 0
    for crossings, slots, loops, _ in CASES:
        tuples = crossings + slots
        if not tuples:
            continue
        used = sorted({e for t in tuples for e in t})
        # replace one occurrence by a fresh label (two labels then occur once)
        # or by another label of the diagram (one occurs once, one three times)
        for new in (max(used) + 1 + rng.randrange(5), rng.choice(used)):
            i, p = rng.randrange(len(tuples)), rng.randrange(4)
            if tuples[i][p] == new:
                continue
            broken = [list(t) for t in tuples]
            broken[i][p] = new
            bc, bs = broken[: len(crossings)], broken[len(crossings) :]
            for build in (oracle.parse_pd, parse_pd):
                with pytest.raises(PDError):
                    build(pd_text(bc, bs, loops))
            with pytest.raises(PDError):
                LinkDiagram(bc, bs, loops)
            refused += 1
    assert refused >= 400
