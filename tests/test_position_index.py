"""The position index against the occurrence index it replaced.

`diagram_oracle` keeps the library's tracing, orientation transport,
planarity test and connected sum as they were written on (kind, index,
position) occurrence triples. Library positions 4v + i are converted to those
triples, and both must agree on the corpus, on seeded random perfect matchings
(1-12 crossings; 0-5 crossings plus 1-2 slots), which are mostly not planar,
on random planar two-slot diagrams, and on oriented `crossing_change`,
`oriented_resolve` and splices into every orientation of every stock
template.
"""

import random
from itertools import product

import diagram_oracle as oracle
import pytest
from test_skein import random_planar_two_slot

from tanglekit.corpus import bundled_templates, load_corpus
from tanglekit.diagram import (
    LinkDiagram,
    PDError,
    components,
    connected_sum,
    crossing_change,
    fill_slot,
    is_planar,
    oriented_resolve,
)
from tanglekit.skein import reduced_fractions
from tanglekit.tangle import compile_word, fraction_to_cf

SEED = 18


def triple(d: LinkDiagram, q: int) -> tuple[int, int, int]:
    v, p = divmod(q, 4)
    k = len(d.crossings)
    return (0, v, p) if v < k else (1, v - k, p)


def matching(rng: random.Random, crossings: int, slots: int) -> LinkDiagram:
    """A random perfect matching of the 4 (crossings + slots) positions,
    labelled pair by pair."""
    n = 4 * (crossings + slots)
    ends = list(range(n))
    rng.shuffle(ends)
    flat = [0] * n
    for i in range(0, n, 2):
        flat[ends[i]] = flat[ends[i + 1]] = i // 2 + 1
    tuples = [tuple(flat[i : i + 4]) for i in range(0, n, 4)]
    return LinkDiagram(tuples[:crossings], tuples[crossings:])


def diagrams() -> list[LinkDiagram]:
    rng = random.Random(SEED)
    out = [e.diagram() for e in load_corpus()]
    out += [t.diagram for t in bundled_templates().values()]
    out += [matching(rng, k, 0) for k in range(1, 13) for _ in range(10)]
    out += [
        matching(rng, k, s) for k in range(6) for s in (1, 2) for _ in range(10)
    ]
    out += [random_planar_two_slot(rng, rng.randint(0, 4)) for _ in range(40)]
    return out


DIAGRAMS = diagrams()


def outcome(f, *args):
    """f(*args), or the type and message of the PDError it raises."""
    try:
        return f(*args)
    except PDError as e:
        return PDError, str(e)


def test_cases_cover_planar_and_not_with_and_without_slots():
    planar = [oracle.is_planar(d) for d in DIAGRAMS]
    assert sum(planar) >= 80 and len(planar) - sum(planar) >= 150
    assert sum(1 for d in DIAGRAMS if d.slots and not oracle.is_planar(d)) >= 60


def test_index_pairs_each_position_with_the_other_end_of_its_label():
    for d in DIAGRAMS:
        labels, first, mate = d._index
        assert labels == [e for t in d.crossings + d.slots for e in t]
        for q, e in enumerate(labels):
            assert mate[q] != q and mate[mate[q]] == q and labels[mate[q]] == e
            assert first[e] == min(q, mate[q])


def test_traced_units_match():
    for d in DIAGRAMS:
        got = [[(e, triple(d, f), triple(d, t)) for e, f, t in u] for u in d._units]
        assert got == oracle.units(d), d
        if not d.slots:
            assert components(d) == len(oracle.units(d)) + d.loops


def test_planarity_matches():
    for d in DIAGRAMS:
        assert is_planar(d) == oracle.is_planar(d), d


def test_connected_sums_match():
    rng = random.Random(SEED)
    tied = [d for d in DIAGRAMS if d.arc_count]  # a bare unknot returns the other
    for d1, d2 in zip(tied, tied[1:] + tied[:1]):
        for _ in range(3):
            a1, a2 = rng.randint(1, d1.arc_count), rng.randint(1, d2.arc_count)
            assert connected_sum(d1, a1, d2, a2) == oracle.connected_sum(d1, a1, d2, a2)


def oriented(rng: random.Random, d: LinkDiagram) -> list[LinkDiagram]:
    """Every orientation of d when it has at most three units, else two
    random ones."""
    n = len(d._units)
    flags = list(product((1, -1), repeat=n)) if n <= 3 else [
        tuple(rng.choice((1, -1)) for _ in range(n)) for _ in range(2)
    ]
    return [d.with_orientation(f) for f in flags]


def test_directions_and_crossing_surgery_match():
    rng = random.Random(SEED)
    checked = 0
    for d in DIAGRAMS:
        if not d._units:
            continue
        for od in oriented(rng, d):
            # each edge has two positions, so its head places its tail too
            heads = {h for _, h in oracle.edge_directions(od).values()}
            assert {triple(od, q) for q in od._heads()} == heads
            k = len(od.crossings)
            for v in range(k + len(od.slots)):
                kind, i = (0, v) if v < k else (1, v - k)
                assert od.incoming_positions(v) == oracle.incoming(od, kind, i)
            for i in range(k):
                want = outcome(oracle.crossing_change, od, i)
                assert outcome(crossing_change, od, i) == want
                want = outcome(oracle.oriented_resolve, od, i)
                assert outcome(oriented_resolve, od, i) == want
                checked += 1
    assert checked >= 2000


def test_splices_into_every_orientation_of_every_stock_template_match():
    compiled = [compile_word(fraction_to_cf(f)) for f in reduced_fractions(3)]
    filled = refused = 0
    for name, t in sorted(bundled_templates().items()):
        d = t.diagram
        for flags in product((1, -1), repeat=len(d._units)):
            od = d.with_orientation(flags)
            for slot in range(len(od.slots)):
                v = len(od.crossings) + slot
                assert od.incoming_positions(v) == oracle.incoming(od, 1, slot)
                for c in compiled:
                    got = outcome(fill_slot, od, slot, c)
                    want = outcome(oracle.fill_slot, od, slot, c)
                    assert got == want, (name, flags, slot, c)
                    if isinstance(got, LinkDiagram):
                        filled += 1
                        assert is_planar(got) == oracle.is_planar(got)
                    else:
                        refused += 1
    assert filled >= 200 and refused >= 100


@pytest.mark.parametrize("v", [-1, -5, 4, 7])
def test_incoming_positions_refuses_a_tuple_out_of_range(v):
    d = bundled_templates()["trefoil_sum"].diagram.with_orientation((1, 1))
    with pytest.raises(PDError, match="out of range"):
        d.incoming_positions(v)
