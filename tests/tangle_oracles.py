"""Test-only oracles of the tangle layer, kept apart from the library, which
inserts tangles by fraction only: the twist word (a second statement of the
compile recipe, with its own evaluator `word_fraction` and word compiler),
strand tracing, aligned compilations of skein triples, insertion of their
crossings into a slot, the pairwise two-slot scan, the
component-merging skein step, the class-table statements of the
orientation rule that the library's one slot query and one tag table
replaced, and the figure-8 template oriented for a sector, which the library
builds only from its unoriented template and a diagram's flags."""

from dataclasses import dataclass

from tanglekit.certify import ORIENTED, UNORIENTED
from tanglekit.coloring import determinant
from tanglekit.diagram import LinkDiagram, fill_slot
from tanglekit.skein import (
    FareyPair,
    ScanReport,
    TangleTemplate,
    TemplateError,
    figure8_template,
    mediant,
    orientation_compatible,
    reduced_fractions,
    splice,
    zero_locus,
)
from tanglekit.tangle import AB_CD, AC_BD, AD_BC, ANTIPARALLEL, PARALLEL
from tanglekit.tangle import ContinuedFraction, TangleFraction, fraction_to_cf


def farey_neighbor(f: TangleFraction) -> TangleFraction:
    """A canonical reduced f' with |p*q' - q*p'| = 1: the least q' >= 0
    solving p*q' = 1 (mod q), found by the extended Euclidean algorithm."""
    if f.q == 0:
        return TangleFraction(0, 1)
    qq = pow(f.p, -1, f.q) if f.q > 1 else 0
    pp = (f.p * qq - 1) // f.q
    return TangleFraction.make(pp, qq)


# -- the twist word ---------------------------------------------------------------


@dataclass(frozen=True)
class WordTangle:
    """Crossings of a compiled word plus its four boundary edges, named by
    the disk picture: the form the library's compiler returned before a
    tangle became a one-slot diagram."""

    crossings: tuple[tuple[int, int, int, int], ...]
    nw: int
    ne: int
    sw: int
    se: int


def as_diagram(t: WordTangle) -> LinkDiagram:
    """The one-slot diagram of t: seen from outside the disk its corners run
    the other way round, so the slot lists them as T[nw, sw, ne, se]."""
    return LinkDiagram(t.crossings, [(t.nw, t.sw, t.ne, t.se)])


# (start, ops): start 'h' (two horizontal strands) or 'v' (two vertical
# strands); each op ('h', k) adds |k| half-twists on the right, ('v', k)
# stacks |k| half-twists below; the sign is the handedness
Word = tuple[str, tuple[tuple[str, int], ...]]


def cf_to_word(cf: ContinuedFraction) -> Word:
    """Twist word of a continued fraction; crossing count is sum(|a_i|)."""
    first = cf.terms[0]
    ops: list[tuple[str, int]] = []
    if first is None:
        start = "v"
    else:
        start = "h"
        if first != 0:
            ops.append(("h", first))
    for i, a in enumerate(cf.terms[1:], start=2):
        kind = "v" if i % 2 == 0 else "h"
        if a != 0:
            ops.append((kind, a))
    return start, tuple(ops)


def word_fraction(w: Word) -> TangleFraction:
    """Fraction of a word, folded op by op (independent of cf evaluation)."""
    start, ops = w
    p, q = (0, 1) if start == "h" else (1, 0)
    for kind, k in ops:
        if kind == "h":
            p = p + k * q
        else:
            q = q + k * p
    return TangleFraction.make(p, q)


def compile_twist_word(w: Word) -> WordTangle:
    """Compile a word to PD crossings with four boundary stubs, op by op, as
    the library compiled words before it read continued fractions directly."""
    start, ops = w
    crossings: list[tuple[int, int, int, int]] = []
    next_label = 3
    if start == "h":
        nw = ne = 1
        sw = se = 2
    else:
        nw = sw = 1
        ne = se = 2

    for kind, k in ops:
        for _ in range(abs(k)):
            a, b = next_label, next_label + 1
            next_label += 2
            if kind == "h":
                t, u = ne, se  # left-side edges of the new crossing
                if k > 0:
                    crossings.append((t, u, b, a))
                else:
                    crossings.append((u, b, a, t))
                ne, se = a, b
            else:
                l, r = sw, se  # top-side edges of the new crossing
                if k > 0:
                    crossings.append((l, a, b, r))
                else:
                    crossings.append((r, l, a, b))
                sw, se = a, b
    return WordTangle(tuple(crossings), nw, ne, sw, se)


# -- the orientation rule as class tables ----------------------------------------

_PAIRINGS = {AB_CD: ((0, 1), (2, 3)), AC_BD: ((0, 2), (1, 3)), AD_BC: ((0, 3), (1, 2))}


def slot_io(t: TangleTemplate, slot: int) -> tuple[str, str, str, str]:
    """Per-endpoint flow at a slot of an oriented template: 'in' where the
    strand runs into the deleted disk, 'out' where it leaves."""
    if not 0 <= slot < t.slot_count:
        raise TemplateError(f"slot {slot} out of range")
    if not t.diagram.is_oriented:
        raise TemplateError("template is not oriented")
    ins = t.diagram.incoming_positions(len(t.diagram.crossings) + slot)
    return tuple("in" if p in ins else "out" for p in range(4))


def compatible_classes_for_slot(t: TangleTemplate, slot: int) -> frozenset[str]:
    """Connectivity classes whose endpoint pairing joins each entering
    endpoint to a leaving one; exactly two of three for a two-in-two-out slot."""
    io = slot_io(t, slot)
    ok = set()
    for cls, pairs in _PAIRINGS.items():
        if all(io[i] != io[j] for i, j in pairs):
            ok.add(cls)
    return frozenset(ok)


def orientation_class(f: TangleFraction) -> str | None:
    """Strand-orientation constraint for a denominator-odd tangle: even
    numerator forces antiparallel strands, odd forces parallel. Denominator-even
    tangles are unconstrained (None): their strands lie on different components.
    """
    if f.q % 2 == 0:
        return None
    return ANTIPARALLEL if f.p % 2 == 0 else PARALLEL


def compatible_classes(tag: str) -> frozenset[str]:
    """Connectivity classes insertable into the default closure for a given
    relative orientation of its two closure arcs. The a-c/b-d class is
    compatible either way; the other two split between the orientations."""
    if tag == PARALLEL:
        return frozenset((AD_BC, AC_BD))
    if tag == ANTIPARALLEL:
        return frozenset((AB_CD, AC_BD))
    raise ValueError(f"unknown orientation tag: {tag!r}")


# the flags of the figure-8 template's two closure arcs in each sector
FIGURE8_FLAGS = {PARALLEL: (1, 1), ANTIPARALLEL: (1, -1)}


def oriented_figure8(tag: str) -> TangleTemplate:
    """A fresh figure-8 template whose closure arcs run in the tag's sector:
    parallel admits the odd/odd classes, antiparallel the even/odd ones."""
    flags = FIGURE8_FLAGS[tag]
    return TangleTemplate(figure8_template().diagram.with_orientation(flags), (1, 0))


def trace_connectivity(t: LinkDiagram) -> str:
    """Endpoint pairing found by brute-force strand tracing of a compiled
    tangle's crossings; independent of the parity rule."""
    nw, sw, ne, se = t.slots[0]
    parent = {e: e for x in t.crossings for e in x}
    parent.update((e, e) for e in (nw, sw, ne, se))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for a, b, c, d in t.crossings:
        union(a, c)
        union(b, d)
    if find(nw) == find(ne):
        if find(sw) != find(se):
            raise ValueError("compiled tangle does not pair its endpoints")
        return AB_CD
    if find(nw) == find(sw):
        if find(ne) != find(se):
            raise ValueError("compiled tangle does not pair its endpoints")
        return AC_BD
    if find(nw) == find(se):
        return AD_BC
    raise ValueError("compiled tangle does not pair its endpoints")


def insert(t: TangleTemplate, tangle: WordTangle) -> LinkDiagram:
    """Fill the only slot of a one-slot template with a word's crossings."""
    return fill_slot(t.diagram, 0, as_diagram(tangle))


@dataclass(frozen=True)
class AlignedWords:
    """Structurally aligned compilations of a skein triple.

    The resolutions' words share every twist block of the mediant's except
    the innermost one, where the mediant carries k+1 twists, one resolution
    k (res_block) and the other a trivial pass (res_trivial); the
    crossing-change companion is the mediant's compilation with its
    distinguished crossing flipped.
    """

    mediant: WordTangle
    partner_flipped: WordTangle
    distinguished: int
    res_block_fraction: TangleFraction
    res_trivial_fraction: TangleFraction
    partner_fraction: TangleFraction


def _raw_word(terms: tuple[int, ...], parity: str) -> Word:
    ops = []
    kind = parity
    for a in terms:
        if a != 0:
            ops.append((kind, a))
        kind = "v" if kind == "h" else "h"
    return parity, tuple(ops)


def _flip_crossing(t: WordTangle, index: int) -> WordTangle:
    x = t.crossings[index]
    flipped = (x[1], x[2], x[3], x[0])
    crossings = t.crossings[:index] + (flipped,) + t.crossings[index + 1 :]
    return WordTangle(crossings, t.nw, t.ne, t.sw, t.se)


def mediant_words(med: TangleFraction) -> AlignedWords:
    """Aligned compilation of a mediant's canonical skein triple.

    The innermost twist block of the mediant's canonical word has one crossing
    distinguished: undoing it shortens the block (one resolution), capping it
    replaces the block with the trivial pass (the other), and flipping it is
    the crossing change onto the companion."""
    if med.p == 0 or med.q == 0:
        raise ValueError(f"{med} has no twist block to resolve")
    sign = 1 if med.p > 0 else -1
    # innermost block first, signed like med; a leading 1/0 term means the
    # innermost block twists vertically
    cf = fraction_to_cf(med)
    terms, parity = (cf.terms[1:], "v") if cf.terms[0] is None else (cf.terms, "h")
    t1, rest = terms[0], terms[1:]
    flip_parity = "v" if parity == "h" else "h"

    med_compiled = compile_twist_word(cf_to_word(cf))
    # the innermost block is compiled first: its last crossing is |a1| - 1
    distinguished = abs(t1) - 1

    rb_frac = word_fraction(_raw_word((t1 - sign,) + rest, parity))
    rt_frac = word_fraction(_raw_word(rest, flip_parity))
    return AlignedWords(
        mediant=med_compiled,
        partner_flipped=_flip_crossing(med_compiled, distinguished),
        distinguished=distinguished,
        res_block_fraction=rb_frac,
        res_trivial_fraction=rt_frac,
        partner_fraction=TangleFraction.make(
            rb_frac.p - rt_frac.p, rb_frac.q - rt_frac.q
        ),
    )


def aligned_words(pair: FareyPair) -> AlignedWords:
    """Compile a Farey pair's triple so the members differ only in the
    innermost twist block of the mediant's canonical word; the pair must be
    the mediant's canonical parent pair (integer mediants admit one other)."""
    med = mediant(pair)
    if med.p == 0:
        raise ValueError("mediant 0/1 has no twist block to resolve")
    aw = mediant_words(med)
    if {aw.res_block_fraction, aw.res_trivial_fraction} != {pair.f1, pair.f2}:
        raise ValueError(
            f"pair {pair.f1}, {pair.f2} is not the canonical parent pair of {med}"
        )
    return aw


def brute_two_slot_scan(
    t: TangleTemplate, slot1: int, slot2: int, bound: int
) -> ScanReport:
    """two_slot_scan by enumeration: splice every (x, y) pair and take its
    determinant. Independent of the linear model the library's scan reads."""
    if t.slot_count != 2:
        raise TemplateError("scan needs exactly two open slots")
    if slot1 == slot2:
        raise TemplateError("scan slots must differ")
    fractions = reduced_fractions(bound)
    records = []
    inner = slot2 if slot2 < slot1 else slot2 - 1
    for x in fractions:
        filled = splice(t, slot1, x)
        zeros = []
        for y in fractions:
            if determinant(splice(filled, inner, y)) == 0:
                zeros.append(y)
        records.append((x, len(zeros), tuple(zeros)))
    return ScanReport(bound, tuple(records))


@dataclass(frozen=True)
class MergingTriple:
    """A component-merging skein triple: the input f, its companions C_m
    (f2) and C_{m+1} (mediant), and, for the oriented kind, the crossing
    change C_{m-1} (partner) and the resolution, which is f itself."""

    kind: str
    f1: TangleFraction
    f2: TangleFraction
    mediant: TangleFraction
    partner: TangleFraction | None = None
    resolution: TangleFraction | None = None


def component_reduction_step(
    t: TangleTemplate, slot: int, f: TangleFraction, m: int = 0
) -> MergingTriple:
    """The merging triple (f, C_m, C_{m+1}) with C_m = (p'+mp)/(q'+mq) for a
    canonical neighbor p'/q', taking the least m >= the given one for which
    both companions miss the zero locus; the three endpoint pairings are
    pairwise distinct, so the companions really merge components.
    """
    zl = zero_locus(t)
    nb = farey_neighbor(f)

    oriented = t.diagram.is_oriented
    if oriented and not orientation_compatible(t, slot, f):
        raise TemplateError(f"{f} is not orientation compatible at slot {slot}")

    def companion(mm: int) -> TangleFraction:
        return TangleFraction.make(nb.p + mm * f.p, nb.q + mm * f.q)

    mm = m
    while True:
        c_m, c_m1 = companion(mm), companion(mm + 1)
        ok = c_m != zl and c_m1 != zl
        if ok and oriented:
            # the resolution of the merging triple must be f itself
            ok = not orientation_compatible(t, slot, c_m) and companion(mm - 1) != zl
        if ok:
            break
        mm += 1
    if not oriented:
        return MergingTriple(UNORIENTED, f, c_m, c_m1)
    return MergingTriple(
        ORIENTED, f, c_m, mediant=c_m1, partner=companion(mm - 1), resolution=f
    )
