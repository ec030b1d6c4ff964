"""Mediant engine for skein triples and the linear determinant model.

A Farey pair is two reduced fractions a/b, c/d with |ad - bc| = 1; together
with their mediant (a+c)/(b+d) they form an unoriented skein triple, and the
mediant differs from (a-c)/(b-d) by a single crossing change. A template is a
diagram with tangle slots; a one-slot template has integers (a, b) with
det(splice(p/q)) = |b*p - a*q| for every insertion, so at most one insertion
can have determinant zero.

An oriented template admits at a slot only the insertions whose endpoint
pairing suits the strand directions there. `orientation_compatible` is this
layer's one statement of that rule: `splice` refuses what it refuses, and an
oriented skein triple's resolution is the pair member it admits.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ._record import _Record
from .coloring import determinant
from .diagram import LinkDiagram, fill_slot, is_planar, parse_pd
from .tangle import (
    AB_CD,
    AC_BD,
    AD_BC,
    ANTIPARALLEL,
    PARALLEL,
    CompiledTangle,
    TangleFraction,
    compile_word,
    connectivity,
    fraction_to_cf,
)

__all__ = [
    "FareyPair",
    "TangleTemplate",
    "TemplateError",
    "mediant",
    "partner",
    "splice",
    "orientation_compatible",
    "fit_coefficients",
    "zero_locus",
    "insertion_det",
    "two_slot_scan",
    "ScanReport",
    "MAX_SCAN_BOUND",
    "figure8_template",
    "reduced_fractions",
]


class TemplateError(ValueError):
    """Template lacking the structure an operation needs."""


class FareyPair(_Record):
    __slots__ = _fields = ("f1", "f2")

    def __init__(self, f1: TangleFraction, f2: TangleFraction) -> None:
        if abs(f1.p * f2.q - f1.q * f2.p) != 1:
            raise ValueError(f"{f1} and {f2} are not Farey neighbors")
        _Record.__init__(self, f1, f2)


class TangleTemplate(_Record):
    """A diagram with open slots; a one-slot template may carry its fitted
    determinant model (a, b). A model of one slot among several would depend
    on what fills the others, so only a one-slot template has one."""

    __slots__ = _fields = ("diagram", "coeffs")

    def __init__(
        self, diagram: LinkDiagram, coeffs: tuple[int, int] | None = None
    ) -> None:
        if not diagram.slots:
            raise TemplateError("template diagram has no slots")
        if coeffs is not None and (
            type(coeffs) is not tuple
            or (len(diagram.slots), *map(type, coeffs)) != (1, int, int)
        ):
            raise TemplateError("a model is a pair of integers on a one-slot template")
        _Record.__init__(self, diagram, coeffs)

    @property
    def slot_count(self) -> int:
        return len(self.diagram.slots)

    def oriented(self, flags: tuple[int, ...]) -> "TangleTemplate":
        return TangleTemplate(self.diagram.with_orientation(flags), self.coeffs)


def mediant(pair: FareyPair) -> TangleFraction:
    """(a+c)/(b+d); automatically reduced for Farey neighbors."""
    return TangleFraction.make(pair.f1.p + pair.f2.p, pair.f1.q + pair.f2.q)


def partner(pair: FareyPair) -> TangleFraction:
    """(a-c)/(b-d), the crossing-change companion of the mediant."""
    return TangleFraction.make(pair.f1.p - pair.f2.p, pair.f1.q - pair.f2.q)


# -- splicing ----------------------------------------------------------------


def _check_slot(t: TangleTemplate, slot: int) -> None:
    if type(slot) is not int:  # True and 1.0 would name slot 1
        raise TemplateError(f"slot must be an int, not {type(slot).__name__}")
    if not 0 <= slot < t.slot_count:
        raise TemplateError(f"slot {slot} out of range")


@lru_cache(maxsize=256)
def _compiled(f: TangleFraction) -> CompiledTangle:
    """The crossings and stubs of f's standard tangle. A fit splices the same
    eight fractions into every template, and a scan splices only those, so
    each is compiled once; the result is immutable."""
    return compile_word(fraction_to_cf(f))


def splice(t: TangleTemplate, slot: int, f: TangleFraction):
    """Insert the rational tangle f into a slot.

    Returns a plain LinkDiagram once every slot is filled, otherwise a
    TangleTemplate with the remaining slots. Oriented templates reject
    insertions whose endpoint pairing fights the strand directions.
    """
    _check_slot(t, slot)
    if not isinstance(f, TangleFraction):
        raise TypeError(f"splice takes a TangleFraction, not {type(f).__name__}")
    if t.diagram.is_oriented and not orientation_compatible(t, slot, f):
        raise TemplateError(
            f"tangle {f} is not orientation compatible with slot {slot}"
        )
    compiled = _compiled(f)
    out = fill_slot(t.diagram, slot, compiled.crossings, compiled.stubs)
    if out.slots:
        return TangleTemplate(out)
    return out


# -- orientation at a slot -----------------------------------------------------

_PAIRINGS = {AB_CD: ((0, 1), (2, 3)), AC_BD: ((0, 2), (1, 3)), AD_BC: ((0, 3), (1, 2))}


def orientation_compatible(t: TangleTemplate, slot: int, f: TangleFraction) -> bool:
    """Whether f's endpoint pairing joins each endpoint where a strand runs
    into the slot's disk to one where a strand leaves it: the rule that picks
    an oriented skein triple's resolution. Two of the three pairings pass at
    a slot with two strands in and two out."""
    _check_slot(t, slot)
    if not t.diagram.is_oriented:
        raise TemplateError("template is not oriented")
    ins = t.diagram.incoming_positions(len(t.diagram.crossings) + slot)
    return all((i in ins) != (j in ins) for i, j in _PAIRINGS[connectivity(f)])


# -- determinant model ---------------------------------------------------------


# The three probes of a fit, built once: a scan also fills its first slot
# with each of them and fits the three templates that leaves.
_ZERO = TangleFraction(0, 1)
_INFINITY = TangleFraction(1, 0)
_ONE = TangleFraction(1, 1)

# Fractions a fitted model is checked against after the three probes; the
# negative ones catch diagrams whose model fails only at negative insertions.
_FIT_VALIDATION = (
    TangleFraction(1, 2),
    TangleFraction(2, 1),
    TangleFraction(1, 3),
    TangleFraction(-1, 2),
    TangleFraction(-1, 1),
)


def fit_coefficients(t: TangleTemplate) -> tuple[int, int]:
    """Integers (a, b) with det(splice(p/q)) = |b*p - a*q|.

    Probed at 0/1, 1/0 and 1/1 (the third probe resolves the relative sign),
    then validated against 1/2, 2/1, 1/3, -1/2 and -1/1; a mismatch means the
    slot does not obey the linear model (a splicing bug, or a diagram that is
    not planar).
    """
    if t.slot_count != 1:
        raise TemplateError("fit one slot at a time: fill the others first")
    if t.diagram.is_oriented:
        t = TangleTemplate(t.diagram.with_orientation(None))

    def det_at(f: TangleFraction) -> int:
        return determinant(splice(t, 0, f))

    det_a = det_at(_ZERO)
    det_b = det_at(_INFINITY)
    det_c = det_at(_ONE)
    if abs(det_b - det_a) == det_c:
        a, b = det_a, det_b
    elif det_a + det_b == det_c:
        a, b = -det_a, det_b
    else:
        raise TemplateError(
            f"no linear model fits probes ({det_a}, {det_b}, {det_c})"
        )
    for f in _FIT_VALIDATION:
        got = det_at(f)
        want = abs(b * f.p - a * f.q)
        if got != want:
            raise TemplateError(
                f"linear model (a={a}, b={b}) fails at {f}: {got} != {want}"
            )
    return (a, b)


def zero_locus(t: TangleTemplate) -> TangleFraction:
    """The unique insertion with determinant zero: the reduced a/b."""
    if t.coeffs is None:
        raise TemplateError("slot coefficients not fitted")
    a, b = t.coeffs
    if a == 0 and b == 0:
        raise TemplateError(
            "every insertion has determinant zero: invalid template"
        )
    return TangleFraction.make(a, b)


def insertion_det(t: TangleTemplate, f: TangleFraction) -> int:
    """|b*p - a*q| from fitted coefficients (no splicing)."""
    if t.coeffs is None:
        raise TemplateError("slot coefficients not fitted")
    a, b = t.coeffs
    return abs(b * f.p - a * f.q)


def reduced_fractions(bound: int) -> list[TangleFraction]:
    """All reduced p/q with |p| <= bound and q <= bound, including 1/0."""
    if type(bound) is not int:  # True would list bound 1's fractions
        raise ValueError(f"bound must be an int, not {type(bound).__name__}")
    out = []
    if bound >= 1:
        out.append(TangleFraction(1, 0))
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                out.append(TangleFraction(p, q))
    return out


class ScanReport(_Record):
    """Per-x zero-determinant companions of a two-slot template."""

    __slots__ = _fields = ("bound", "records")

    @property
    def max_zero_count(self) -> int:
        return max((r[1] for r in self.records), default=0)

    def lines(self) -> list[str]:
        return [
            f"{x} | {count} | {' '.join(str(w) for w in witnesses)}".rstrip()
            for x, count, witnesses in self.records
        ]


# Largest bound two_slot_scan accepts. The scan itself costs a fixed number
# of determinants; its report grows with the square of the bound, and with the
# fourth power for a template whose every insertion pair has determinant zero
# (a split one such as T[1,2,1,2] T[3,4,3,4], whose report at 30 is 7 MB).
MAX_SCAN_BOUND = 30


def two_slot_scan(
    t: TangleTemplate, slot1: int, slot2: int, bound: int
) -> ScanReport:
    """Count, for each first-slot insertion x, the second-slot insertions y
    giving determinant zero; at most one y can exist for each x.

    Filling slot1 with x = p/q leaves a one-slot template whose fitted model
    is, up to sign, p*L(1/0) + s*q*L(0/1) for one sign s, where L(x) is that
    template's fit. By the linear determinant model this bilinear form holds
    on every planar template, so it is read off three fits, at 1/0, 0/1 and
    1/1 (the last picks s), and not checked at further fractions; other
    templates are refused. Then the zero of each x is read off its (a, b):
    the reduced a/b when it is within the bound, or every fraction when
    (a, b) = (0, 0).
    """
    if t.slot_count != 2:
        raise TemplateError("scan needs exactly two open slots")
    if type(slot1) is not int or type(slot2) is not int:
        raise TemplateError(
            f"scan slots must be ints, not {type(slot1).__name__} and "
            f"{type(slot2).__name__}"
        )
    if {slot1, slot2} != {0, 1}:
        raise TemplateError(f"scan slots must be 0 and 1, not {slot1} and {slot2}")
    if t.diagram.is_oriented:
        raise TemplateError("scan needs an unoriented template")
    if not is_planar(t.diagram):
        # the linear form can hold at every fit's validation fractions and
        # still miss zeros elsewhere on a diagram that is not planar
        raise TemplateError("scan needs a planar template")
    if type(bound) is not int:
        raise TemplateError(f"scan bound must be an int, not {type(bound).__name__}")
    if bound < 0:
        raise TemplateError(f"scan bound {bound} is negative")
    if bound > MAX_SCAN_BOUND:
        raise TemplateError(f"scan bound {bound} exceeds {MAX_SCAN_BOUND}")
    fractions = reduced_fractions(bound)
    if not fractions:
        return ScanReport(bound, ())

    def fit_at(x: TangleFraction) -> tuple[int, int]:
        return fit_coefficients(splice(t, slot1, x))

    a_inf, b_inf = fit_at(_INFINITY)
    a_zero, b_zero = fit_at(_ZERO)

    def form(s: int, p: int, q: int) -> tuple[int, int]:
        return (p * a_inf + s * q * a_zero, p * b_inf + s * q * b_zero)

    def agrees(ab: tuple[int, int], fit: tuple[int, int]) -> bool:
        return ab == fit or ab == (-fit[0], -fit[1])

    l_one = fit_at(_ONE)
    signs = [s for s in (1, -1) if agrees(form(s, 1, 1), l_one)]
    if not signs:
        raise TemplateError(
            f"no sign joins the slot-{slot1} fits at 1/0 and 0/1 into the fit "
            f"{l_one} at 1/1"
        )
    s = signs[0]

    every = tuple(fractions)
    records = []
    for x in fractions:
        a, b = form(s, x.p, x.q)
        if a == 0 and b == 0:
            records.append((x, len(every), every))
            continue
        y = TangleFraction.make(a, b)
        if y.q == 0 or (abs(y.p) <= bound and y.q <= bound):
            records.append((x, 1, (y,)))
        else:
            records.append((x, 0, ()))
    return ScanReport(bound, tuple(records))


# -- stock templates -----------------------------------------------------------


def figure8_template(tag: str | None = None) -> TangleTemplate:
    """The minimal one-slot closure: both left endpoints joined by one arc,
    both right endpoints by the other, so 0/1 closes to the unknot and 1/0
    to a split pair of circles. Fitted model: determinant |q|, zero locus 1/0.

    `tag` orients the two closure arcs: 'parallel' admits the odd/odd classes,
    'antiparallel' the even/odd ones; denominator-even insertions work either
    way.
    """
    t = TangleTemplate(parse_pd("T[1,2,1,2]"), (1, 0))
    if tag is None:
        return t
    if tag == PARALLEL:
        return t.oriented((1, 1))
    if tag == ANTIPARALLEL:
        return t.oriented((1, -1))
    raise ValueError(f"unknown orientation tag {tag!r}")
