"""Exact rational-tangle calculus.

A rational tangle is named by a reduced fraction p/q in Q+ = Q ∪ {1/0}. The
continued-fraction form (a1, ..., an), n odd, is the recipe that
`compile_word` builds the tangle from, twist block by twist block: a1 is the
innermost block, blocks alternate horizontal/vertical, and the value is
an + 1/(a_{n-1} + 1/(... + 1/a1)). a1 may be infinite (the vertical trivial
tangle) and an may be 0; interior terms are nonzero.

Endpoint labels follow the fixed disk picture: a = top-left (NW), b = top-right
(NE), c = bottom-left (SW), d = bottom-right (SE). The horizontal trivial
tangle 0/1 joins a-b and c-d; the vertical trivial tangle 1/0 joins a-c and
b-d. Negative twists are crossing-wise mirrors of positive ones.

A compiled tangle is a one-slot `LinkDiagram` whose slot is the rest of the
plane, its boundary seen from outside the disk: T[nw, sw, ne, se]. Seen from
there the corners run the other way round, so NE and SW trade places, and
the slot reads as any diagram's slot does.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd

from ._record import _Record

__all__ = [
    "TangleFraction",
    "ContinuedFraction",
    "cf_to_fraction",
    "fraction_to_cf",
    "compile_word",
    "connectivity",
    "PARALLEL",
    "ANTIPARALLEL",
    "AB_CD",
    "AC_BD",
    "AD_BC",
]

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"

# Connectivity classes, keyed by (p mod 2, q mod 2).
AB_CD = "AB|CD"
AC_BD = "AC|BD"
AD_BC = "AD|BC"

_CLASS_BY_PARITY = {(0, 1): AB_CD, (1, 0): AC_BD, (1, 1): AD_BC}


@total_ordering
class TangleFraction(_Record):
    """A reduced element of Q+ : q >= 0, gcd(|p|, q) = 1, infinity stored as 1/0."""

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if type(p) is not int or type(q) is not int:  # a bool is an int, too
            raise ValueError("fraction terms must be integers")
        if q < 0:
            raise ValueError("denominator must be >= 0 after normalization")
        if q == 0 and p != 1:
            raise ValueError("infinity must be normalized to 1/0")
        if gcd(abs(p), q) != 1:
            raise ValueError(f"fraction {p}/{q} is not reduced")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.q) < (other.p, other.q)

    @staticmethod
    def make(p: int, q: int) -> "TangleFraction":
        """Normalize an arbitrary integer pair: sign into p, q >= 0, reduced."""
        if type(p) is not int or type(q) is not int:
            raise ValueError("fraction terms must be integers")
        if p == 0 and q == 0:
            raise ValueError("0/0 is not an element of Q+")
        if q == 0:
            return TangleFraction(1, 0)
        if q < 0:
            p, q = -p, -q
        g = gcd(abs(p), q)
        return TangleFraction(p // g, q // g)

    @staticmethod
    def parse(text: str) -> "TangleFraction":
        s = text.strip()
        if "/" in s:
            num, _, den = s.partition("/")
            return TangleFraction.make(int(num), int(den))
        return TangleFraction.make(int(s), 1)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def parity(self) -> tuple[int, int]:
        return (self.p % 2, self.q % 2)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class ContinuedFraction(_Record):
    """Odd-length tangle continued fraction; terms[0] may be None, meaning 1/0."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[int | None, ...]) -> None:
        if len(terms) == 0 or len(terms) % 2 == 0:
            raise ValueError("continued fraction must have odd positive length")
        for i, a in enumerate(terms):
            if a is None:
                if i != 0:
                    raise ValueError("infinite term allowed only in the first slot")
            elif type(a) is not int:  # a bool would compile as one crossing
                raise ValueError("terms must be integers (or None first)")
        if len(terms) > 1 and terms[0] == 0:
            raise ValueError("leading term must be nonzero or infinite")
        for a in terms[1:-1]:
            if a == 0:
                raise ValueError("interior terms must be nonzero")
        _Record.__init__(self, terms)

    def __str__(self) -> str:
        return "(" + ",".join("inf" if a is None else str(a) for a in self.terms) + ")"

    @staticmethod
    def parse(text: str) -> "ContinuedFraction":
        s = text.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty continued fraction")
        terms: list[int | None] = []
        for i, p in enumerate(parts):
            if p.lower() in ("inf", "infinity", "1/0"):
                if i != 0:
                    raise ValueError("infinite term allowed only first")
                terms.append(None)
            else:
                try:
                    terms.append(int(p))
                except ValueError:
                    raise ValueError(
                        f"continued fraction term {p!r} is not an integer"
                    ) from None
        return ContinuedFraction(tuple(terms))


def cf_to_fraction(cf: ContinuedFraction) -> TangleFraction:
    """Evaluate a continued fraction exactly in Q+.

    Equivalent to the 2x2 integer matrix product over the twist terms applied
    to the innermost tangle's vector.
    """
    first = cf.terms[0]
    if first is None:
        p, q = 1, 0
    else:
        p, q = first, 1
    for i, a in enumerate(cf.terms[1:], start=2):
        if i % 2 == 0:  # vertical block: p/q -> p/(a p + q)
            q = a * p + q
        else:  # horizontal block: p/q -> (p + a q)/q
            p = p + a * q
    return TangleFraction.make(p, q)


def fraction_to_cf(f: TangleFraction) -> ContinuedFraction:
    """Canonical odd-length continued fraction of a reduced fraction.

    Euclidean expansion of |f| with positive terms, innermost term first; an
    infinite term is prepended when needed to make the length odd. Negative
    fractions negate every finite term (mirror).
    """
    if f.is_infinity:
        return ContinuedFraction((None,))
    if f.p == 0:
        return ContinuedFraction((0,))
    sign = 1 if f.p > 0 else -1
    p, q = abs(f.p), f.q
    quotients: list[int] = []  # standard cf of p/q, outermost first
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    terms: list[int | None] = [sign * a for a in reversed(quotients)]
    if len(terms) % 2 == 0:
        terms = [None] + terms
    return ContinuedFraction(tuple(terms))


def compile_word(cf: ContinuedFraction):
    """Compile a continued fraction to a one-slot `LinkDiagram`: its crossings
    and the slot T[nw, sw, ne, se] (see the module docstring).

    The term at index i (from 0) adds |a_i| half-twists: on the right
    (horizontal) for even i, stacked below (vertical) for odd i. An infinite
    first term starts from the vertical trivial tangle, any other from the
    horizontal one, so the crossing count is the sum of |a_i|. Positive
    horizontal twists make the SW-NE strand pass over; positive vertical
    twists are the same crossing read sideways. Fresh edge labels are issued
    left to right, top to bottom, so the labels are 1..n and each crossing
    starts with an older label than its third entry: the diagram keeps the
    crossings as built, with no renumbering or rotation.
    """
    from .diagram import LinkDiagram  # the tangle verb loads this module only

    crossings: list[tuple[int, int, int, int]] = []
    next_label = 3
    terms = cf.terms
    if terms[0] is None:
        nw = sw = 1
        ne = se = 2
        terms = (0,) + terms[1:]  # the infinite term adds no twist
    else:
        nw = ne = 1
        sw = se = 2

    for i, k in enumerate(terms):
        for _ in range(abs(k)):
            a, b = next_label, next_label + 1
            next_label += 2
            if i % 2 == 0:
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
    return LinkDiagram(crossings, [(nw, sw, ne, se)])


def connectivity(f: TangleFraction) -> str:
    """Endpoint pairing of the tangle p/q, read off the numerator/denominator
    parities: (0,1) joins a-b|c-d, (1,0) joins a-c|b-d, (1,1) joins a-d|b-c."""
    return _CLASS_BY_PARITY[f.parity()]
