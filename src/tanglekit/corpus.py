"""Bundled diagram corpus and stock templates.

The manifest is line-oriented: `name | pdcode | components | determinant`,
one record per line, `#` comments allowed. The bundled file covers the prime
knots through eight crossings plus standard links, unlinks, disjoint unions
and connected sums; the recorded values were computed by an independent
minor/nullspace brute force when the file was generated and are re-derived by
the test suite.
"""

from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING

from ._record import _Record
from .diagram import LinkDiagram, parse_pd

if TYPE_CHECKING:  # the skein layer loads only when templates are asked for
    from .skein import TangleTemplate

__all__ = ["CorpusEntry", "load_corpus", "bundled_templates"]


class CorpusEntry(_Record):
    __slots__ = _fields = ("name", "pd", "components", "determinant")

    def diagram(self) -> LinkDiagram:
        return parse_pd(self.pd)


def parse_manifest(text: str) -> tuple[CorpusEntry, ...]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise ValueError(f"manifest line {lineno}: expected 4 fields")
        name, pd, comp, det = parts
        entries.append(CorpusEntry(name, pd, int(comp), int(det)))
    return tuple(entries)


def load_corpus(path: str | None = None) -> tuple[CorpusEntry, ...]:
    """The manifest at path, or the bundled one."""
    if path is None:
        bundled = resources.files("tanglekit").joinpath("data/corpus.txt")
        return parse_manifest(bundled.read_text("utf-8"))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def bundled_templates() -> dict[str, TangleTemplate]:
    """Stock templates; single-slot ones carry verified fitted coefficients.

    figure8      det |q|, zero locus 1/0 (the default certificate ambient)
    twist        one extra crossing around the slot; det |p + q|, zero at -1/1
    trefoil_sum  figure8 with a trefoil summand; det 3|q|
    necklace2    two slots side by side (closure of a tangle sum)
    stack2       two slots stacked (closure of a tangle product)
    """
    from .diagram import connected_sum
    from .skein import TangleTemplate, figure8_template

    trefoil = parse_pd("X[1,2,3,4] X[2,5,6,3] X[4,6,5,1]")
    tref_sum = connected_sum(parse_pd("T[1,2,1,2]"), 1, trefoil, 1)
    return {
        "figure8": figure8_template(),
        "twist": TangleTemplate(parse_pd("X[2,4,3,1] T[1,2,3,4]"), (-1, 1)),
        "trefoil_sum": TangleTemplate(tref_sum, (3, 0)),
        "necklace2": TangleTemplate(parse_pd("T[1,2,3,4] T[2,1,4,3]")),
        "stack2": TangleTemplate(parse_pd("T[1,2,3,4] T[3,4,1,2]")),
    }
