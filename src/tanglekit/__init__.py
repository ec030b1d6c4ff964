"""Exact link-determinant and rational-tangle calculus with skein-derivation
certificates.

The package computes with planar diagram (PD) codes and exact integer
arithmetic throughout: Fox coloring matrices and link determinants, rational
tangles named by fractions in Q plus 1/0, mediant skein triples, linear
determinant models of tangle templates, and generation plus independent
verification of the certificates deriving nonzero-determinant closures from
unknot (and, in the oriented case, Hopf) bases.

Importing the package loads none of its submodules: a public name is looked
up in its submodule on each access (PEP 562), so a process that only needs
determinants never loads the certificate code. A submodule already loaded is
read from `sys.modules`; the import machinery runs only for the first access.
Names are not copied into the package namespace, so rebinding a submodule
attribute reaches every caller.
"""

import sys
from importlib import import_module

_SUBMODULE_NAMES = {
    "certify": (
        "Certificate",
        "CertificateError",
        "OrientedTarget",
        "Verdict",
        "certificate_from_json",
        "certificate_to_json",
        "load_certificate",
        "oriented_span_certificate",
        "save_certificate",
        "span_certificate",
        "verify_certificate",
    ),
    "coloring": ("coloring_matrix", "determinant", "n_colorable"),
    "corpus": ("CorpusEntry", "bundled_templates", "load_corpus"),
    "diagram": (
        "LinkDiagram",
        "PDError",
        "components",
        "connected_sum",
        "crossing_change",
        "disjoint_union",
        "fill_slot",
        "is_planar",
        "oriented_resolve",
        "parse_pd",
        "pd_string",
        "resolve",
    ),
    "skein": (
        "FareyPair",
        "ScanReport",
        "TangleTemplate",
        "TemplateError",
        "figure8_template",
        "fit_coefficients",
        "insertion_det",
        "mediant",
        "orientation_compatible",
        "partner",
        "reduced_fractions",
        "splice",
        "two_slot_scan",
        "zero_locus",
    ),
    "tangle": (
        "ANTIPARALLEL",
        "PARALLEL",
        "ContinuedFraction",
        "TangleFraction",
        "cf_to_fraction",
        "compile_word",
        "connectivity",
        "fraction_to_cf",
    ),
}
# public name -> the submodule defining it
_HOME = {name: mod for mod, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _HOME.get(name)
    if mod is not None:
        module = sys.modules.get(f"{__name__}.{mod}")
        if module is None:
            module = import_module(f".{mod}", __name__)
        return getattr(module, name)
    if name in _SUBMODULE_NAMES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    dunders = [n for n in globals() if n.startswith("__") and n.endswith("__")]
    return sorted({*dunders, *_HOME, *_SUBMODULE_NAMES} - {"__getattr__", "__dir__"})
