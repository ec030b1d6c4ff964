"""Exact link-determinant and rational-tangle calculus with skein-derivation
certificates.

The package computes with planar diagram (PD) codes and exact integer
arithmetic throughout: Fox coloring matrices and link determinants, rational
tangles named by fractions in Q plus 1/0, mediant skein triples, linear
determinant models of tangle templates, and generation plus independent
verification of the certificates deriving nonzero-determinant closures from
unknot (and, in the oriented case, Hopf) bases.
"""

from .certify import (
    Certificate,
    CertificateError,
    CertNode,
    OrientedTarget,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    connected_sum_certificate,
    load_certificate,
    oriented_span_certificate,
    save_certificate,
    span_certificate,
    verify_certificate,
)
from .coloring import ColoringMatrix, coloring_matrix, determinant, n_colorable
from .corpus import CorpusEntry, bundled_templates, load_corpus
from .diagram import (
    CrossingSite,
    LinkDiagram,
    PDError,
    components,
    connected_sum,
    crossing_change,
    disjoint_union,
    fill_slot,
    is_planar,
    oriented_resolve,
    parse_pd,
    pd_string,
    resolve,
)
from .skein import (
    FareyPair,
    ScanReport,
    SkeinTriple,
    TangleTemplate,
    TemplateError,
    farey_neighbor,
    figure8_template,
    fit_coefficients,
    insertion_det,
    mediant,
    oriented_triple,
    orientation_compatible,
    partner,
    reduced_fractions,
    splice,
    two_slot_scan,
    unoriented_triple,
    zero_locus,
)
from .tangle import (
    ANTIPARALLEL,
    PARALLEL,
    CompiledTangle,
    ContinuedFraction,
    TangleFraction,
    TangleWord,
    cf_to_fraction,
    cf_to_word,
    compile_word,
    connectivity,
    fraction_to_cf,
    fraction_word,
    orientation_class,
)

__version__ = "0.1.0"
