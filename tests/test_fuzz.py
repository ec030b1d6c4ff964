"""Seeded fuzz of the library API.

Every public function and validating constructor is called with arguments of
the right type but wrong content: fractions on a zero locus, diagrams with
slots where a closure is wanted, templates without a model or with one that
does not fit, forged certificates, malformed files. Each call must return or
raise a ValueError subclass (PDError, TemplateError, CertificateError, or
ValueError itself, json's and the UTF-8 codec's errors included).

Integers are drawn with |n| <= 40. `compile_word` builds one crossing per
half-twist, so a fraction such as 2**70/1 is unbounded work, not a fault.
"""

import copy
import json
import random

import pytest

import tanglekit
from tanglekit import (
    ANTIPARALLEL,
    PARALLEL,
    ContinuedFraction,
    FareyPair,
    LinkDiagram,
    OrientedTarget,
    TangleFraction,
    TangleTemplate,
    bundled_templates,
    load_corpus,
    oriented_span_certificate,
    parse_pd,
    span_certificate,
)
from tanglekit.certify import certificate_text
from certify_oracle import Node, from_nodes, nodes as nodes_of
from tangle_oracles import farey_neighbor, oriented_figure8

CALLS = 10_000
BOUND = 40
GENERATED = 40  # certificates in the pool that the generators made
TAGS = (PARALLEL, ANTIPARALLEL, "sideways", "", "Parallel")


def small(rng):
    return rng.randint(-BOUND, BOUND)


def fraction(rng):
    p, q = small(rng), rng.randint(0, BOUND)
    return TangleFraction.make(p, q) if p or q else TangleFraction(1, 0)


def pd_text(rng):
    """Crossing and slot tuples over labels that mostly occur twice, with
    loops and orientation directives."""
    k = rng.randint(0, 4)
    labels = [e for e in range(1, 2 * k + 1) for _ in range(2)]
    rng.shuffle(labels)
    if labels and rng.random() < 0.2:
        labels[rng.randrange(len(labels))] = rng.randint(-1, 2 * k + 1)
    tokens = [
        rng.choice("XXXT") + "[" + ",".join(map(str, labels[i : i + 4])) + "]"
        for i in range(0, len(labels), 4)
    ]
    tokens += ["U"] * rng.choice((0, 0, 1, 2))
    if rng.random() < 0.2:
        flags = ",".join(f"{i}:{rng.choice('+-')}" for i in range(1, rng.randint(1, 3)))
        tokens.append(f"O[{flags}]")
    rng.shuffle(tokens)
    return " ".join(tokens)


def flags(rng, n=None):
    n = rng.randint(0, 4) if n is None else n
    return tuple(rng.choice((1, 1, -1, -1, 0, 2)) for _ in range(n))


def _pools():
    """Values built once: diagrams, templates, Farey pairs and certificates,
    many of them well formed and most unsuited to some function."""
    rng = random.Random(2019)
    stock = bundled_templates()
    templates = list(stock.values())
    templates += [oriented_figure8(PARALLEL), oriented_figure8(ANTIPARALLEL)]
    diagrams = [e.diagram() for e in load_corpus()[:12]]
    diagrams += [t.diagram for t in templates]
    diagrams.append(LinkDiagram((), (), 2))
    for name in ("figure8", "twist", "trefoil_sum"):
        for _ in range(4):
            f = fraction(rng)
            try:
                diagrams.append(tanglekit.splice(stock[name], 0, f))
            except ValueError:
                pass
    while len(diagrams) < 80:
        try:
            diagrams.append(parse_pd(pd_text(rng)))
        except ValueError:
            pass
    for d in list(diagrams):
        try:
            diagrams.append(d.with_orientation(flags(rng, len(d._units))))
        except ValueError:
            pass
    for d in diagrams:
        if d.slots:
            templates.append(TangleTemplate(d))
            if len(d.slots) == 1:
                templates.append(TangleTemplate(d, (small(rng), small(rng))))
    for t in list(templates):
        if t.coeffs is not None:
            a, b = t.coeffs
            templates.append(TangleTemplate(t.diagram, (a + 1, b)))
    templates.append(tanglekit.splice(stock["necklace2"], 0, TangleFraction(1, 2)))

    pairs = [FareyPair(TangleFraction(1, 0), TangleFraction(0, 1))]
    while len(pairs) < 30:
        f = fraction(rng)
        pairs.append(FareyPair(f, farey_neighbor(f)))

    certs = []  # GENERATED of them, then as many forged
    ambients = [stock["figure8"], stock["twist"], stock["trefoil_sum"]]
    while len(certs) < GENERATED:
        f, ambient = fraction(rng), rng.choice(ambients)
        try:
            if rng.random() < 0.5:
                certs.append(span_certificate(f, ambient))
            else:
                target = OrientedTarget(f, rng.choice((PARALLEL, ANTIPARALLEL)))
                certs.append(oriented_span_certificate(target, ambient))
        except ValueError:
            pass
    for cert in list(certs):
        certs.append(forged(rng, cert, templates))
    return diagrams, templates, pairs, certs


NOT_INTS = ("a", None, True, 1.0)


def index(rng):
    """A node index: mostly an int, else a value of another type."""
    return small(rng) if rng.random() < 0.8 else rng.choice(NOT_INTS)


def justification(rng):
    """A justification in a documented shape, ("base", name) or
    (kind, i, j, resolution), or in another: an unknown kind with fewer
    entries, a known kind with too few or too many, or none at all. Indices
    are sometimes not ints."""
    name = rng.choice(("unknot", "hopf", "lemma", ""))
    i, j, res = index(rng), index(rng), rng.choice((None, index(rng)))
    return rng.choice((
        ("base", name),
        (rng.choice(("triple", "lemma")), i, j, res),
        (rng.choice(("base", "triple", "lemma")), i)[: rng.randint(0, 2)],
        ("base", name, i),
        ("triple", i, j),
        ("triple", i, j, res, i),
    ))


def forged(rng, cert, templates):
    """A certificate with edited nodes, kind or ambient."""
    kind, ambient, nodes = cert.kind, cert.ambient, nodes_of(cert)
    for _ in range(rng.randint(1, 3)):
        m = rng.randrange(len(nodes)) if nodes else 0
        edit = rng.randrange(8)
        if edit == 0 and nodes:
            n = nodes[m]
            nodes[m] = Node(n.frac, rng.choice((*TAGS, None)), n.just)
        elif edit == 1 and nodes:
            n = nodes[m]
            nodes[m] = Node(n.frac, n.orient, justification(rng))
        elif edit == 2 and nodes:
            n = nodes[m]
            nodes[m] = Node(fraction(rng), n.orient, n.just)
        elif edit == 3 and nodes:
            del nodes[m]
        elif edit == 4:
            kind = rng.choice(("oriented", "unoriented", "x"))
        elif edit == 5 and nodes and nodes[m].just[:1] == ("triple",):
            # one of a triple's i, j or resolution of another type
            n = nodes[m]
            k = rng.randrange(1, len(n.just))
            just = n.just[:k] + (rng.choice(NOT_INTS),) + n.just[k + 1 :]
            nodes[m] = Node(n.frac, n.orient, just)
        elif edit == 6 and kind == "unoriented" and nodes and len(nodes[m].just) == 4:
            # a parent marked as the resolution of an unoriented triple
            n = nodes[m]
            nodes[m] = Node(n.frac, n.orient, (*n.just[:3], rng.choice(n.just[1:3])))
        else:
            ambient = rng.choice(templates)
    return from_nodes(kind, nodes, ambient)


DIAGRAMS, TEMPLATES, PAIRS, CERTS = _pools()
JSON_VALUES = (
    None, True, 0, -1, 2.5, "", "2/5", "x", [], [0, 1], {}, {"base": "hopf"},
    # values a node's fields could denote without being written as the writer
    # writes them
    " 1/1", "01/1", "+1/1", "-0/1", "2", "1_0/1", "\u0661/\u0661",
    {"base": "unknot", "triple": [0, 1]}, {"base": "unknot", "resolution": 0},
    {"triple": [0, 1], "resolution": None},
)


def json_forgery(rng):
    data = tanglekit.certificate_to_json(rng.choice(CERTS[:GENERATED]))
    for _ in range(rng.randint(1, 3)):
        box = data
        while isinstance(box, (dict, list)) and box and rng.random() < 0.7:
            key = rng.choice(list(box) if isinstance(box, dict) else range(len(box)))
            if not isinstance(box[key], (dict, list)):
                break
            box = box[key]
        if isinstance(box, dict):
            key = rng.choice([*box, "extra"])
            if rng.random() < 0.2:
                box.pop(key, None)
            else:
                box[key] = copy.deepcopy(rng.choice(JSON_VALUES))
        elif isinstance(box, list) and box:
            box[rng.randrange(len(box))] = copy.deepcopy(rng.choice(JSON_VALUES))
    return data


def test_the_reader_takes_only_the_writers_node_form():
    """Whatever nodes the reader loads, the writer writes back as they were
    read: a fraction or a justification in any other form is refused."""
    rng = random.Random(29)
    loaded = 0
    for _ in range(3000):
        data = json_forgery(rng)
        try:
            back = tanglekit.certificate_to_json(tanglekit.certificate_from_json(data))
        except ValueError:
            continue
        loaded += 1
        for m, (node, written) in enumerate(zip(data["nodes"], back["nodes"])):
            assert (node["frac"], node["just"]) == (written["frac"], written["just"]), m
    assert loaded > 100


def file_text(rng):
    cert = rng.choice(CERTS[:GENERATED])
    return rng.choice((
        lambda: json.dumps(json_forgery(rng)),
        lambda: certificate_text(cert)[: rng.randrange(1, 400)],
        lambda: "[" * rng.randint(1, 100_000),
        lambda: "3_1 | X[1,2,3,4] X[2,5,6,3] X[4,6,5,1] | 1 | x\n",
        lambda: f"a | {pd_text(rng)} | {small(rng)} | {small(rng)}\n",
        lambda: "a | U | 1\n",
        lambda: "",
    ))()


def path(rng, tmp):
    """A file of random text or random bytes."""
    p = tmp / f"f{rng.randrange(8)}.txt"
    if rng.random() < 0.1:
        p.write_bytes(bytes(rng.randrange(256) for _ in range(rng.randint(1, 16))))
    else:
        p.write_text(file_text(rng), encoding="utf-8")
    return str(p)


def quad(rng):
    return tuple(rng.randint(-1, 12) for _ in range(4))


def cf_terms(rng):
    terms = tuple(small(rng) for _ in range(rng.randint(0, 5)))
    return (None, *terms[1:]) if terms and rng.random() < 0.1 else terms


def target(rng):
    while True:
        try:
            return OrientedTarget(fraction(rng), rng.choice((PARALLEL, ANTIPARALLEL)))
        except ValueError:
            pass


def cf(rng):
    while True:
        try:
            return ContinuedFraction(cf_terms(rng))
        except ValueError:
            pass


def pick(pool):
    return lambda rng: rng.choice(pool)


D, T, P, C = pick(DIAGRAMS), pick(TEMPLATES), pick(PAIRS), pick(CERTS)
OPT_T = lambda rng: rng.choice((None, T(rng)))  # noqa: E731
NOT_EXACT = (True, False, 1.0)  # each equals an int without being one


def or_not_exact(make):
    """A drawer of make's ints, one time in five a bool or a float instead."""
    return lambda rng: make(rng) if rng.random() < 0.8 else rng.choice(NOT_EXACT)


SLOT = or_not_exact(lambda rng: rng.randint(-1, 2))


def tangle(rng):
    """A compiled tangle, a pool diagram (mostly the wrong number of slots,
    loops or an orientation) or the crossings-and-stubs pair that is not a
    tangle."""
    return rng.choice((
        lambda: tanglekit.compile_word(cf(rng)),
        lambda: D(rng),
        lambda: (tuple(quad(rng) for _ in range(rng.randint(0, 2))), quad(rng)),
    ))()


def column(name):
    """A drawer of one column of a pool certificate; columns drawn apart
    mostly differ in length."""
    return lambda rng: getattr(rng.choice(CERTS), name)


# public callable -> argument makers; "path" stands for a file of random
# content in the test's temporary directory
CALLS_BY_NAME = {
    "TangleFraction": (small, small),
    "ContinuedFraction": (cf_terms,),
    "FareyPair": (fraction, fraction),
    "LinkDiagram": (
        lambda rng: [quad(rng) for _ in range(rng.randint(0, 3))],
        lambda rng: [quad(rng) for _ in range(rng.randint(0, 2))],
        or_not_exact(lambda rng: rng.randint(-1, 2)),
        lambda rng: rng.choice((None, flags(rng))),
    ),
    "OrientedTarget": (fraction, lambda rng: rng.choice(TAGS)),
    "TangleTemplate": (
        D, lambda rng: rng.choice((None, (small(rng), small(rng)), flags(rng)))
    ),
    "Certificate": (
        lambda rng: rng.choice(("oriented", "unoriented", "")), T,
        column("ps"), column("qs"), column("tags"), column("justs"),
    ),
    "bundled_templates": (),
    "certificate_from_json": (json_forgery,),
    "certificate_to_json": (C,),
    "certificate_text": (C,),
    "cf_to_fraction": (cf,),
    "coloring_matrix": (D,),
    "compile_word": (cf,),
    "components": (D,),
    "connected_sum": (D, or_not_exact(small), D, or_not_exact(small)),
    "connectivity": (fraction,),
    "crossing_change": (D, or_not_exact(small)),
    "determinant": (D,),
    "disjoint_union": (D, D),
    "figure8_template": (),
    "fill_slot": (D, SLOT, tangle),
    "fit_coefficients": (T,),
    "fraction_to_cf": (fraction,),
    "insertion_det": (T, fraction),
    "is_planar": (D,),
    "load_certificate": ("path",),
    "load_corpus": ("path",),
    "mediant": (P,),
    "n_colorable": (D, or_not_exact(small)),
    "orientation_compatible": (T, SLOT, fraction),
    "oriented_resolve": (D, or_not_exact(small)),
    "oriented_span_certificate": (target, OPT_T),
    "parse_pd": (pd_text,),
    "partner": (P,),
    "pd_string": (D,),
    "reduced_fractions": (or_not_exact(small),),
    "resolve": (D, or_not_exact(small), lambda rng: rng.randint(-1, 2)),
    "save_certificate": (C, "path"),
    "span_certificate": (fraction, OPT_T),
    "splice": (T, SLOT, fraction),
    "two_slot_scan": (T, SLOT, SLOT, or_not_exact(lambda rng: rng.randint(-1, 3))),
    "verify_certificate": (C,),
    "zero_locus": (T,),
}

# exceptions and records that check nothing (fields are stored as given)
UNCHECKED = {
    "CertificateError", "PDError", "TemplateError", "CorpusEntry", "ScanReport",
    "Verdict",
}


def test_every_public_callable_is_fuzzed():
    public = {
        name for name in tanglekit.__all__ if callable(getattr(tanglekit, name))
    }
    assert public - UNCHECKED <= set(CALLS_BY_NAME)
    assert set(CALLS_BY_NAME) - public == {"certificate_text"}


def test_wrong_content_raises_only_value_errors(tmp_path):
    rng = random.Random(21)
    names = sorted(CALLS_BY_NAME)
    raised = 0
    for n in range(CALLS):
        name = names[n % len(names)]
        func = (
            certificate_text if name == "certificate_text" else getattr(tanglekit, name)
        )
        args = [
            path(rng, tmp_path) if make == "path" else make(rng)
            for make in CALLS_BY_NAME[name]
        ]
        try:
            func(*args)
        except ValueError:
            raised += 1
        except Exception as exc:  # noqa: BLE001 - the fault this test looks for
            pytest.fail(f"{name}{tuple(args)!r} raised {exc!r}")
    # most calls are refused; a run where nothing is refused fuzzes nothing
    assert CALLS // 4 < raised < CALLS


@pytest.mark.parametrize("p, q", [(True, 3), (1.0, 1), (1, False), (2, 3.0)])
def test_fraction_terms_must_be_ints(p, q):
    # a bool is an int that prints as True; a float would reach gcd
    with pytest.raises(ValueError, match="must be integers"):
        TangleFraction(p, q)
