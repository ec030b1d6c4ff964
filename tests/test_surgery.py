"""Surgery operations carry orientation exactly, and refuse what cannot carry.

The golden digests pin every output of `crossing_change`, `oriented_resolve`,
`resolve` and `fill_slot` over the corpus and the bundled templates: each is
the SHA-256 of the newline-joined `pd_string` outputs, in the order the
generators below produce them, recorded before the four operations shared one
orientation-transport path.
"""

import hashlib
import random
from functools import cached_property
from itertools import product

import pytest
from tangle_oracles import oriented_figure8
from test_skein import random_planar_two_slot

from tanglekit.corpus import bundled_templates, load_corpus
from tanglekit.diagram import (
    LinkDiagram,
    PDError,
    components,
    crossing_change,
    fill_slot,
    oriented_resolve,
    parse_pd,
    pd_string,
    resolve,
)
from tanglekit.skein import (
    TangleTemplate,
    figure8_template,
    orientation_compatible,
    reduced_fractions,
    splice,
)
from tanglekit.tangle import TangleFraction, compile_word, fraction_to_cf

CORPUS = [e.diagram() for e in load_corpus()]
TEMPLATES = bundled_templates()
# the template diagrams the digests were recorded over, among them the stock
# twist ambient's earlier, non-planar PD
DIGEST_TEMPLATES = {
    **{name: t.diagram for name, t in TEMPLATES.items()},
    "twist": parse_pd("T[1,2,3,4] X[3,4,2,1]"),
}


def flag_vectors(d):
    return product((1, -1), repeat=len(d._units))


def compiled(f):
    return compile_word(fraction_to_cf(f))


def fill_cases(fracs):
    """(oriented template, slot, fraction) over every bundled template, flag
    vector and slot."""
    for name in sorted(DIGEST_TEMPLATES):
        d = DIGEST_TEMPLATES[name]
        for flags in flag_vectors(d):
            t = TangleTemplate(d.with_orientation(flags))
            for slot in range(t.slot_count):
                for f in fracs:
                    yield t, slot, f


def crossing_change_outputs():
    for d in CORPUS:
        for flags in flag_vectors(d):
            od = d.with_orientation(flags)
            for s in range(len(d.crossings)):
                yield crossing_change(od, s)


def oriented_resolve_outputs():
    for d in CORPUS:
        for flags in flag_vectors(d):
            od = d.with_orientation(flags)
            for s in range(len(d.crossings)):
                yield oriented_resolve(od, s)


def oriented_fill_outputs():
    second = reduced_fractions(2)
    for t, slot, f in fill_cases(reduced_fractions(4)):
        if not orientation_compatible(t, slot, f):
            continue
        out = fill_slot(t.diagram, slot, compiled(f))
        yield out
        if out.slots:
            rest = TangleTemplate(out)
            for g in second:
                if orientation_compatible(rest, 0, g):
                    yield fill_slot(out, 0, compiled(g))


def unoriented_outputs():
    for d in CORPUS:
        for s in range(len(d.crossings)):
            yield crossing_change(d, s)
            for which in (0, 1):
                yield resolve(d, s, which)
    for name in sorted(DIGEST_TEMPLATES):
        d = DIGEST_TEMPLATES[name]
        for slot in range(len(d.slots)):
            for f in reduced_fractions(4):
                yield fill_slot(d, slot, compiled(f))


GOLDEN = {
    crossing_change_outputs: "ef45b59ca46bdcd15948aa3d9fb10dde09c5f811ee420b32a48d69bfece821fd",
    oriented_resolve_outputs: "5da9fa7dba46b1be138ed341a6012690f8feca0e8387ada1e3ca2d8e154af9aa",
    oriented_fill_outputs: "2668a3c77dd2f007c8ab39eff4feafe1954c0eb85415b8d3d2a5c44761256b0b",
    unoriented_outputs: "43180ece5e0371be4618a071cb75ae98cae28e938ce6581bf724c0eda1b7935f",
}


@pytest.mark.parametrize("outputs", GOLDEN, ids=lambda g: g.__name__)
def test_surgery_outputs_are_unchanged(outputs):
    text = "\n".join(map(pd_string, outputs()))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[outputs]


def rebuilt(d):
    """The diagram the constructor builds from the fields of d."""
    return LinkDiagram(d.crossings, d.slots, d.loops, d.orientation)


def random_surgery_outputs(rng, count):
    """Outputs of seeded random surgery: a random planar two-slot diagram,
    oriented half the time, has both slots filled with random fractions,
    then one crossing changed and one smoothed."""
    fracs = reduced_fractions(5)
    for _ in range(count):
        d = random_planar_two_slot(rng, rng.randint(0, 4))
        if rng.random() < 0.5:
            d = d.with_orientation(tuple(rng.choice((1, -1)) for _ in d._units))
        try:
            one = fill_slot(d, rng.randrange(2), compiled(rng.choice(fracs)))
            yield one
            out = fill_slot(one, 0, compiled(rng.choice(fracs)))
        except PDError:
            continue  # a fill whose strands fight the orientation
        yield out
        if out.crossings:
            i = rng.randrange(len(out.crossings))
            yield crossing_change(out, i)
            if out.is_oriented:
                yield oriented_resolve(out, i)
            else:
                yield resolve(out, i, rng.randrange(2))


class TestOutputsAgreeWithTheConstructor:
    """Surgery builds its result with one label map and an output check, not
    the constructor; the constructor, given that result, returns it as is."""

    @pytest.mark.parametrize("outputs", GOLDEN, ids=lambda g: g.__name__)
    def test_golden_outputs(self, outputs):
        count = 0
        for out in outputs():
            assert rebuilt(out) == out, pd_string(out)
            count += 1
        assert count >= 100

    def test_seeded_random_surgery(self):
        outs = list(random_surgery_outputs(random.Random(20261), 300))
        assert len(outs) >= 600
        assert sum(o.is_oriented for o in outs) >= 150
        assert sum(o.loops > 0 for o in outs) >= 10
        for out in outs:
            assert rebuilt(out) == out, pd_string(out)

    def test_surgery_does_not_run_the_constructor(self, monkeypatch):
        d = TEMPLATES["trefoil_sum"].diagram
        od = oriented_figure8("parallel").diagram
        f, g = compiled(TangleFraction(2, 5)), compiled(TangleFraction(3, 8))
        runs = []
        init = LinkDiagram.__init__

        def counted(self, *args, **kwargs):
            runs.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinkDiagram, "__init__", counted)
        out = fill_slot(d, 0, f)
        oriented = fill_slot(od, 0, g)
        assert out.crossings and oriented.is_oriented
        for x in (out, oriented):
            crossing_change(x, 0)
        resolve(out, 0, 1)
        oriented_resolve(oriented, 0)
        assert runs == []


# malformed tangles, and what each error must name: a stub label 0, stubs
# that only equal ints, three stubs, a three-entry crossing, labels used once,
# and a label used three times
MALFORMED_TANGLES = {
    "zero": ((), (0, 0, 2, 2), r"positive integers, not \[0, 0\]"),
    "bools": ((), (True, True, 2, 2), r"positive integers, not \[True, True\]"),
    "floats": ((), (1.0, 1.0, 2, 2), r"positive integers, not \[1\.0, 1\.0\]"),
    "bool-beside-int": ((), (1, True, 2, 2), r"positive integers, not \[True\]"),
    "three-stubs": ((), (1, 1, 2), r"four entries, not \[\(1, 1, 2\)\]"),
    "three-entry-crossing": (
        ((1, 2, 3),), (1, 2, 3, 4), r"four entries, not \[\(1, 2, 3\)\]"
    ),
    "used-once": ((), (1, 2, 3, 3), r"labels \[1, 2\] occur != 2 times"),
    "used-thrice": (((1, 2, 3, 4),), (1, 1, 3, 4), r"labels \[1, 2\] occur != 2 times"),
}


class TestMalformedTangle:
    """A tangle is a one-slot diagram, so the constructor checks it: a
    malformed one never reaches fill_slot, whatever the template."""

    @pytest.mark.parametrize("tag", [None, "parallel", "antiparallel"])
    @pytest.mark.parametrize(
        "crossings, stubs, match", MALFORMED_TANGLES.values(), ids=MALFORMED_TANGLES
    )
    def test_is_refused_with_its_labels_named(self, tag, crossings, stubs, match):
        d = (oriented_figure8(tag) if tag else figure8_template()).diagram
        with pytest.raises(PDError, match=match):
            fill_slot(d, 0, LinkDiagram(crossings, [stubs]))

    def test_every_compiled_tangle_passes_the_check(self):
        d = figure8_template().diagram
        fracs = list(reduced_fractions(30))
        assert len(fracs) == 1112
        for f in fracs:
            assert not fill_slot(d, 0, compiled(f)).slots


class TestTangleForm:
    """fill_slot takes an unoriented one-slot diagram without free loops."""

    @pytest.mark.parametrize(
        "tangle",
        [
            ((), (1, 1, 2, 2)),  # the retired (crossings, stubs) form
            TangleFraction(0, 1),
            "T[1,2,1,2]",
            parse_pd("T[1,2,3,4] T[2,1,4,3]"),
            parse_pd("X[1,2,2,1]"),
            parse_pd("T[1,2,1,2] U"),
            parse_pd("X[1,2,4,3] T[1,2,3,4] O[1:+,2:-]"),
        ],
        ids=["pair", "fraction", "text", "two-slots", "no-slot", "loop", "oriented"],
    )
    def test_anything_else_is_refused(self, tangle):
        for tag in (None, "parallel"):
            d = (oriented_figure8(tag) if tag else figure8_template()).diagram
            with pytest.raises(PDError, match="one-slot diagram without loops"):
                fill_slot(d, 0, tangle)

    def test_a_closed_unit_inside_the_tangle_takes_no_direction(self):
        # X[3,4,4,3] is a kinked circle with no end on the slot, so no
        # directed edge of the template reaches it
        tangle = parse_pd("X[3,4,4,3] T[1,1,2,2]")
        assert components(fill_slot(figure8_template().diagram, 0, tangle)) == 3
        with pytest.raises(PDError, match="unit has no directed edge"):
            fill_slot(oriented_figure8("parallel").diagram, 0, tangle)


class TestIncompatibleFill:
    def test_parallel_figure8_with_two_over_one(self):
        t = oriented_figure8("parallel")
        with pytest.raises(PDError):
            fill_slot(t.diagram, 0, compiled(TangleFraction(2, 1)))

    def test_trefoil_sum_with_crossing_free_strands(self):
        d = TEMPLATES["trefoil_sum"].diagram.with_orientation((1, 1))
        with pytest.raises(PDError):
            fill_slot(d, 0, compiled(TangleFraction(0, 1)))

    def test_every_incompatible_fill_raises(self):
        for t, slot, f in fill_cases(reduced_fractions(4)):
            if orientation_compatible(t, slot, f):
                assert fill_slot(t.diagram, slot, compiled(f)).is_oriented
            else:
                with pytest.raises(PDError):
                    fill_slot(t.diagram, slot, compiled(f))


class TestTraceCount:
    """Each diagram traces its units once, so a surgery step costs a bounded
    number of traces whatever the caller asks of the result."""

    @pytest.fixture
    def traces(self, monkeypatch):
        count = [0]
        units = LinkDiagram._units.func

        def counted(d):
            count[0] += 1
            return units(d)

        prop = cached_property(counted)
        prop.__set_name__(LinkDiagram, "_units")
        monkeypatch.setattr(LinkDiagram, "_units", prop)
        return count

    @pytest.mark.parametrize("tag", ["parallel", "antiparallel"])
    def test_oriented_splice_and_resolve(self, traces, tag):
        spliced = 0
        for f in (TangleFraction(3, 8), TangleFraction(5, 8), TangleFraction(2, 5)):
            t = oriented_figure8(tag)  # a fresh template: its own trace counts
            if not orientation_compatible(t, 0, f):
                continue
            spliced += 1
            traces[0] = 0
            out = splice(t, 0, f)
            heads, n = out._heads(), components(out)
            assert heads and n >= 1
            assert traces[0] == 1
            traces[0] = 0
            r = oriented_resolve(out, 0)
            r._heads()
            components(r)
            assert traces[0] == 1
        assert spliced >= 2

    def test_with_orientation_does_not_trace_again(self, traces):
        d = CORPUS[-1]
        d = LinkDiagram(d.crossings, d.slots, d.loops)
        traces[0] = 0
        flags = (1,) * components(d)
        od = d.with_orientation(flags)
        assert od.with_orientation(None).with_orientation(flags) == od
        assert od._heads() and components(od) == len(flags)
        assert traces[0] == 1

    def test_unoriented_diagram_traces_once(self, traces):
        d = CORPUS[-1]
        d = LinkDiagram(d.crossings, d.slots, d.loops)
        traces[0] = 0
        assert components(d) == components(d)
        assert traces[0] == 1


class TestDirectionReads:
    """An oriented surgery reads its input's strand directions once: the
    heads that place a crossing's or slot's entries are the heads it moves."""

    @pytest.fixture
    def reads(self, monkeypatch):
        count = [0]
        heads = LinkDiagram._heads

        def counted(d):
            count[0] += 1
            return heads(d)

        monkeypatch.setattr(LinkDiagram, "_heads", counted)
        return count

    @pytest.mark.parametrize("tag", ["parallel", "antiparallel"])
    def test_each_oriented_surgery_reads_heads_once(self, reads, tag):
        t, f = oriented_figure8(tag), TangleFraction(3, 8)
        reads[0] = 0
        out = splice(t, 0, f)
        assert reads[0] == 2  # the slot's compatibility test, then fill_slot
        tangle = compiled(f)
        for step in (
            lambda: fill_slot(t.diagram, 0, tangle),
            lambda: oriented_resolve(out, 0),
            lambda: crossing_change(out, 0),
        ):
            reads[0] = 0
            assert step().is_oriented
            assert reads[0] == 1

    def test_an_unoriented_diagram_has_no_heads(self):
        with pytest.raises(PDError, match="diagram is not oriented"):
            figure8_template().diagram._heads()

    def test_unoriented_surgery_reads_no_heads(self, reads):
        out = splice(figure8_template(), 0, TangleFraction(3, 8))
        resolve(out, 0, 0)
        crossing_change(out, 0)
        assert reads[0] == 0
