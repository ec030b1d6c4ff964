"""Surgery operations carry orientation exactly, and refuse what cannot carry.

The golden digests pin every output of `crossing_change`, `oriented_resolve`,
`resolve` and `fill_slot` over the corpus and the bundled templates: each is
the SHA-256 of the newline-joined `pd_string` outputs, in the order the
generators below produce them, recorded before the four operations shared one
orientation-transport path.
"""

import hashlib
from functools import cached_property
from itertools import product

import pytest

from tanglekit.corpus import bundled_templates, load_corpus
from tanglekit.diagram import (
    LinkDiagram,
    PDError,
    components,
    crossing_change,
    fill_slot,
    oriented_resolve,
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
from tanglekit.tangle import TangleFraction, compile_word, fraction_word

CORPUS = [e.diagram() for e in load_corpus()]
TEMPLATES = bundled_templates()


def flag_vectors(d):
    return product((1, -1), repeat=len(d._units))


def compiled(f):
    c = compile_word(fraction_word(f))
    return c.crossings, c.stubs


def fill_cases(fracs):
    """(oriented template, slot, fraction) over every bundled template, flag
    vector and slot."""
    for name in sorted(TEMPLATES):
        d = TEMPLATES[name].diagram
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
                yield pd_string(crossing_change(od, s))


def oriented_resolve_outputs():
    for d in CORPUS:
        for flags in flag_vectors(d):
            od = d.with_orientation(flags)
            for s in range(len(d.crossings)):
                yield pd_string(oriented_resolve(od, s))


def oriented_fill_outputs():
    second = reduced_fractions(2)
    for t, slot, f in fill_cases(reduced_fractions(4)):
        if not orientation_compatible(t, slot, f):
            continue
        out = fill_slot(t.diagram, slot, *compiled(f))
        yield pd_string(out)
        if out.slots:
            rest = TangleTemplate(out)
            for g in second:
                if orientation_compatible(rest, 0, g):
                    yield pd_string(fill_slot(out, 0, *compiled(g)))


def unoriented_outputs():
    for d in CORPUS:
        for s in range(len(d.crossings)):
            yield pd_string(crossing_change(d, s))
            for which in (0, 1):
                yield pd_string(resolve(d, s, which))
    for name in sorted(TEMPLATES):
        d = TEMPLATES[name].diagram
        for slot in range(len(d.slots)):
            for f in reduced_fractions(4):
                yield pd_string(fill_slot(d, slot, *compiled(f)))


GOLDEN = {
    crossing_change_outputs: "ef45b59ca46bdcd15948aa3d9fb10dde09c5f811ee420b32a48d69bfece821fd",
    oriented_resolve_outputs: "5da9fa7dba46b1be138ed341a6012690f8feca0e8387ada1e3ca2d8e154af9aa",
    oriented_fill_outputs: "2668a3c77dd2f007c8ab39eff4feafe1954c0eb85415b8d3d2a5c44761256b0b",
    unoriented_outputs: "43180ece5e0371be4618a071cb75ae98cae28e938ce6581bf724c0eda1b7935f",
}


@pytest.mark.parametrize("outputs", GOLDEN, ids=lambda g: g.__name__)
def test_surgery_outputs_are_unchanged(outputs):
    text = "\n".join(outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[outputs]


class TestIncompatibleFill:
    def test_parallel_figure8_with_two_over_one(self):
        t = figure8_template("parallel")
        with pytest.raises(PDError):
            fill_slot(t.diagram, 0, *compiled(TangleFraction(2, 1)))

    def test_trefoil_sum_with_crossing_free_strands(self):
        d = TEMPLATES["trefoil_sum"].diagram.with_orientation((1, 1))
        with pytest.raises(PDError):
            fill_slot(d, 0, *compiled(TangleFraction(0, 1)))

    def test_every_incompatible_fill_raises(self):
        for t, slot, f in fill_cases(reduced_fractions(4)):
            if orientation_compatible(t, slot, f):
                assert fill_slot(t.diagram, slot, *compiled(f)).is_oriented
            else:
                with pytest.raises(PDError):
                    fill_slot(t.diagram, slot, *compiled(f))


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
            t = figure8_template(tag)  # a fresh template: its own trace counts
            if not orientation_compatible(t, 0, f):
                continue
            spliced += 1
            traces[0] = 0
            out = splice(t, 0, f)
            edge_directions, n = out.edge_directions(), components(out)
            assert edge_directions and n >= 1
            assert traces[0] == 1
            traces[0] = 0
            r = oriented_resolve(out, 0)
            r.edge_directions()
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
        assert od.edge_directions() and components(od) == len(flags)
        assert traces[0] == 1

    def test_unoriented_diagram_traces_once(self, traces):
        d = CORPUS[-1]
        d = LinkDiagram(d.crossings, d.slots, d.loops)
        traces[0] = 0
        assert components(d) == components(d)
        assert traces[0] == 1
