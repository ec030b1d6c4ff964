import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from tanglekit._record import _Record
from tanglekit.certify import Certificate, CertNode, OrientedTarget, Verdict
from tanglekit.coloring import ColoringMatrix
from tanglekit.corpus import CorpusEntry
from tanglekit.diagram import (
    _UnionFind,
    LinkDiagram,
    PDError,
    components,
    connected_sum,
    crossing_change,
    disjoint_union,
    fill_slot,
    oriented_resolve,
    parse_pd,
    pd_string,
    resolve,
)
from tanglekit.skein import FareyPair, ScanReport, TangleTemplate
from tanglekit.tangle import CompiledTangle, ContinuedFraction
from tanglekit.tangle import TangleFraction as F

UNKNOT_KINK = "X[1,2,2,1]"
UNKNOT_0 = "U"
HOPF = "X[1,4,2,3] X[3,2,4,1]"
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8_TEMPLATE = "T[1,2,1,2]"


def trace_components_oracle(d: LinkDiagram) -> int:
    """Independent component count: union edges along strand continuations."""
    groups: list[set] = []

    def merge(x, y):
        gx = next((g for g in groups if x in g), None)
        gy = next((g for g in groups if y in g), None)
        if gx is None and gy is None:
            groups.append({x, y})
        elif gx is None:
            gy.add(x)
        elif gy is None:
            gx.add(y)
        elif gx is not gy:
            gx |= gy
            groups.remove(gy)

    for a, b, c, dd in d.crossings:
        merge(a, c)
        merge(b, dd)
    return len(groups) + d.loops


class TestParse:
    def test_kink(self):
        d = parse_pd(UNKNOT_KINK)
        assert d.crossings == ((1, 2, 2, 1),)
        assert components(d) == 1

    def test_hopf_two_components(self):
        d = parse_pd(HOPF)
        assert components(d) == 2
        assert trace_components_oracle(d) == 2

    def test_trefoil_one_component(self):
        d = parse_pd(TREFOIL)
        assert components(d) == 1
        assert trace_components_oracle(d) == 1

    def test_zero_crossing_unknot(self):
        d = parse_pd(UNKNOT_0)
        assert d.loops == 1
        assert components(d) == 1

    def test_slot_template(self):
        d = parse_pd(FIG8_TEMPLATE)
        assert len(d.slots) == 1
        with pytest.raises(PDError):
            components(d)

    def test_malformed_token(self):
        with pytest.raises(PDError):
            parse_pd("X[1,2,3]")
        with pytest.raises(PDError):
            parse_pd("Y[1,2,2,1]")
        with pytest.raises(PDError):
            parse_pd("")

    def test_label_occurring_once(self):
        with pytest.raises(PDError):
            parse_pd("X[1,2,3,4]")

    def test_slot_endpoint_overuse(self):
        with pytest.raises(PDError, match="slot endpoint reuse"):
            parse_pd("T[1,1,1,1] T[1,2,2,3] X[3,4,4,5] X[5,6,6,7]")

    def test_roundtrip(self):
        for text in (UNKNOT_KINK, HOPF, TREFOIL, FIG8_TEMPLATE, "U U"):
            assert pd_string(parse_pd(text)) == text

    def test_sparse_labels_compacted(self):
        d = parse_pd("X[10,40,20,30] X[30,20,40,10]")
        assert d.arc_count == 4

    def test_oriented_parse_roundtrip(self):
        d = parse_pd(HOPF + " O[1:+,2:-]")
        assert d.orientation == (1, -1)
        assert pd_string(d) == HOPF + " O[1:+,2:-]"

    def test_orientation_directive_errors(self):
        with pytest.raises(PDError):
            parse_pd(HOPF + " O[1:+]")  # misses a component
        with pytest.raises(PDError):
            parse_pd(HOPF + " O[1:+,3:-]")  # index out of range
        with pytest.raises(PDError):
            parse_pd(HOPF + " O[1:+,2:-] O[1:-,2:-]")  # two directives
        with pytest.raises(PDError, match="names component 1 twice"):
            parse_pd(HOPF + " O[1:+,1:-,2:+]")  # contradictory signs
        with pytest.raises(PDError, match="names component 2 twice"):
            parse_pd(HOPF + " O[1:+,2:+,2:+]")  # a repeat, even of one sign

    def test_negative_labels_rejected(self):
        with pytest.raises(PDError):
            parse_pd("X[-1,2,2,-1]")
        with pytest.raises(PDError, match="positive"):
            LinkDiagram([(0, 2, 2, 0)])

    @pytest.mark.parametrize("t", [(True, 1, 2, 2), (1, True, 2, 2), (1, 1, 2.0, 2)])
    def test_non_int_labels_rejected(self, t):
        # True == 1 and 2.0 == 2, so these labels even pair up by count
        with pytest.raises(PDError, match="positive integers"):
            LinkDiagram([t])

    @pytest.mark.parametrize("loops", [2.0, True, 0.0])
    def test_loop_count_must_be_an_exact_int(self, loops):
        # 2.0 was stored, so components returned 2.0 and pd_string raised
        # TypeError; True counted one loop
        with pytest.raises(PDError, match="loop count must be an int"):
            LinkDiagram((), (), loops)
        with pytest.raises(PDError, match="loop count must be an int"):
            LinkDiagram(parse_pd(HOPF).crossings, (), loops)

    def test_constructor_applies_the_label_rule(self):
        # the constructor renumbers and canonicalizes what parse_pd accepts,
        # and its errors name the caller's labels
        d = LinkDiagram([(30, 20, 40, 10), (10, 40, 20, 30)])
        assert d == parse_pd("X[30,20,40,10] X[10,40,20,30]")
        assert d.crossings == ((1, 2, 3, 4), (2, 1, 4, 3))  # the second rotated
        with pytest.raises(PDError, match=r"exactly twice: \[30, 50\]"):
            LinkDiagram([(30, 20, 40, 10), (10, 40, 20, 50)])
        with pytest.raises(PDError, match="four entries"):
            LinkDiagram([(1, 2, 2)])


class TestResolve:
    def test_one_fewer_crossing(self):
        d = parse_pd(TREFOIL)
        for s in range(3):
            for w in (0, 1):
                assert len(resolve(d, s, w).crossings) == 2

    def test_kink_smoothings(self):
        d = parse_pd(UNKNOT_KINK)
        results = {components(resolve(d, 0, w)) for w in (0, 1)}
        assert results == {1, 2}  # unknot one way, 2-component unlink the other

    def test_hopf_smooths_to_kink(self):
        d = parse_pd(HOPF)
        for s in range(2):
            for w in (0, 1):
                r = resolve(d, s, w)
                assert len(r.crossings) == 1
                assert components(r) == 1

    def test_trefoil_smoothings(self):
        # one smoothing is a 2-component diagram (Hopf), the other a 1-component
        # unknot; checked against the determinant oracle in test_coloring.
        d = parse_pd(TREFOIL)
        comps = sorted(components(resolve(d, 0, w)) for w in (0, 1))
        assert comps == [1, 2]

    def test_rejects_oriented(self):
        d = parse_pd(HOPF + " O[1:+,2:+]")
        with pytest.raises(PDError):
            resolve(d, 0, 0)

    def test_site_out_of_range(self):
        with pytest.raises(PDError):
            resolve(parse_pd(HOPF), 5, 0)

    def test_differs_only_at_site(self):
        # every other crossing survives with merged labels only
        d = parse_pd(TREFOIL)
        r = resolve(d, 1, 0)
        assert len(r.crossings) == 2

    @pytest.mark.parametrize(
        "site", [1.7, True, 1.0, "1", Fraction(1), Decimal(1)]
    )
    def test_site_must_be_an_exact_int(self, site):
        # int() would truncate 1.7 and True to crossing 1 and smooth it, and
        # the last two equal 1
        d = parse_pd(TREFOIL)
        oriented = d.with_orientation((1,))
        for verb in (
            lambda: resolve(d, site, 0),
            lambda: crossing_change(d, site),
            lambda: oriented_resolve(oriented, site),
        ):
            with pytest.raises(PDError, match="crossing site must be an int"):
                verb()

    @pytest.mark.parametrize("which", [True, 1.0, False, 0.0, "1"])
    def test_smoothing_must_be_an_exact_int(self, which):
        # True and 1.0 equal 1, so a membership test smoothed them as which=1
        with pytest.raises(PDError, match="smoothing must be 0 or 1"):
            resolve(parse_pd(TREFOIL), 1, which)

    @pytest.mark.parametrize("flag", [True, 1.0, -1.0])
    def test_orientation_flags_must_be_exact_ints(self, flag):
        d = parse_pd(TREFOIL)
        with pytest.raises(PDError, match="orientation flags must be"):
            d.with_orientation((flag,))
        with pytest.raises(PDError, match="orientation flags must be"):
            LinkDiagram(d.crossings, (), 0, (flag,))


class TestCrossingChange:
    def test_involution(self):
        for text in (UNKNOT_KINK, HOPF, TREFOIL):
            d = parse_pd(text)
            for s in range(len(d.crossings)):
                assert crossing_change(crossing_change(d, s), s) == d

    def test_changes_crossing(self):
        d = parse_pd(HOPF)
        assert crossing_change(d, 0) != d

    def test_count_and_components_preserved(self):
        d = parse_pd(TREFOIL)
        c = crossing_change(d, 2)
        assert len(c.crossings) == 3
        assert components(c) == 1

    def test_oriented_change_preserves_physical_directions(self):
        # the kink's flipped tuple gets rotated by canonicalization, which
        # must not reverse the traced strand direction
        for text in (UNKNOT_KINK + " O[1:+]", HOPF + " O[1:+,2:-]", TREFOIL + " O[1:-]"):
            d = parse_pd(text)
            for s in range(len(d.crossings)):
                c = crossing_change(d, s)
                assert c.is_oriented
                # under/over swapped: the incoming strand set at the site maps
                # through the tuple rotation, one position counterclockwise
                t_old = d.crossings[s]
                raw = (t_old[1], t_old[2], t_old[3], t_old[0])
                rot = 0 if c.crossings[s] == raw else 2
                mapped = {((p + 3) + rot) % 4 for p in d.incoming_positions(s)}
                assert c.incoming_positions(s) == mapped, (text, s)
                # double change restores the diagram and its directions
                back = crossing_change(c, s)
                assert back == d


class TestOrientedResolve:
    def test_hopf_resolves_to_oriented_kink(self):
        for o2 in ("+", "-"):
            d = parse_pd(HOPF + f" O[1:+,2:{o2}]")
            for s in range(2):
                r = oriented_resolve(d, s)
                assert len(r.crossings) == 1
                assert r.is_oriented
                assert components(r) == 1

    def test_trefoil_resolves_to_two_components(self):
        d = parse_pd(TREFOIL + " O[1:+]")
        for s in range(3):
            r = oriented_resolve(d, s)
            assert len(r.crossings) == 2
            assert components(r) == 2  # oriented Hopf

    def test_kink_resolves_to_oriented_unlink(self):
        d = parse_pd(UNKNOT_KINK + " O[1:+]")
        r = oriented_resolve(d, 0)
        assert r.crossings == ()
        assert r.loops == 2

    def test_requires_orientation(self):
        with pytest.raises(PDError):
            oriented_resolve(parse_pd(HOPF), 0)

    def test_oriented_resolution_is_one_of_the_smoothings(self):
        from tanglekit.corpus import load_corpus

        for e in load_corpus():
            d = e.diagram()
            if not d.crossings or len(d.crossings) > 8:
                continue
            flags = tuple(1 for _ in range(e.components))
            od = d.with_orientation(flags)
            for s in range(len(d.crossings)):
                r = oriented_resolve(od, s).with_orientation(None)
                smoothings = {resolve(d, s, 0), resolve(d, s, 1)}
                assert r in smoothings, (e.name, s)

    def test_oriented_resolution_changes_components_by_one(self):
        from tanglekit.corpus import load_corpus

        for e in load_corpus():
            d = e.diagram()
            if not d.crossings or len(d.crossings) > 8:
                continue
            od = d.with_orientation(tuple(1 for _ in range(e.components)))
            for s in range(len(d.crossings)):
                r = oriented_resolve(od, s)
                assert abs(components(r) - e.components) == 1, (e.name, s)


class TestCompose:
    def test_disjoint_union_components_add(self):
        u = parse_pd(UNKNOT_0)
        assert components(disjoint_union(u, u)) == 2
        d = parse_pd(TREFOIL)
        assert components(disjoint_union(d, u)) == 2
        assert components(disjoint_union(parse_pd(HOPF), d)) == 3

    def test_connected_sum_components(self):
        t = parse_pd(TREFOIL)
        g = connected_sum(t, 1, t, 1)
        assert components(g) == 1
        assert len(g.crossings) == 6
        h = parse_pd(HOPF)
        s = connected_sum(h, 2, t, 3)
        assert components(s) == 2

    def test_connected_sum_with_unknot_loop(self):
        t = parse_pd(TREFOIL)
        assert connected_sum(t, 1, parse_pd(UNKNOT_0), 1) == t

    def test_connected_sum_bad_arc(self):
        t = parse_pd(TREFOIL)
        with pytest.raises(PDError):
            connected_sum(t, 99, t, 1)

    def test_double_occurrence_preserved(self):
        t = parse_pd(TREFOIL)
        g = connected_sum(t, 2, t, 4)
        counts = {}
        for tup in g.crossings:
            for e in tup:
                counts[e] = counts.get(e, 0) + 1
        assert all(v == 2 for v in counts.values())


class TestFillSlot:
    def test_fill_with_horizontal_trivial_gives_unknot(self):
        d = parse_pd(FIG8_TEMPLATE)
        # horizontal trivial tangle: two edges, no crossings
        out = fill_slot(d, 0, (), (1, 1, 2, 2))
        assert out.crossings == ()
        assert out.loops == 1

    def test_fill_with_vertical_trivial_gives_unlink(self):
        d = parse_pd(FIG8_TEMPLATE)
        out = fill_slot(d, 0, (), (1, 2, 1, 2))
        assert out.loops == 2

    def test_fill_single_crossing(self):
        d = parse_pd(FIG8_TEMPLATE)
        # one positive horizontal twist: crossing (1, 2, 4, 3)
        out = fill_slot(d, 0, ((1, 2, 4, 3),), (1, 3, 2, 4))
        assert len(out.crossings) == 1
        assert components(out) == 1

    @pytest.mark.parametrize("slot", [True, False, 0.0, 1.0])
    def test_slot_index_must_be_an_exact_int(self, slot):
        # a bool indexes the slot tuple as 0 or 1; a float reached the index
        d = parse_pd("T[1,2,3,4] T[2,1,4,3]")
        with pytest.raises(PDError, match="slot index must be an int"):
            fill_slot(d, slot, (), (1, 1, 2, 2))


class TestUnionFind:
    def test_bulk_merge_and_roots_match_one_pair_at_a_time(self):
        """merge() puts the first set under the second's root and counts
        pairs already merged; roots() gives every merged label its root.
        The oracle links roots one pair at a time without compressing."""
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 30)
            pairs = [
                (rng.randint(1, n), rng.randint(1, n))
                for _ in range(rng.randint(0, 40))
            ]
            parent: dict[int, int] = {}

            def find(x):
                while x in parent:
                    x = parent[x]
                return x

            closed = 0
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx == ry:
                    closed += 1
                else:
                    parent[rx] = ry
            uf = _UnionFind()
            assert uf.merge(pairs) == closed
            root = uf.roots()
            assert set(root) == set(parent)
            assert [root.get(e, e) for e in range(1, n + 1)] == [
                find(e) for e in range(1, n + 1)
            ]

    def test_long_chains_are_read_without_a_quadratic_walk(self):
        """Merging and reading a chain of n labels looks up O(n) parents
        (about 6n here); a walk that halved no path would need about n**2/2."""

        class Counting(dict):
            lookups = 0

            def __contains__(self, key):
                Counting.lookups += 1
                return dict.__contains__(self, key)

        n = 2000
        for pairs in (
            [(i, i + 1) for i in range(1, n)],
            [(i + 1, i) for i in range(1, n)],
            [(1, i) for i in range(2, n + 1)],
        ):
            uf = _UnionFind()
            uf.parent = Counting()
            Counting.lookups = 0
            assert uf.merge(pairs) == 0
            assert len(set(uf.roots().values())) == 1
            assert Counting.lookups < 10 * n


def _fig8() -> TangleTemplate:
    return TangleTemplate(parse_pd(FIG8_TEMPLATE), (1, 0))


def _node() -> CertNode:
    return CertNode(F(1, 1), None, ("base", "unknot"))


FIG8_REPR = (
    "TangleTemplate(diagram=LinkDiagram(crossings=(), slots=((1, 2, 1, 2),),"
    " loops=0, orientation=None), coeffs=(1, 0))"
)
NODE_REPR = (
    "CertNode(frac=TangleFraction(p=1, q=1), orient=None, just=('base', 'unknot'))"
)

# one instance of every record class, built fresh by each call, and its repr
RECORDS = [
    (lambda: parse_pd(UNKNOT_KINK),
     "LinkDiagram(crossings=((1, 2, 2, 1),), slots=(), loops=0, orientation=None)"),
    (lambda: ColoringMatrix(((1, -1), (-1, 1))),
     "ColoringMatrix(entries=((1, -1), (-1, 1)))"),
    (lambda: F(-2, 5), "TangleFraction(p=-2, q=5)"),
    (lambda: ContinuedFraction((None, 2, 3)), "ContinuedFraction(terms=(None, 2, 3))"),
    (lambda: CompiledTangle(((1, 2, 4, 3),), 1, 3, 2, 4),
     "CompiledTangle(crossings=((1, 2, 4, 3),), nw=1, ne=3, sw=2, se=4)"),
    (lambda: FareyPair(F(1, 2), F(1, 3)),
     "FareyPair(f1=TangleFraction(p=1, q=2), f2=TangleFraction(p=1, q=3))"),
    (_fig8, FIG8_REPR),
    (lambda: ScanReport(1, ((F(1, 0), 1, (F(0, 1),)),)),
     "ScanReport(bound=1, records=((TangleFraction(p=1, q=0), 1,"
     " (TangleFraction(p=0, q=1),)),))"),
    (_node, NODE_REPR),
    (lambda: OrientedTarget(F(1, 2), "parallel"),
     "OrientedTarget(fraction=TangleFraction(p=1, q=2), orientation='parallel')"),
    (lambda: Certificate("unoriented", (_node(),), _fig8()),
     f"Certificate(kind='unoriented', nodes=({NODE_REPR},), ambient={FIG8_REPR})"),
    (lambda: Verdict(False, 3, 1, "determinant zero"),
     "Verdict(accepted=False, check=3, node=1, message='determinant zero')"),
    (lambda: CorpusEntry("3_1", TREFOIL, 1, 3),
     f"CorpusEntry(name='3_1', pd='{TREFOIL}', components=1, determinant=3)"),
]


class TestValueSemantics:
    """Every value class behaves as a frozen dataclass record."""

    @pytest.mark.parametrize(
        "make, text", RECORDS, ids=[text.partition("(")[0] for _, text in RECORDS]
    )
    def test_every_record_class(self, make, text):
        a, b = make(), make()
        values = tuple(getattr(a, f) for f in a._fields)
        assert a == b and a is not b and hash(a) == hash(b) == hash(values)
        twin = type("Twin", (_Record,), {"_fields": a._fields})(*values)
        assert a != twin and twin != a and a != values
        assert repr(a) == text
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(a, a._fields[0])
        for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert copied == a and type(copied) is type(a)

    def test_tangle_fractions_order_by_p_then_q(self):
        fs = [F(1, 2), F(-1, 3), F(1, 0), F(0, 1), F(1, 3)]
        assert sorted(fs) == [F(-1, 3), F(0, 1), F(1, 0), F(1, 2), F(1, 3)]
        assert F(1, 2) < F(1, 3) <= F(1, 3) and F(2, 1) > F(1, 3) >= F(1, 3)
        with pytest.raises(TypeError):
            F(1, 2) < (1, 3)  # noqa: B015 - only fractions compare

    def test_equal_by_value_and_hashable(self):
        a, b = parse_pd(TREFOIL), parse_pd(TREFOIL)
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != parse_pd(HOPF) and a != a.crossings
        assert a != a.with_orientation((1,))
        assert len({a, b, parse_pd(HOPF)}) == 2
        assert LinkDiagram(a.crossings) == a

    def test_fields_cannot_change(self):
        d = parse_pd(HOPF)
        with pytest.raises(AttributeError):
            d.loops = 1
        with pytest.raises(AttributeError):
            del d.crossings
        assert d == parse_pd(HOPF)
