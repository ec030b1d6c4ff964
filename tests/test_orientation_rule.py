"""The orientation rule, stated once per layer, against the class tables it
was once stated with (kept in `tangle_oracles`).

skein's slot query `orientation_compatible` must give the value, or the
exception type and message, that the endpoint-flow chain (`slot_io`, then
`compatible_classes_for_slot`) gives. certify's `OrientedTarget` must refuse
exactly the odd-denominator fractions whose forced tag (`orientation_class`)
is the other one, with the same message.
"""

from itertools import product

import pytest

from tanglekit.certify import CertificateError, OrientedTarget
from tanglekit.corpus import bundled_templates
from tanglekit.skein import TangleTemplate, orientation_compatible, reduced_fractions
from tanglekit.tangle import ANTIPARALLEL, PARALLEL, TangleFraction, connectivity

from tangle_oracles import compatible_classes_for_slot, orientation_class

F = TangleFraction.parse


def outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


def test_slot_query_matches_the_class_tables():
    """Every stock template, unoriented and under every flag vector, at every
    slot from -1 to the slot count, for every reduced |p|, q <= 6."""
    fractions = reduced_fractions(6)
    seen = {True: 0, False: 0}
    for name, stock in sorted(bundled_templates().items()):
        d = stock.diagram
        for flags in (None, *product((1, -1), repeat=len(d._units))):
            t = TangleTemplate(d.with_orientation(flags))
            for slot in range(-1, t.slot_count + 1):
                for f in fractions:
                    new = outcome(lambda: orientation_compatible(t, slot, f))
                    old = outcome(
                        lambda: connectivity(f) in compatible_classes_for_slot(t, slot)
                    )
                    assert new == old, (name, flags, slot, f)
                    if isinstance(new, bool):
                        seen[new] += 1
    assert seen[True] >= 1000 and seen[False] >= 500, seen


def test_oriented_target_matches_orientation_class():
    """Every reduced |p|, q <= 40, 1/0 included, under both tags."""
    built = refused = 0
    for f in reduced_fractions(40):
        for tag in (PARALLEL, ANTIPARALLEL):
            forced = orientation_class(f)
            got = outcome(lambda: OrientedTarget(f, tag))
            if forced is None or forced == tag:
                assert isinstance(got, OrientedTarget), (f, tag, got)
                assert (got.fraction, got.orientation) == (f, tag)
                built += 1
            else:
                message = f"{f} admits only the {forced} orientation"
                assert got == (CertificateError, message), (f, tag)
                refused += 1
    assert (built, refused) == (2623, 1297)


class TestOrientedTargetSector:
    """The forced tags of odd-denominator fractions, as OrientedTarget
    applies them."""

    def test_forced_classes(self):
        for text, tag, other in (("1/3", PARALLEL, ANTIPARALLEL),
                                 ("2/3", ANTIPARALLEL, PARALLEL)):
            assert OrientedTarget(F(text), tag).orientation == tag
            with pytest.raises(CertificateError, match=f"only the {tag} orientation"):
                OrientedTarget(F(text), other)

    def test_even_denominator_unconstrained(self):
        for tag in (PARALLEL, ANTIPARALLEL):
            assert OrientedTarget(F("1/2"), tag).orientation == tag
