import itertools

import pytest

from maxilat import (FilterSelection, IdealFamily, MapError, MonotoneMap,
                     SelectionError, SelectionKind, WayAboveRelation,
                     build_selection, classify, continuity_report,
                     enumerate_posets, enumerate_unlabeled_posets, fmap,
                     is_union_complete, way_above)
from maxilat.catalog import antichain, chain
from maxilat.poset import _bits

from conftest import (oracle_continuity_report, oracle_filtered_sets,
                      oracle_is_union_complete, oracle_lower_sets,
                      oracle_upper_sets, oracle_way_above, way_above_matrix)


def above(rel, x):
    """The elements way-above x."""
    return frozenset(y for y in range(rel.poset.n) if rel.way_above(y, x))


def fsets_as_sets(sel):
    return {tuple(sorted(f)) for f in sel.fsets}


def builtin_selections():
    """Every built-in selection of the 4,473 labeled posets of size <= 5."""
    for p in enumerate_posets(5):
        for kind in ("principal", "filtered", "upper"):
            yield p, build_selection(p, kind)


def explicit_selections():
    """Every explicit selection of the unlabeled posets of size <= 4: each
    family of non-principal upper sets, under principal and upper recursion."""
    for p in enumerate_unlabeled_posets(4):
        principal = {p.up(x) for x in range(p.n)}
        extra = [f for f in oracle_upper_sets(p) if f not in principal]
        for r in range(len(extra) + 1):
            for family in itertools.combinations(extra, r):
                for recursion in (SelectionKind.PRINCIPAL, SelectionKind.UPPER):
                    yield p, build_selection(p, "explicit",
                                             explicit_sets=family,
                                             recursion_kind=recursion)


class TestBuildSelection:
    def test_chain_principal_filters(self, chain3):
        sel = build_selection(chain3, "principal")
        assert fsets_as_sets(sel) == {(0, 1, 2), (1, 2), (2,)}

    def test_antichain_filtered_sets_are_singletons(self, two_antichain):
        sel = build_selection(two_antichain, "filtered")
        assert fsets_as_sets(sel) == {(0,), (1,)}

    def test_antichain_upper_sets_include_empty(self, two_antichain):
        sel = build_selection(two_antichain, "upper")
        assert fsets_as_sets(sel) == {(), (0,), (1,), (0, 1)}

    def test_explicit_requires_upper_sets(self, chain3):
        with pytest.raises(SelectionError, match="not upper"):
            build_selection(chain3, "explicit", explicit_sets=[{0}])

    def test_explicit_gains_principal_filters(self, b2):
        top = b2.index_of("top")
        sel = build_selection(b2, "explicit", explicit_sets=[{top}])
        for x in range(b2.n):
            assert b2.up(x) in sel.fsets

    def test_filtered_equals_principal_on_finite_posets(self):
        # finite codirected sets have minima, so the library builds the
        # filtered kind as the principal one; the definitional scan checks
        # that shortcut on every labeled poset of size <= 5
        for p in enumerate_posets(5):
            filtered = build_selection(p, "filtered")
            assert filtered.fsets == oracle_filtered_sets(p)

    def test_builtin_sets_are_unchanged_and_masked(self):
        # all 13,419 built-in selections of labeled posets of size <= 5: the
        # sets of the frozenset code, with _masks their bitmasks, each once
        checked = 0
        for p, sel in builtin_selections():
            if sel.kind is SelectionKind.UPPER:
                full = frozenset(range(p.n))
                expected = {full - low for low in oracle_lower_sets(p)}
            else:
                expected = {p.up(x) for x in range(p.n)}
            assert sel.fsets == expected
            assert len(sel._masks) == len(sel.fsets)
            assert set(sel._masks) == {_bits(f) for f in sel.fsets}
            checked += 1
        assert checked == 13419

    def test_constructor_checks_keep_their_messages(self, chain3):
        principal = [chain3._mask(chain3.up(x)) for x in range(3)]
        for masks, message in (
                ([], "at least one set"),
                ([chain3._mask(())], "at least one nonempty"),
                (principal + [chain3._mask({0})], r"\[0\] is not an upper set"),
                (principal + [1 << 3], "a bit outside the 3 elements"),
                (principal[1:], "principal filter of 0 is missing")):
            with pytest.raises(SelectionError, match=message):
                FilterSelection(chain3, SelectionKind.EXPLICIT, masks)


class TestWayAbove:
    def test_principal_collapses_to_order(self):
        for p in enumerate_posets(4):
            rel = way_above(p, build_selection(p, "principal"))
            assert way_above_matrix(rel) == tuple(zip(*p.matrix))

    def test_chain_under_all_upper_sets(self, chain3):
        rel = way_above(chain3, build_selection(chain3, "upper"))
        assert above(rel, 0) == {0, 1, 2}
        assert above(rel, 1) == {1, 2}
        assert above(rel, 2) == frozenset()

    def test_m3_top_not_way_above_itself(self, m3_lattice):
        rel = way_above(m3_lattice, build_selection(m3_lattice, "upper"))
        top = m3_lattice.index_of("top")
        assert not rel.way_above(top, top)

    def test_antitone_in_the_selection(self):
        # more selected sets make way-above harder
        for p in enumerate_posets(4):
            small = way_above(p, build_selection(p, "principal"))
            large = way_above(p, build_selection(p, "upper"))
            for x in range(p.n):
                assert above(large, x) <= above(small, x)

    def test_relation_outside_the_order_is_rejected(self, chain3):
        # 0 way-above 2, below it in the order
        sel = build_selection(chain3, "principal")
        cols = list(way_above(chain3, sel)._cols)
        cols[2] |= chain3._mask({0})
        with pytest.raises(SelectionError, match=r"escapes the order at \(0, 2\)"):
            WayAboveRelation(chain3, sel, cols)
        explicit = build_selection(chain3, "explicit", explicit_sets=[])
        WayAboveRelation(chain3, explicit, cols)

    def test_within_order_for_builtin_kinds(self):
        for p in enumerate_posets(3):
            for kind in ("principal", "filtered", "upper"):
                rel = way_above(p, build_selection(p, kind))
                for x in range(p.n):
                    for y in above(rel, x):
                        assert p.leq(x, y)


class TestContinuity:
    def test_principal_always_continuous(self):
        for p in enumerate_posets(4):
            report = continuity_report(p, build_selection(p, "principal"))
            assert report.is_continuous and report.is_domain

    def test_m3_not_continuous_under_upper(self, m3_lattice):
        report = continuity_report(m3_lattice,
                                   build_selection(m3_lattice, "upper"))
        assert not report.is_continuous
        assert report.continuity_failures

    def test_distributive_lattices_continuous_under_upper(self):
        for p in enumerate_posets(4):
            profile = classify(p)
            if profile.is_lattice:
                report = continuity_report(p, build_selection(p, "upper"))
                assert report.is_continuous == profile.is_distributive

    def test_continuous_implies_interpolation_small(self):
        for p in enumerate_posets(4):
            for kind in ("principal", "filtered", "upper"):
                sel = build_selection(p, kind)
                assert is_union_complete(sel)
                report = continuity_report(p, sel)
                if report.is_continuous:
                    assert report.has_interpolation

    def test_domain_flag_requires_all_infima(self, two_antichain):
        # the empty selected set has no infimum without a top
        report = continuity_report(two_antichain,
                                   build_selection(two_antichain, "upper"))
        assert not report.is_domain
        assert () in report.missing_infima


class TestUnionCompleteness:
    def test_builtin_kinds_on_small_posets(self):
        for p in enumerate_posets(4):
            for kind in ("principal", "filtered", "upper"):
                assert is_union_complete(build_selection(p, kind))

    def test_explicit_diamond_example(self, b2):
        names = ("a", "b", "top")
        extra = {b2.index_of(x) for x in names}
        sel = build_selection(b2, "explicit", explicit_sets=[extra])
        assert is_union_complete(sel)

    def test_explicit_with_upper_recursion_can_fail(self, two_antichain):
        # the empty family is an upper set of the family poset, and its
        # union (the empty set) is not selected
        sel = build_selection(two_antichain, "explicit", explicit_sets=[],
                              recursion_kind=SelectionKind.UPPER)
        assert not is_union_complete(sel)

    def test_explicit_with_upper_recursion_needs_binary_unions(
            self, two_antichain):
        # the empty set is selected, but {a} union {b} is not
        sel = build_selection(two_antichain, "explicit", explicit_sets=[[]],
                              recursion_kind=SelectionKind.UPPER)
        assert frozenset() in sel.fsets
        assert not is_union_complete(sel)
        assert not oracle_is_union_complete(sel)

    def test_explicit_recursion_needs_an_implicit_kind(self, two_antichain):
        sel = build_selection(two_antichain, "explicit", explicit_sets=[],
                              recursion_kind=SelectionKind.EXPLICIT)
        with pytest.raises(SelectionError, match="no implicit set family"):
            is_union_complete(sel)


class TestAgainstOracles:
    # the library decides union-completeness by closure and way-above by
    # one bitmask pass; the conftest oracles enumerate the selection one
    # level up and intersect frozensets

    @staticmethod
    def assert_agrees(p, sel):
        assert is_union_complete(sel) == oracle_is_union_complete(sel)
        assert way_above_matrix(way_above(p, sel)) == oracle_way_above(p, sel)
        assert continuity_report(p, sel) == oracle_continuity_report(p, sel)

    def test_builtin_selections_of_labeled_5_posets(self):
        for p, sel in builtin_selections():
            self.assert_agrees(p, sel)

    def test_explicit_selections_of_unlabeled_4_posets(self):
        verdicts = set()
        for p, sel in explicit_selections():
            self.assert_agrees(p, sel)
            verdicts.add((sel.recursion_kind, is_union_complete(sel)))
        # both recursion kinds are exercised, and upper recursion both ways
        assert verdicts == {(SelectionKind.PRINCIPAL, True),
                            (SelectionKind.UPPER, False),
                            (SelectionKind.UPPER, True)}


class TestFmap:
    def test_identity(self, chain3):
        sel = build_selection(chain3, "principal")
        assert fmap(sel, sel, (0, 1, 2), {1, 2}) == {1, 2}

    def test_constant_to_top(self, chain3):
        sel = build_selection(chain3, "principal")
        assert fmap(sel, sel, (2, 2, 2), {0, 1, 2}) == {2}

    def test_chain_inclusion(self, chain3):
        c2 = chain(2)
        sel2 = build_selection(c2, "principal")
        sel3 = build_selection(chain3, "principal")
        assert fmap(sel2, sel3, (0, 1), {1}) == {1, 2}

    def test_rejects_unselected_argument(self, chain3):
        sel = build_selection(chain3, "principal")
        with pytest.raises(SelectionError, match="not a selected set"):
            fmap(sel, sel, (0, 1, 2), {0, 2})

    def test_rejects_non_monotone_map(self, chain3):
        sel = build_selection(chain3, "principal")
        with pytest.raises(SelectionError, match="order-preserving"):
            fmap(sel, sel, (2, 1, 0), {2})

    def test_accepts_monotone_map_objects(self, chain3):
        sel = build_selection(chain3, "principal")
        f = MonotoneMap(chain3, chain3, (0, 0, 1))
        assert fmap(sel, sel, f, {2}) == {1, 2}

    def test_functoriality_on_small_instances(self):
        c2, c3 = chain(2), chain(3)
        sel2 = build_selection(c2, "upper")
        sel3 = build_selection(c3, "upper")
        maps_f = [(0, 1), (0, 2), (1, 2), (0, 0), (2, 2), (1, 1)]
        maps_g = [(0, 1, 2), (0, 0, 1), (0, 2, 2), (1, 1, 2)]
        for f in maps_f:
            for g in maps_g:
                composed = tuple(g[f[x]] for x in range(2))
                for fset in sel2.fsets:
                    via_two_steps = fmap(sel3, sel3, g,
                                         fmap(sel2, sel3, f, fset))
                    assert fmap(sel2, sel3, composed, fset) == via_two_steps


BAD_MASKS = {
    "selection-bit-at-n": lambda p, sel: FilterSelection(
        p, SelectionKind.EXPLICIT, [*p._upm, 1 << p.n]),
    "selection-negative-mask": lambda p, sel: FilterSelection(
        p, SelectionKind.EXPLICIT, [*p._upm, -1]),
    "family-bit-at-n": lambda p, sel: IdealFamily(p, p, [0, 0, 1 << p.n]),
    "column-bit-at-n": lambda p, sel: WayAboveRelation(p, sel,
                                                       [0, 0, 1 << p.n]),
    "family-too-short": lambda p, sel: IdealFamily(p, p, [0, 0]),
    "family-too-long": lambda p, sel: IdealFamily(p, p, [0, 0, 0, 0]),
    "columns-too-short": lambda p, sel: WayAboveRelation(p, sel, [0, 0]),
    "columns-too-long": lambda p, sel: WayAboveRelation(p, sel, [0] * 4),
}


@pytest.mark.parametrize("case", sorted(BAD_MASKS))
def test_constructors_refuse_bad_masks(chain3, case):
    # the constructors take masks from outside the library too, so a stray
    # bit or a missing entry is the class's own error, never an IndexError;
    # an explicit selection, whose way-above is not checked against the
    # order, leaves the range and length checks alone to refuse a column
    sel = build_selection(chain3, "explicit", explicit_sets=[])
    error = MapError if case.startswith("family") else SelectionError
    with pytest.raises(error):
        BAD_MASKS[case](chain3, sel)
