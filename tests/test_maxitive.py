import copy
import dataclasses
import itertools
import pickle
import re
from fractions import Fraction

import pytest

from maxilat import (FinitePoset, IdealFamily, InvariantError, MapError,
                     MonotoneMap,
                     OrderExtension, RationalConeMap, alternating_witness, build_selection,
                     classify, dm_completion, e_lower_star, e_star,
                     enumerate_posets, enumerate_unlabeled_posets,
                     extend_lower_star, extend_star,
                     from_ideal_family, ideal_family_of,
                     is_pairwise_maxitive, iter_monotone_values,
                     maxitivity_witness, way_above)
from maxilat.selections import continuity_report
from maxilat import maxitive
from maxilat.catalog import antichain, chain, diamond, m3

from conftest import (FrozensetBounds, WholeBaseTraces, delta, members,
                      oracle_alternating_witness, oracle_cone_is_maxitive,
                      oracle_cone_pairwise, oracle_e_lower_star,
                      oracle_extend_star_values, oracle_from_ideal_family,
                      oracle_ideal_family, oracle_is_ideal, oracle_is_maxitive,
                      oracle_is_right_continuous, oracle_iter_monotone_values,
                      oracle_lower_sets, oracle_monotone_map,
                      oracle_monotone_maps, oracle_sublevel_family,
                      oracle_sup)


def assert_agrees_with_oracle(v):
    """The verdict matches the oracle, and a witness is a real offending
    family: its supremum s exists in the source, and the supremum of its
    values in the target is missing or differs from v(s)."""
    witness = maxitivity_witness(v)
    assert (witness is None) == oracle_is_maxitive(v)
    if witness is not None:
        s = oracle_sup(v.source, witness)
        assert s is not None
        assert oracle_sup(v.target, {v.values[g] for g in witness}) != v.values[s]


def reference_alternating_witness(v, depth):
    """The scan order of alternating_witness, each sign read off the
    Fraction-valued definitional delta."""
    n = v.source.n
    for length in range(1, depth + 1):
        sign = 1 if length % 2 == 1 else -1
        for gs in itertools.combinations_with_replacement(range(n), length):
            for g in range(n):
                if sign * delta(v, g, gs) < 0:
                    return g, gs
    return None


def outcome(fn, *args):
    """What fn(*args) returns, or the text of the MapError it raises."""
    try:
        return fn(*args)
    except MapError as exc:
        return ("MapError", str(exc))


@pytest.fixture
def seven_indicator(seven):
    two = chain(2)
    values = tuple(1 if seven.label_of(g) == "z" else 0
                   for g in range(seven.n))
    return MonotoneMap(seven, two, values)


class TestMonotoneMap:
    def test_rejects_non_monotone(self, chain3):
        with pytest.raises(MapError, match="order-preserving"):
            MonotoneMap(chain3, chain3, (2, 1, 0))

    def test_rejects_bad_arity_and_range(self, chain3):
        with pytest.raises(MapError, match="values"):
            MonotoneMap(chain3, chain3, (0, 1))
        with pytest.raises(MapError, match="range"):
            MonotoneMap(chain3, chain3, (0, 1, 7))

    def test_a_value_that_is_not_an_int_is_out_of_range(self):
        c2 = chain(2)
        for bad in (1.0, "1", None):
            with pytest.raises(MapError,
                               match=f"value {bad} out of range"):
                MonotoneMap(c2, c2, (0, bad))

    def test_a_bool_is_not_an_index(self):
        c2 = chain(2)
        for values, bad in (((False, True), False), ((0, True), True)):
            with pytest.raises(MapError) as info:
                MonotoneMap(c2, c2, values)
            assert str(info.value) == \
                f"value {bad} out of range for the target poset"

    def test_keeps_the_protocol_of_a_frozen_dataclass(self, chain3):
        v = MonotoneMap(chain3, chain3, [0, 1, 1])
        w = MonotoneMap(source=chain3, target=chain3, values=(0, 1, 1))
        assert v.values == (0, 1, 1) and v(2) == 1
        assert v == w and hash(v) == hash(w) and len({v, w}) == 1
        assert v != MonotoneMap(chain3, chain3, (0, 1, 2))
        assert v != MonotoneMap(chain3, chain(2), (0, 1, 1))
        assert v != (0, 1, 1) and v != RationalConeMap(chain3, (0, 1, 1))
        assert repr(v) == (f"MonotoneMap(source={chain3!r}, "
                           f"target={chain3!r}, values=(0, 1, 1))")
        for name in ("source", "target", "values", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(v, name)
        assert v.values == (0, 1, 1)
        assert copy.copy(v) == v and copy.deepcopy(v) == v
        assert pickle.loads(pickle.dumps(v)) == v

    def test_cover_check_agrees_with_the_full_scan(self):
        # every value tuple, monotone or not, between unlabeled posets of
        # size <= 3: the same verdicts and the same error texts
        posets = list(enumerate_unlabeled_posets(3))
        rejected = 0
        for e in posets:
            for l in posets:
                for values in itertools.product(range(l.n), repeat=e.n):
                    expected = outcome(oracle_monotone_map, e, l, values)
                    got = outcome(lambda: MonotoneMap(e, l, values).values)
                    assert got == expected
                    rejected += got != values
        assert rejected > 0

    def test_iter_monotone_values_matches_the_recursive_generator(self):
        # every pair of unlabeled posets of size <= 4, and the empty poset
        # on either side: the same tuples in the same order
        posets = [FinitePoset(())] + list(enumerate_unlabeled_posets(4))
        maps = 0
        for e in posets:
            for l in posets:
                got = list(iter_monotone_values(e, l))
                assert got == list(oracle_iter_monotone_values(e, l))
                maps += len(got)
        assert list(iter_monotone_values(FinitePoset(()), chain(2))) == [()]
        assert maps > 0

    def test_iter_monotone_values_matches_oracle(self):
        for e in enumerate_unlabeled_posets(3):
            for l in enumerate_unlabeled_posets(3):
                assert (list(iter_monotone_values(e, l))
                        == sorted(oracle_monotone_maps(e, l)))


class TestMaxitivity:
    def test_seven_element_counterexample(self, seven, seven_indicator):
        assert is_pairwise_maxitive(seven_indicator)
        witness = maxitivity_witness(seven_indicator)
        assert witness == {seven.index_of(x) for x in ("a", "b", "c")}

    def test_constant_maps_are_maxitive(self, seven):
        two = chain(2)
        for c in range(2):
            assert maxitivity_witness(
                MonotoneMap(seven, two, (c,) * seven.n)) is None

    def test_identity_on_a_lattice_is_maxitive(self, b2):
        assert maxitivity_witness(
            MonotoneMap(b2, b2, tuple(range(b2.n)))) is None

    def test_agrees_with_the_definitional_oracle(self):
        checked = 0
        for e in enumerate_unlabeled_posets(4):
            for l in enumerate_unlabeled_posets(4):
                for values in iter_monotone_values(e, l):
                    assert_agrees_with_oracle(MonotoneMap(e, l, values))
                    checked += 1
        assert checked == 19702

    def test_agrees_with_the_oracle_on_labeled_5_posets_into_c2(self):
        c2 = chain(2)
        checked = 0
        for e in enumerate_posets(5):
            if e.n == 5:
                for values in iter_monotone_values(e, c2):
                    assert_agrees_with_oracle(MonotoneMap(e, c2, values))
                    checked += 1
        assert checked == 46922

    def test_pairwise_equals_maxitive_on_join_semilattices(self):
        for e in enumerate_unlabeled_posets(5):
            if not classify(e).is_join_semilattice:
                continue
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    assert (maxitivity_witness(v) is None) == is_pairwise_maxitive(v)

    def test_maxitive_implies_pairwise_everywhere(self):
        for e in enumerate_unlabeled_posets(3):
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    if maxitivity_witness(v) is None:
                        assert is_pairwise_maxitive(v)


class TestIdealFamilies:
    def test_canonical_family_of_the_identity(self, chain3):
        fam = ideal_family_of(MonotoneMap(chain3, chain3, (0, 1, 2)))
        assert members(fam) == (frozenset({0}), frozenset({0, 1}),
                                frozenset({0, 1, 2}))

    def test_canonical_family_of_a_constant(self, chain3):
        fam = ideal_family_of(MonotoneMap(chain3, chain3, (0, 0, 0)))
        assert all(ideal == frozenset({0, 1, 2}) for ideal in members(fam))

    def test_rejects_non_maxitive_map(self, seven_indicator):
        with pytest.raises(MapError, match="not maxitive"):
            ideal_family_of(seven_indicator)

    def test_witness_only_on_the_failure_path(self, monkeypatch, chain3,
                                              seven_indicator):
        # the offending family is named only when the sublevel test fails,
        # from the sublevel masks already built: maxitivity_witness does not
        # scan the map a second time
        calls = []
        witness = maxitive.maxitivity_witness
        monkeypatch.setattr(maxitive, "maxitivity_witness",
                            lambda v: calls.append(v) or witness(v))
        ideal_family_of(MonotoneMap(chain3, chain3, (0, 1, 1)))
        expected = sorted(witness(seven_indicator))
        with pytest.raises(MapError) as err:
            ideal_family_of(seven_indicator)
        assert str(err.value) == (
            f"map is not maxitive; offending family {expected}")
        assert calls == []

    def test_error_names_the_witness_family(self):
        # every monotone map between unlabeled posets, sources <= 4 and
        # targets <= 3: a family exactly for the maxitive maps, otherwise a
        # MapError naming maxitivity_witness's family
        failures = 0
        for e in enumerate_unlabeled_posets(4):
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    family = maxitivity_witness(v)
                    if family is None:
                        assert ideal_family_of(v).target is l
                        continue
                    failures += 1
                    with pytest.raises(MapError) as err:
                        ideal_family_of(v)
                    assert str(err.value) == ("map is not maxitive; offending "
                                              f"family {sorted(family)}")
        assert failures > 0

    def test_mask_route_agrees_with_the_frozenset_route(self):
        # between unlabeled posets of size <= 3: ideal_family_of on every
        # monotone map, and IdealFamily on every family of subsets, with
        # from_ideal_family and is_right_continuous under the three built-in
        # selections on each family it accepts; the same verdicts, values
        # and MapError texts as the frozenset route
        posets = list(enumerate_unlabeled_posets(3))
        kinds = ("principal", "filtered", "upper")
        errors = set()
        for e in posets:
            bounds = FrozensetBounds(e)
            subsets = [frozenset(c) for r in range(e.n + 1)
                       for c in itertools.combinations(range(e.n), r)]
            for l in posets:
                sels = [build_selection(l, kind) for kind in kinds]
                rels = [way_above(l, sel) for sel in sels]
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    family = oracle_sublevel_family(v)
                    expected = outcome(oracle_ideal_family, e, l, family)
                    if expected != family:
                        witness = next(w for w in map(bounds.unclosed_family,
                                                      family) if w)
                        expected = ("MapError", "map is not maxitive; "
                                    f"offending family {sorted(witness)}")
                    assert outcome(lambda: members(ideal_family_of(v))) == expected
                for family in itertools.product(subsets, repeat=l.n):
                    expected = outcome(oracle_ideal_family, e, l, family)
                    masks = [e._mask(f) for f in family]
                    assert outcome(lambda: members(IdealFamily(e, l, masks))) \
                        == expected
                    if expected != family:
                        errors.add(re.sub(r"\d+", "#", expected[1]))
                        continue
                    fam = IdealFamily(e, l, masks)
                    for sel, rel in zip(sels, rels):
                        assert (outcome(lambda: from_ideal_family(fam, sel).values)
                                == outcome(oracle_from_ideal_family, fam, sel))
                        assert (fam.is_right_continuous(rel)
                                == oracle_is_right_continuous(fam, rel))
        assert errors == {"member at # is not an ideal of the source",
                          "family decreases from # to #"}

    def test_rejects_non_ideal_members(self, b2, chain3):
        atoms = frozenset({b2.index_of("a"), b2.index_of("b")})
        with pytest.raises(MapError, match="ideal"):
            IdealFamily(b2, chain3, [b2._mask(atoms)] * 3)

    def test_rejects_decreasing_families(self, chain3):
        with pytest.raises(MapError, match="decreases"):
            IdealFamily(chain3, chain3, map(chain3._mask, ({0, 1}, {0}, {0})))

    def test_sublevel_family_evaluates_back(self):
        c2, c3 = chain(2), chain(3)
        sel = build_selection(c3, "principal")
        fam = IdealFamily(c2, c3, map(c2._mask, ((), {0}, {0, 1})))
        v = from_ideal_family(fam, sel)
        assert v.values == (1, 2)

    def test_missing_membership_set_is_an_error(self, chain3):
        c2 = chain(2)
        sel = build_selection(chain3, "principal")
        fam = IdealFamily(c2, chain3, map(c2._mask, ((), {0}, {0})))
        with pytest.raises(MapError, match="membership"):
            from_ideal_family(fam, sel)

    def test_both_errors_name_the_first_element(self, chain3):
        c2 = chain(2)
        # g = 0 has membership {1, 2}, a principal filter; g = 1 the empty
        # set, which the principal selection does not hold
        sel = build_selection(chain3, "principal")
        fam = IdealFamily(c2, chain3, map(c2._mask, ((), {0}, {0})))
        expected = ("MapError", "membership set of 1 is not a selected set")
        assert outcome(from_ideal_family, fam, sel) == expected
        assert outcome(oracle_from_ideal_family, fam, sel) == expected
        # the upper sets of an antichain hold the empty set, whose infimum
        # would be a top that the antichain lacks
        a2 = antichain(2)
        sel = build_selection(a2, "upper")
        for family, g in (((frozenset(), frozenset({0})), 1),
                          ((frozenset(), frozenset()), 0)):
            fam = IdealFamily(c2, a2, map(c2._mask, family))
            expected = ("MapError", f"membership set of {g} has no infimum")
            assert outcome(from_ideal_family, fam, sel) == expected
            assert outcome(oracle_from_ideal_family, fam, sel) == expected

    def test_empty_membership_allowed_under_upper_selection(self, chain3):
        # the all-empty family gives the constant top map; it is not
        # right-continuous, yet evaluation is still well defined
        c2 = chain(2)
        sel = build_selection(chain3, "upper")
        fam = IdealFamily(c2, chain3, (0, 0, 0))
        v = from_ideal_family(fam, sel)
        assert v.values == (2, 2)
        assert not fam.is_right_continuous(way_above(chain3, sel))

    def test_round_trip_on_all_small_maxitive_maps(self):
        for e in enumerate_unlabeled_posets(3):
            for l in enumerate_unlabeled_posets(3):
                sel = build_selection(l, "filtered")
                rel = way_above(l, sel)
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    if maxitivity_witness(v) is not None:
                        continue
                    fam = ideal_family_of(v)
                    assert from_ideal_family(fam, sel).values == v.values
                    assert fam.is_right_continuous(rel)

    def test_right_continuous_families_evaluate_to_maxitive_maps(self):
        # the construction direction of the representation result
        c3 = chain(3)
        sel = build_selection(c3, "filtered")
        rel = way_above(c3, sel)
        for e in enumerate_unlabeled_posets(3):
            ideals = [i for i in oracle_lower_sets(e) if oracle_is_ideal(e, i)]
            for fam_tuple in itertools.product(ideals, repeat=3):
                try:
                    fam = IdealFamily(e, c3, map(e._mask, fam_tuple))
                except MapError:
                    continue
                if not fam.is_right_continuous(rel):
                    continue
                try:
                    v = from_ideal_family(fam, sel)
                except MapError:
                    continue
                assert maxitivity_witness(v) is None


class TestRationalCone:
    def test_rejects_negative_values(self, chain3):
        with pytest.raises(MapError, match="nonnegative"):
            RationalConeMap(chain3, (0, Fraction(-1, 2), 1))

    def test_rejects_non_join_semilattice(self, two_antichain):
        with pytest.raises(MapError, match="join-semilattice"):
            RationalConeMap(two_antichain, (0, 0))

    def test_rejects_non_monotone(self, chain3):
        with pytest.raises(MapError, match="order-preserving"):
            RationalConeMap(chain3, (1, 0, 2))
        with pytest.raises(MapError, match="not order-preserving"):
            RationalConeMap(chain(2), (Fraction(1, 2), Fraction(1, 3)))

    def test_order_check_names_the_first_pair_of_the_full_scan(self):
        # covering pairs decide; the scan of every g <= h names the pair
        for p in enumerate_posets(4):
            if not classify(p).is_join_semilattice:
                continue
            for values in itertools.product((0, 1, 2), repeat=p.n):
                bad = next(((g, h) for g in range(p.n) for h in p.up(g)
                            if values[g] > values[h]), None)
                if bad is None:
                    cone = RationalConeMap(p, values)
                    assert cone.values == values and cone._scaled == values
                else:
                    with pytest.raises(MapError) as info:
                        RationalConeMap(p, values)
                    assert str(info.value) == \
                        f"not order-preserving on ({bad[0]}, {bad[1]})"

    def test_a_bool_is_not_a_cone_value(self, chain3):
        with pytest.raises(MapError) as info:
            RationalConeMap(chain3, (0, True, 1))
        assert str(info.value) == "value True is not a rational number"

    def test_is_maxitive_agrees_with_the_all_pairs_law(self):
        # the 4,234 cones of the alternating claim at size 4: one check
        # per pair g < h decides as the law on every ordered pair does
        value_range = chain(4)
        cones = verdicts = 0
        for p in enumerate_posets(4):
            if not classify(p).is_join_semilattice:
                continue
            for values in iter_monotone_values(p, value_range):
                cone = RationalConeMap(p, values)
                verdict = cone.is_maxitive()
                assert verdict == oracle_cone_pairwise(cone)
                cones += 1
                verdicts += verdict
        assert cones == 4234 and 0 < verdicts < cones

    def test_int_values_stay_fractions(self, chain3):
        cone = RationalConeMap(chain3, (0, 1, 3))
        assert all(type(x) is Fraction for x in cone.values)
        assert cone._scaled == (0, 1, 3)

    def test_delta_of_repeated_element_vanishes(self, b2):
        v = RationalConeMap(b2, (0, 1, 2, 2))
        for g in range(b2.n):
            assert delta(v, g, [g]) == 0

    def test_delta_below_is_zero(self, chain3):
        v = RationalConeMap(chain3, (0, 1, 3))
        assert delta(v, 2, [0]) == 0

    def test_delta_on_diamond_atoms(self, b2):
        a, b, top = b2.index_of("a"), b2.index_of("b"), b2.index_of("top")
        v = RationalConeMap(b2, (0, 1, 2, 2))
        assert v.is_maxitive()
        assert delta(v, a, [b]) == v.values[top] - v.values[a]
        assert delta(v, a, [b]) == max(v.values[a], v.values[b]) - v.values[a]

    def test_delta_is_symmetric_in_the_perturbations(self, b2):
        v = RationalConeMap(b2, (0, 1, 1, 3))
        for gs in itertools.product(range(b2.n), repeat=3):
            vals = {delta(v, 0, perm) for perm in itertools.permutations(gs)}
            assert len(vals) == 1

    def test_maxitive_maps_alternate_small(self):
        value_range = chain(4)
        for p in enumerate_unlabeled_posets(3):
            if not classify(p).is_join_semilattice:
                continue
            for values in iter_monotone_values(p, value_range):
                cone = RationalConeMap(p, values)
                if cone.is_maxitive():
                    assert alternating_witness(cone, depth=4) is None

    def test_is_maxitive_agrees_with_the_subset_scan(self):
        # every cone of the alternating claim at size <= 4, and the same
        # values divided by 2, 3 and 6 (which mixes denominators 1, 2, 3 and
        # 6 in one tuple): the scaled ints keep every verdict
        value_range = chain(4)
        verdicts = set()
        for p in enumerate_posets(4):
            if not classify(p).is_join_semilattice:
                continue
            for values in iter_monotone_values(p, value_range):
                verdict = RationalConeMap(p, values).is_maxitive()
                verdicts.add(verdict)
                for d in (1, 2, 3, 6):
                    cone = RationalConeMap(p, [Fraction(x, d) for x in values])
                    assert cone.is_maxitive() == verdict
                    assert oracle_cone_is_maxitive(cone) == verdict
        assert verdicts == {True, False}

    def test_integer_scan_agrees_with_fraction_deltas(self):
        # every monotone cone of the claim, maxitive or not, divided by 2, 3
        # and 6, which mixes denominators 1, 2, 3 and 6 in one tuple; the
        # non-maxitive cones on size-4 lattices supply failing witnesses
        value_range = chain(4)
        failures = 0
        for p in enumerate_unlabeled_posets(4):
            if not classify(p).is_join_semilattice:
                continue
            depth = 4 if p.n <= 3 else 2
            for values in iter_monotone_values(p, value_range):
                for d in (2, 3, 6):
                    cone = RationalConeMap(p, [Fraction(x, d) for x in values])
                    found = alternating_witness(cone, depth)
                    assert found == reference_alternating_witness(cone, depth)
                    failures += found is not None
        assert failures == 45

    def test_plan_agrees_with_the_level_scan(self):
        # witness for witness, on the 4,234 cones of the alternating claim
        # (every monotone cone on its 88 labeled join-semilattices of size
        # <= 4) at depths 1 to 4, and on the same values divided by 2, 3
        # and 6
        value_range = chain(4)
        cones = failures = 0
        for p in enumerate_posets(4):
            if not classify(p).is_join_semilattice:
                continue
            for values in iter_monotone_values(p, value_range):
                cones += 1
                for d in (1, 2, 3, 6):
                    cone = RationalConeMap(p, [Fraction(x, d) for x in values])
                    for depth in range(1, 5):
                        found = alternating_witness(cone, depth)
                        assert found == oracle_alternating_witness(cone, depth)
                        failures += found is not None
        assert cones == 4234
        assert failures > 0

    def test_non_maxitive_map_fails_alternation(self, b2):
        # modular-looking values: v(top) exceeds the max of the atoms
        cone = RationalConeMap(b2, (0, 1, 1, 3))
        assert not cone.is_maxitive()
        assert alternating_witness(cone, depth=2) == (0, (1, 2))

    def test_non_maxitive_fraction_map_fails_alternation(self, b2):
        cone = RationalConeMap(b2, (0, Fraction(1, 2), Fraction(1, 3),
                                    Fraction(3, 2)))
        assert not cone.is_maxitive()
        assert alternating_witness(cone, depth=4) == (0, (1, 2))
        assert reference_alternating_witness(cone, 4) == (0, (1, 2))

    def test_depth_must_be_positive(self, chain3):
        with pytest.raises(MapError, match="depth"):
            alternating_witness(RationalConeMap(chain3, (0, 0, 0)), depth=0)


class TestStarRegion:
    def test_complete_base_star_is_the_image(self, chain3):
        ext = OrderExtension(chain3, chain3, (0, 1, 2))
        sel = build_selection(chain3, "principal")
        assert e_star(ext, sel) == frozenset(range(3))

    def test_antichain_star_is_the_image(self, two_antichain):
        ext = dm_completion(two_antichain)
        for kind in ("principal", "filtered"):
            sel = build_selection(two_antichain, kind)
            assert e_star(ext, sel) == ext.image()

    def test_star_matches_definitional_scan(self):
        for e in enumerate_unlabeled_posets(4):
            ext = dm_completion(e)
            sel = build_selection(e, "principal")
            expected = frozenset(
                a for a in range(ext.complete.n)
                if ext.up_in_base(a) and ext.up_in_base(a) in sel.fsets)
            assert e_star(ext, sel) == expected

    def test_extension_restricts_to_the_original(self):
        c3 = chain(3)
        for e in enumerate_unlabeled_posets(3):
            if not classify(e).is_join_semilattice:
                continue
            ext = dm_completion(e)
            sel_e = build_selection(e, "principal")
            sel_l = build_selection(c3, "principal")
            star = sorted(e_star(ext, sel_e))
            for values in iter_monotone_values(e, c3):
                v = MonotoneMap(e, c3, values)
                if maxitivity_witness(v) is not None:
                    continue
                vstar = extend_star(v, ext, sel_e, sel_l)
                assert maxitivity_witness(vstar) is None
                for g in range(e.n):
                    assert vstar.values[star.index(ext.embed[g])] == values[g]

    def test_values_match_the_frozenset_infima(self):
        # every maxitive map from a join-semilattice of size <= 4 into every
        # poset of size <= 3, under the principal and upper selections (the
        # latter only where the target is a domain under it): the same
        # values, or the same MapError
        targets = [(l, sel) for l in enumerate_unlabeled_posets(3)
                   for kind in ("principal", "upper")
                   if continuity_report(
                       l, sel := build_selection(l, kind)).is_domain]
        compared = refused = 0
        for e in enumerate_unlabeled_posets(4):
            if not classify(e).is_join_semilattice:
                continue
            ext = dm_completion(e)
            for kind in ("principal", "upper"):
                sel_e = build_selection(e, kind)
                star = sorted(e_star(ext, sel_e))
                for l, sel_l in targets:
                    for values in iter_monotone_values(e, l):
                        v = MonotoneMap(e, l, values)
                        if maxitivity_witness(v) is not None:
                            continue
                        compared += 1
                        try:
                            expected = oracle_extend_star_values(v, ext, star,
                                                                 sel_l)
                        except MapError as exc:
                            refused += 1
                            with pytest.raises(MapError,
                                               match=re.escape(str(exc))):
                                extend_star(v, ext, sel_e, sel_l)
                        else:
                            assert extend_star(v, ext, sel_e,
                                               sel_l).values == expected
        assert (compared, refused) == (1052, 14)

    def test_star_region_of_a_join_semilattice_without_bottom(self):
        # a, b < z completes to a diamond; the new bottom cut has a
        # non-principal upper trace, so the star region is just the image
        from maxilat import FinitePoset
        base = FinitePoset.from_relation(3, [(0, 2), (1, 2)],
                                         labels=("a", "b", "z"))
        ext = dm_completion(base)
        assert ext.complete.n == 4
        sel = build_selection(base, "principal")
        star = sorted(e_star(ext, sel))
        assert frozenset(star) == ext.image()
        v = MonotoneMap(base, chain(2), (0, 1, 1))
        vstar = extend_star(v, ext, sel, build_selection(chain(2), "principal"))
        for g in range(base.n):
            assert vstar.values[star.index(ext.embed[g])] == v.values[g]

    def test_failed_restriction_is_an_invariant_error(self):
        c2 = chain(2)
        ext = WholeBaseTraces(dm_completion(c2))
        v = MonotoneMap(c2, c2, (0, 1))
        sel = build_selection(c2, "principal")
        with pytest.raises(InvariantError, match="does not restrict") as info:
            extend_star(v, ext, sel, sel)
        assert not isinstance(info.value, MapError)


class TestLowerStarRegion:
    def test_failed_restriction_is_an_invariant_error(self):
        c2 = chain(2)
        ext = WholeBaseTraces(dm_completion(c2))
        v = MonotoneMap(c2, c2, (0, 1))
        with pytest.raises(InvariantError, match="does not restrict") as info:
            extend_lower_star(v, ext)
        assert not isinstance(info.value, MapError)

    def test_complete_base_keeps_everything(self, chain3):
        ext = OrderExtension(chain3, chain3, (0, 1, 2))
        assert e_lower_star(ext) == frozenset(range(3))

    def test_antichain_keeps_only_the_top(self, two_antichain):
        ext = dm_completion(two_antichain)
        top = ext.complete.top()
        assert e_lower_star(ext) == {top}

    def test_region_matches_its_definition(self):
        for p in enumerate_posets(5):
            ext = dm_completion(p)
            assert e_lower_star(ext) == oracle_e_lower_star(ext)

    def test_meet_semilattice_base_is_kept(self):
        for e in enumerate_unlabeled_posets(4):
            if classify(e).is_meet_semilattice:
                ext = dm_completion(e)
                assert ext.image() <= e_lower_star(ext)

    def test_extension_of_a_constant(self, two_antichain):
        c3 = chain(3)
        ext = dm_completion(two_antichain)
        v = MonotoneMap(two_antichain, c3, (1, 1))
        vlow = extend_lower_star(v, ext)
        assert vlow.values == (1,)

    def test_value_is_the_join_of_the_lower_trace(self, two_antichain):
        c3 = chain(3)
        ext = dm_completion(two_antichain)
        v = MonotoneMap(two_antichain, c3, (1, 2))
        assert extend_lower_star(v, ext).values == (2,)

    def test_missing_target_join_is_an_error(self, two_antichain):
        target = antichain(2)
        ext = dm_completion(two_antichain)
        v = MonotoneMap(two_antichain, target, (0, 1))
        with pytest.raises(MapError, match="supremum"):
            extend_lower_star(v, ext)

    def test_non_distributive_completion_is_an_error(self):
        lattice = m3()
        ext = OrderExtension(lattice, lattice, tuple(range(lattice.n)))
        v = MonotoneMap(lattice, chain(2), (0,) * 4 + (1,))
        with pytest.raises(MapError, match="distributive"):
            extend_lower_star(v, ext)

    def test_minimality_small(self):
        # complete base: the lower-star extension is the map itself, which
        # trivially sits below every extension; exercise a non-complete base
        e = diamond().restrict({0, 1, 2})   # meet-semilattice: bot < a, b
        ext = dm_completion(e)
        c2 = chain(2)
        members = sorted(e_lower_star(ext))
        sub = ext.complete.restrict(members)
        for values in iter_monotone_values(e, c2):
            v = MonotoneMap(e, c2, values)
            if maxitivity_witness(v) is not None:
                continue
            try:
                vlow = extend_lower_star(v, ext)
            except MapError:
                continue
            for wvals in iter_monotone_values(sub, c2):
                w = MonotoneMap(sub, c2, wvals)
                if maxitivity_witness(w) is not None:
                    continue
                if all(wvals[members.index(ext.embed[g])] == values[g]
                       for g in range(e.n)):
                    assert all(vlow.values[k] <= wvals[k]
                               for k in range(len(members)))
