import itertools

import pytest

from maxilat import (Adjoint, MapError, MonotoneMap, OrderExtension,
                     PosetError, adjoint_of, classify, dm_completion,
                     enumerate_posets, enumerate_unlabeled_posets,
                     heyting_arrow, is_meet_continuous_over, is_residuated,
                     iter_monotone_values, maxitivity_witness, theorem_5_4)
from maxilat import residuation
from maxilat.catalog import antichain, chain, m3, n5
from maxilat.harness import run_suite
from maxilat.maxitive import _sublevel_masks
from maxilat.poset import _frozen

from conftest import (is_sup_map, oracle_is_maxitive,
                      oracle_is_meet_continuous_over, oracle_is_residuated,
                      oracle_sublevel_family)


@pytest.fixture
def seven_indicator(seven):
    values = tuple(1 if seven.label_of(g) == "z" else 0
                   for g in range(seven.n))
    return MonotoneMap(seven, chain(2), values)


class TestCompletelyMaxitive:
    def test_identity_on_a_lattice(self, b2):
        assert maxitivity_witness(MonotoneMap(b2, b2, tuple(range(4)))) is None

    def test_seven_element_counterexample(self, seven_indicator):
        assert maxitivity_witness(seven_indicator) is not None

    def test_coincides_with_maxitivity_on_finite_posets(self):
        for e in enumerate_unlabeled_posets(4):
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    assert (maxitivity_witness(v) is None) == oracle_is_maxitive(v)

    def test_sup_map_needs_bottom_to_go_to_bottom(self, chain3):
        point = chain(1)
        v = MonotoneMap(point, antichain(2), (0,))
        assert maxitivity_witness(v) is None
        assert not is_sup_map(v)    # the target has no bottom
        w = MonotoneMap(chain3, chain3, (0, 0, 1))
        assert is_sup_map(w)
        x = MonotoneMap(chain3, chain3, (1, 1, 2))
        assert maxitivity_witness(x) is None and not is_sup_map(x)

    def test_sup_map_unconstrained_without_a_bottom(self, two_antichain):
        v = MonotoneMap(two_antichain, chain(2), (1, 1))
        assert is_sup_map(v)


class TestResiduated:
    def test_identity_on_a_chain(self, chain3):
        ext = OrderExtension(chain3, chain3, (0, 1, 2))
        assert is_residuated(MonotoneMap(chain3, chain3, (0, 1, 2)), ext)

    def test_seven_element_counterexample(self, seven, seven_indicator):
        assert not is_residuated(seven_indicator, dm_completion(seven))

    def test_complete_source_sup_maps_are_residuated(self):
        for e in enumerate_unlabeled_posets(4):
            if not classify(e).is_complete_lattice:
                continue
            ext = dm_completion(e)
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    if is_sup_map(v):
                        assert is_residuated(v, ext)

    def test_empty_sublevel_blocks_residuation_on_bottomed_sources(self):
        point = chain(1)
        v = MonotoneMap(point, antichain(2), (0,))
        assert not is_residuated(v, dm_completion(point))


    def test_lookup_matches_the_definition_on_the_thm_5_4_corpus(self):
        # the maps of the thm-5-4 claim at size 4, on the same completions
        maps = 0
        for e in enumerate_unlabeled_posets(4):
            ext = dm_completion(e)
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    assert is_residuated(v, ext) == oracle_is_residuated(v, ext)
                    assert tuple(map(_frozen, _sublevel_masks(v))) \
                        == oracle_sublevel_family(v)
                    maps += 1
        assert maps == 2436


class TestAdjoint:
    def test_identity_adjoint_is_identity(self, chain3):
        ext = OrderExtension(chain3, chain3, (0, 1, 2))
        adj = adjoint_of(MonotoneMap(chain3, chain3, (0, 1, 2)), ext)
        assert adj.map.values == (0, 1, 2)

    def test_constant_bottom_map_has_constant_top_adjoint(self, chain3):
        ext = OrderExtension(chain3, chain3, (0, 1, 2))
        adj = adjoint_of(MonotoneMap(chain3, chain3, (0, 0, 0)), ext)
        assert adj.map.values == (2, 2, 2)

    def test_adjoint_recovers_the_sublevel_ideals(self):
        for e in enumerate_unlabeled_posets(3):
            ext = dm_completion(e)
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    v = MonotoneMap(e, l, values)
                    if not is_residuated(v, ext):
                        continue
                    adj = adjoint_of(v, ext)
                    for t, level in enumerate(oracle_sublevel_family(v)):
                        assert ext.down_in_base(adj(t)) == level

    def test_galois_condition_is_validated(self, chain3):
        ext = OrderExtension(chain3, chain3, (0, 1, 2))
        v = MonotoneMap(chain3, chain3, (0, 1, 2))
        bad = MonotoneMap(chain3, chain3, (0, 0, 0))
        with pytest.raises(MapError, match="Galois"):
            Adjoint(v, ext, bad)

    def test_non_residuated_map_has_no_adjoint(self, seven, seven_indicator):
        with pytest.raises(MapError, match="not residuated"):
            adjoint_of(seven_indicator, dm_completion(seven))


class TestMeetContinuityOverBase:
    def test_plain_and_relative_readings_differ(self):
        three = antichain(3)
        ext = dm_completion(three)
        assert classify(ext.complete).is_meet_continuous
        assert not is_meet_continuous_over(ext)

    def test_complete_bases_are_relatively_meet_continuous(self):
        for e in enumerate_unlabeled_posets(4):
            if classify(e).is_complete_lattice:
                assert is_meet_continuous_over(dm_completion(e))

    def test_masks_agree_with_the_definition(self):
        verdicts = []
        for e in enumerate_unlabeled_posets(4):
            ext = dm_completion(e)
            verdicts.append(is_meet_continuous_over(ext))
            assert verdicts[-1] == oracle_is_meet_continuous_over(ext)
        assert True in verdicts and False in verdicts

    def test_computed_once_per_extension_in_the_thm_5_4_claim(self, monkeypatch):
        calls = []
        original = residuation.is_meet_continuous_over

        def counted(ext):
            calls.append(ext)
            return original(ext)

        monkeypatch.setattr(residuation, "is_meet_continuous_over", counted)
        residuation._meet_continuous_over_once.cache_clear()
        try:
            records = list(run_suite("thm-5-4", max_size=4))
        finally:
            residuation._meet_continuous_over_once.cache_clear()
        sources = list(enumerate_unlabeled_posets(4))
        assert len(records) == 192
        assert [ext.base for ext in calls] == sources
        assert len(set(calls)) == len(sources) == 24


class TestTheorem54:
    def test_forward_direction_never_fails(self):
        for e in enumerate_unlabeled_posets(3):
            ext = dm_completion(e)
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    verdict = theorem_5_4(MonotoneMap(e, l, values), ext)
                    assert verdict.forward_holds

    def test_converse_holds_under_its_hypotheses(self):
        for e in enumerate_unlabeled_posets(3):
            ext = dm_completion(e)
            for l in enumerate_unlabeled_posets(3):
                for values in iter_monotone_values(e, l):
                    verdict = theorem_5_4(MonotoneMap(e, l, values), ext)
                    assert verdict.converse_holds

    def test_nonempty_convention_counterexample_is_reported_not_asserted(self):
        # the smallest instance separating the two complete-maxitivity
        # conventions: one point into a two-point antichain
        point = chain(1)
        ext = dm_completion(point)
        verdict = theorem_5_4(MonotoneMap(point, antichain(2), (0,)), ext)
        assert verdict.completely_maxitive
        assert not verdict.sup_map
        assert not verdict.residuated
        assert verdict.source_complete
        assert verdict.converse_applicable and verdict.converse_holds

    def test_relative_meet_continuity_gates_the_converse(self):
        # the three-point antichain admits an unresiduated sup-map, and is
        # excluded from the converse exactly because the relative reading
        # of meet-continuity fails
        three = antichain(3)
        ext = dm_completion(three)
        v = MonotoneMap(three, chain(2), (0, 0, 1))
        verdict = theorem_5_4(v, ext)
        assert verdict.sup_map and not verdict.residuated
        assert not verdict.converse_applicable
        assert verdict.completion_meet_continuous        # plain reading
        assert not verdict.completion_meet_continuous_over_base


class TestHeytingArrow:
    def test_chain_examples(self, chain3):
        assert heyting_arrow(chain3, 2, 1) == 0
        assert heyting_arrow(chain3, 0, 2) == 2
        assert heyting_arrow(chain3, 1, 1) == 0

    def test_reflexive_arrow_is_bottom(self, b2):
        for r in range(b2.n):
            assert heyting_arrow(b2, r, r) == b2.bottom()

    def test_adjunction_on_all_small_distributive_lattices(self):
        for l in enumerate_posets(4):
            profile = classify(l)
            if not (profile.is_lattice and profile.is_distributive and l.n):
                continue
            for r, s in itertools.product(range(l.n), repeat=2):
                arrow = heyting_arrow(l, r, s)
                for t in range(l.n):
                    assert (l.leq(s, l.sup_of((r, t)))) == l.leq(arrow, t)

    def test_agrees_with_least_element_scan(self):
        for l in enumerate_posets(4):
            profile = classify(l)
            if not (profile.is_lattice and profile.is_distributive and l.n):
                continue
            for r, s in itertools.product(range(l.n), repeat=2):
                admissible = [t for t in range(l.n)
                              if l.leq(s, l.sup_of((r, t)))]
                least = next(m for m in admissible
                             if all(l.leq(m, t) for t in admissible))
                assert heyting_arrow(l, r, s) == least

    def test_decomposition_when_comparable(self, chain3):
        for r in range(3):
            for s in range(r, 3):
                arrow = heyting_arrow(chain3, r, s)
                assert chain3.sup_of((r, arrow)) == s

    def test_non_distributive_lattices_are_rejected(self):
        for lattice in (m3(), n5()):
            with pytest.raises(PosetError, match="distributive"):
                heyting_arrow(lattice, 1, 2)

    def test_non_distributive_lattices_really_lack_least_elements(self):
        # the rejection is not gratuitous: some admissible set has no least
        for lattice in (m3(), n5()):
            gap = False
            for r, s in itertools.product(range(lattice.n), repeat=2):
                admissible = [t for t in range(lattice.n)
                              if lattice.leq(s, lattice.sup_of((r, t)))]
                if not any(all(lattice.leq(m, t) for t in admissible)
                           for m in admissible):
                    gap = True
            assert gap

    def test_incomplete_posets_are_rejected(self, two_antichain):
        with pytest.raises(PosetError, match="complete"):
            heyting_arrow(two_antichain, 0, 1)
