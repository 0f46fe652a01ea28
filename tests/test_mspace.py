import itertools
from collections import Counter

import pytest

from maxilat import (FinitePoset, MapError, MaxMapSpace, MonotoneMap,
                     PosetError, SelectionError, build_selection, build_space,
                     classify, enumerate_unlabeled_posets, heyting_arrow,
                     m_arrow, maxitivity_witness, pointwise_inf,
                     reconstruction, representation, way_above)
from maxilat import harness
from maxilat.mspace import join_irreducibles, way_above_in_space
from maxilat.poset import _bits

from conftest import (oracle_frame_violations, oracle_generator_values,
                      oracle_is_maxitive, oracle_lemma_witnesses,
                      oracle_m_arrow, oracle_monotone_maps,
                      oracle_pointwise_inf, oracle_reconstruction,
                      oracle_representation, oracle_space_poset,
                      oracle_way_above_in_space, way_above_matrix)


def small_spaces(max_size=3):
    for e in enumerate_unlabeled_posets(max_size):
        for l in enumerate_unlabeled_posets(max_size):
            if classify(l).is_complete_lattice:
                yield build_space(e, l)


class TestBuildSpace:
    def test_point_source_two_chain(self):
        assert len(build_space(FinitePoset.chain(1),
                               FinitePoset.chain(2))) == 2

    def test_two_chain_to_itself(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(2))
        assert space.maps == ((0, 0), (0, 1), (1, 1))

    def test_seven_element_counterexample_is_excluded(self, seven):
        space = build_space(seven, FinitePoset.chain(2))
        bad = tuple(1 if seven.label_of(g) == "z" else 0
                    for g in range(seven.n))
        assert bad not in space.index

    def test_membership_matches_the_definitional_oracle(self):
        c2 = FinitePoset.chain(2)
        for e in enumerate_unlabeled_posets(3):
            space = build_space(e, c2)
            expected = set()
            for values in oracle_monotone_maps(e, c2):
                if oracle_is_maxitive(MonotoneMap(e, c2, values)):
                    expected.add(values)
            assert set(space.maps) == expected

    def test_candidate_cap(self):
        with pytest.raises(MapError, match="cap"):
            build_space(FinitePoset.chain(4), FinitePoset.chain(4), cap=10)

    def test_target_must_be_complete(self, two_antichain):
        with pytest.raises(MapError, match="complete"):
            build_space(FinitePoset.chain(2), two_antichain)

    def test_space_is_a_complete_lattice(self):
        for space in small_spaces():
            assert classify(oracle_space_poset(space)).is_complete_lattice

    def test_space_inherits_distributivity(self):
        for space in small_spaces():
            if classify(space.target).is_distributive:
                assert classify(oracle_space_poset(space)).is_distributive

    def test_join_is_the_least_upper_bound_in_the_space(
            self, three_atoms_under_top, m3_lattice):
        # every space of size <= 3, A3 -> C4, the M3-shaped space, and a
        # target that is not a chain
        cx = three_atoms_under_top
        spaces = [*small_spaces(),
                  build_space(FinitePoset.antichain(3), FinitePoset.chain(4)),
                  build_space(cx.source, cx.target),
                  build_space(FinitePoset.chain(2), m3_lattice)]
        for space in spaces:
            poset = oracle_space_poset(space)
            for i, j in itertools.product(range(len(space)), repeat=2):
                assert space.join(i, j) == poset.sup_of((i, j))

    def test_down_sets_match_the_pointwise_order(self):
        for space in small_spaces():
            poset = oracle_space_poset(space)
            for k in range(len(space)):
                assert space.below(space.maps[k]) == _bits(poset.down(k))

    def test_join_irreducibles_have_one_lower_cover(self):
        spaces = list(small_spaces(4))
        assert len(spaces) == 120
        for space in spaces:
            lower = Counter(j for _, j in oracle_space_poset(space).covers())
            assert join_irreducibles(space) == tuple(
                k for k in range(len(space)) if lower[k] == 1)

    def test_order_is_built_on_first_use(self, three_atoms_under_top,
                                         m3_lattice):
        # no poset over the maps at all; the pointwise masks only on demand,
        # and then they are the principal filters of the order
        space = build_space(FinitePoset.antichain(5), FinitePoset.chain(4))
        small = build_space(FinitePoset.antichain(3), FinitePoset.chain(4))
        for sp in (space, small):
            sp.join(1, 2)
            m_arrow(sp, len(sp) - 1, 0)
            representation(sp, sp.maps[1])
            assert not hasattr(sp, "poset") and "at_least" not in vars(sp)
        assert len(space) == 4 ** 5
        cx = three_atoms_under_top
        for sp in [small, *small_spaces(), build_space(cx.source, cx.target),
                   build_space(FinitePoset.chain(2), m3_lattice)]:
            poset = oracle_space_poset(sp)
            for k in range(len(sp)):
                assert sp.ups[k] == _bits(poset.up(k))
                assert sp.above(sp.maps[k]) == sp.ups[k]


class TestPointwiseInf:
    def test_singleton_family_at_the_top(self):
        # selected sets are upper sets, so the only selected singleton is
        # the top map's
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        top = space.index_of((2, 2))
        assert pointwise_inf(space, {top}).values == (2, 2)

    def test_principal_filter_gives_its_generator(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        poset = oracle_space_poset(space)
        for k in range(len(space)):
            fam = poset.up(k)
            assert pointwise_inf(space, fam).values == space.maps[k]

    def test_selected_families_have_maxitive_infima(self):
        for space in small_spaces():
            poset = oracle_space_poset(space)
            sel = build_selection(poset, "filtered")
            for fam in sel.fsets:
                inf_map = oracle_pointwise_inf(space, fam, sel)
                assert maxitivity_witness(inf_map) is None
                k = space.index_of(inf_map.values)
                assert all(poset.leq(k, v) for v in fam)

    def test_unselected_family_is_rejected(self):
        # the selection check lives in the oracle; the library takes any
        # family, as the upper-set counterexample below needs
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        sel = build_selection(oracle_space_poset(space), "filtered")
        bottom = space.index_of((0, 0))
        top = space.index_of((2, 2))
        with pytest.raises(SelectionError, match="selected"):
            oracle_pointwise_inf(space, {bottom, top}, sel)
        assert pointwise_inf(space, {bottom, top}).values == (0, 0)

    def test_an_upper_family_that_is_not_filtered_leaves_the_space(self):
        # why the lemma asks for filtered families: two atoms a, b under a
        # top, into C2
        e = FinitePoset.from_relation(3, [(0, 2), (1, 2)], ("a", "b", "top"))
        space = build_space(e, FinitePoset.chain(2))
        poset = oracle_space_poset(space)
        family = {space.index_of(values)
                  for values in ((0, 1, 1), (1, 0, 1), (1, 1, 1))}
        assert family in build_selection(poset, "upper").fsets
        assert family not in build_selection(poset, "filtered").fsets
        inf_map = pointwise_inf(space, family)
        assert inf_map.values == (0, 0, 1)
        assert maxitivity_witness(inf_map) is not None
        assert inf_map.values not in space.index

    def test_empty_family_is_rejected(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(2))
        with pytest.raises(SelectionError, match="empty"):
            pointwise_inf(space, frozenset())


class TestGenerators:
    def test_top_valued_generator_is_constant_top(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        assert space.generator_maps[0][2] == (2, 2)
        assert (2, 2) in space.index

    def test_top_source_generator_is_constant(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        assert space.generator_maps[1][1] == (1, 1)
        assert (1, 1) in space.index

    def test_two_chain_generator(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(2))
        assert space.generator_maps[0][0] == (0, 1)
        assert (0, 1) in space.index

    def test_generator_maps_are_members_everywhere(self):
        for space in small_spaces():
            for row in space.generator_maps:
                for values in row:
                    assert values in space.index

    def test_way_above_lemma(self):
        for space in small_spaces():
            rel = oracle_way_above_in_space(space)
            sel_l = build_selection(space.target, "filtered")
            rel_l = way_above(space.target, sel_l)
            for k, values in enumerate(space.maps):
                for h in range(space.source.n):
                    for s in range(space.target.n):
                        if rel_l.way_above(s, values[h]):
                            gen = space.index_of(space.generator_maps[h][s])
                            assert rel.way_above(gen, k)


class TestRepresentation:
    def test_exact_reconstruction_everywhere(self):
        for space in small_spaces():
            for values in space.maps:
                gens = representation(space, values)
                assert reconstruction(space, gens) == values

    def test_constant_top_map(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        gens = representation(space, (2, 2))
        assert reconstruction(space, gens) == (2, 2)
        assert all(space.target.leq(2, s) for _, s in gens)

    def test_stress_mode_under_all_upper_sets(self):
        # beyond the hard-wired filtered selection: a distributive target is
        # continuous under the all-upper-sets selection, so reconstruction
        # still succeeds from the generators of that selection's way-above
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        sel = build_selection(space.target, "upper")
        for values in space.maps:
            gens = oracle_representation(space, values, sel)
            assert reconstruction(space, gens) == values

    def test_way_above_collapses_under_filtered_selection(self):
        for space in small_spaces():
            rel = oracle_way_above_in_space(space)
            assert way_above_matrix(rel) == tuple(zip(*rel.poset.matrix))
            assert way_above_in_space(space) == tuple(
                _bits(w for w in range(len(space)) if rel.way_above(w, v))
                for v in range(len(space)))

    def test_corollary_agrees_with_definitional_way_above(self):
        for space in small_spaces():
            rel = oracle_way_above_in_space(space)
            # the maps w way-above v are those above the pointwise infimum
            # of the generators of v
            for v in range(len(space)):
                above = space.above(space.reconstructions[v])
                for w in range(len(space)):
                    assert bool(above >> w & 1) == rel.way_above(w, v)


class TestPerTargetTables:
    def test_representation_builds_one_way_above_per_target(
            self, monkeypatch):
        # the target's filtered way-above is built once per target, not
        # once per map: three complete lattices of size <= 3
        from maxilat import harness, mspace
        mspace._filtered_columns.cache_clear()
        calls = []
        real = mspace.way_above

        def counted(p, sel):
            calls.append(p)
            return real(p, sel)
        monkeypatch.setattr(mspace, "way_above", counted)
        records = list(harness.run_suite("representation", max_size=3))
        mspace._filtered_columns.cache_clear()
        assert len(records) == 24
        assert len(calls) == len(set(calls)) == 3


class TestPerSpaceTables:
    """The per-space tables of MaxMapSpace and the lemmas that read them,
    against the per-call routes they replaced, on all 120 spaces of size
    <= 4."""

    def test_generators_representations_and_reconstructions(self):
        spaces = list(small_spaces(4))
        assert len(spaces) == 120
        for space in spaces:
            for h in range(space.source.n):
                for s in range(space.target.n):
                    assert (space.generator_maps[h][s]
                            == oracle_generator_values(space, (h, s)))
            for k, values in enumerate(space.maps):
                gens = oracle_representation(space, values)
                assert (space.representations[k]
                        == representation(space, values) == gens)
                assert (space.reconstructions[k]
                        == reconstruction(space, gens)
                        == oracle_reconstruction(space, gens) == values)
                # any family of generators, the empty one included
                part = gens[k % 3::3]
                assert (reconstruction(space, part)
                        == oracle_reconstruction(space, part))

    def test_lemma_witnesses_match_the_per_call_routes(self):
        # each space, and each space without its constant-top map, which
        # takes the generator map (h, top) from every map of it
        checked = 0
        for space in small_spaces(4):
            top_map = (space.target.top(),) * space.source.n
            thinned = MaxMapSpace(space.source, space.target,
                                  [m for m in space.maps if m != top_map])
            found = []
            for sp in (space, thinned):
                expected = oracle_lemma_witnesses(sp)
                for name, witnesses in expected.items():
                    assert list(harness.LEMMAS[name](sp)) == witnesses
                found.append(expected)
            assert not any(found[0].values())
            if len(thinned):
                assert len(found[1]["generator"]) == (
                    len(thinned) * space.source.n)
                checked += 1
        # the 24 spaces into the 1-element lattice have one map
        assert checked == 120 - 24

    def test_frame_violations_match_the_per_pair_loop(self):
        spaces = [space for space in small_spaces(4)
                  if classify(space.target).is_distributive]
        assert len(spaces) == 120
        violated = 0
        for space in spaces:
            expected = oracle_frame_violations(space)
            assert list(harness.LEMMAS["frame"](space)) == expected
            violated += bool(expected)
        assert violated == 8


class TestMArrow:
    def test_self_arrow_is_the_bottom_map(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        for u in range(len(space)):
            assert m_arrow(space, u, u).values == (0, 0)

    def test_bottom_arrow_is_the_identity_on_the_right(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        bottom = space.index_of((0, 0))
        for v in range(len(space)):
            assert m_arrow(space, bottom, v).values == space.maps[v]

    def test_adjunction_against_least_scan(self):
        for space in small_spaces():
            if not classify(space.target).is_distributive:
                continue
            poset = oracle_space_poset(space)
            for u, v in itertools.product(range(len(space)), repeat=2):
                arrow = space.index_of(m_arrow(space, u, v).values)
                admissible = [w for w in range(len(space))
                              if poset.leq(v, space.join(u, w))]
                least = next(m for m in admissible
                             if all(poset.leq(m, w) for w in admissible))
                assert arrow == least

    def test_equals_the_pointwise_heyting_formula(self):
        # every (u, v) on each space of size <= 3 into a distributive
        # target, and on A3 -> C4
        spaces = [space for space in small_spaces()
                  if classify(space.target).is_distributive]
        spaces.append(build_space(FinitePoset.antichain(3),
                                  FinitePoset.chain(4)))
        for space in spaces:
            e, l = space.source, space.target
            for u, v in itertools.product(range(len(space)), repeat=2):
                uvals, vvals = space.maps[u], space.maps[v]
                expected = tuple(
                    l.sup_of(frozenset(heyting_arrow(l, uvals[h], vvals[h])
                                       for h in e.down(g)))
                    for g in range(e.n))
                assert m_arrow(space, u, v).values == expected

    def test_decomposition_when_above(self):
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        poset = oracle_space_poset(space)
        for u, v in itertools.product(range(len(space)), repeat=2):
            if not poset.leq(u, v):
                continue
            arrow = space.index_of(m_arrow(space, u, v).values)
            assert space.join(u, arrow) == v

    def test_agrees_with_the_ideal_family_oracle(self):
        # every (u, v) of every unlabeled source of size <= 4 into C2 and C3:
        # the same values, and a MapError on exactly the same pairs
        pairs = raised = 0
        for e in enumerate_unlabeled_posets(4):
            for l in (FinitePoset.chain(2), FinitePoset.chain(3)):
                space = build_space(e, l)
                for u, v in itertools.product(range(len(space)), repeat=2):
                    outcomes = []
                    for arrow in (m_arrow, oracle_m_arrow):
                        try:
                            outcomes.append(arrow(space, u, v).values)
                        except MapError:
                            outcomes.append(None)
                    assert outcomes[0] == outcomes[1], (e, l, u, v)
                    pairs += 1
                    raised += outcomes[0] is None
        assert (pairs, raised) == (21244, 70)

    def test_a_result_outside_the_space_names_its_values(
            self, three_atoms_under_top):
        cx = three_atoms_under_top
        space = build_space(cx.source, cx.target)
        u, v = space.index_of(cx.u), space.index_of(cx.v)
        with pytest.raises(MapError, match=r"^\(0, 0, 1, 1\) is not a max"):
            m_arrow(space, u, v)

    def test_non_distributive_target_is_rejected(self, m3_lattice):
        space = build_space(FinitePoset.chain(1), m3_lattice)
        with pytest.raises(PosetError, match="distributive"):
            m_arrow(space, 0, 1)
