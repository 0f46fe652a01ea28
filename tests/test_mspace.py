import itertools

import pytest

from maxilat import (Generator, MapError, MonotoneMap, PosetError,
                     SelectionError, build_selection, build_space, classify,
                     corollary_above_set, enumerate_posets, generator_map,
                     generator_values, heyting_arrow, m_arrow,
                     maxitivity_witness, pointwise_inf, reconstruction,
                     representation, way_above_in_space)
from maxilat.catalog import antichain, chain, m3

from conftest import oracle_is_maxitive, oracle_monotone_maps


def small_spaces(max_size=3):
    for e in enumerate_posets(max_size, dedup=True):
        for l in enumerate_posets(max_size, dedup=True):
            if classify(l).is_complete_lattice:
                yield build_space(e, l)


class TestBuildSpace:
    def test_point_source_two_chain(self):
        assert len(build_space(chain(1), chain(2))) == 2

    def test_two_chain_to_itself(self):
        space = build_space(chain(2), chain(2))
        assert space.maps == ((0, 0), (0, 1), (1, 1))

    def test_seven_element_counterexample_is_excluded(self, seven):
        space = build_space(seven, chain(2))
        bad = tuple(1 if seven.label_of(g) == "z" else 0
                    for g in range(seven.n))
        assert bad not in space.index

    def test_membership_matches_the_definitional_oracle(self):
        for e in enumerate_posets(3, dedup=True):
            space = build_space(e, chain(2))
            expected = set()
            for values in oracle_monotone_maps(e, chain(2)):
                if oracle_is_maxitive(MonotoneMap(e, chain(2), values)):
                    expected.add(values)
            assert set(space.maps) == expected

    def test_candidate_cap(self):
        with pytest.raises(MapError, match="cap"):
            build_space(chain(4), chain(4), cap=10)

    def test_target_must_be_complete(self, two_antichain):
        with pytest.raises(MapError, match="complete"):
            build_space(chain(2), two_antichain)

    def test_space_is_a_complete_lattice(self):
        for space in small_spaces():
            assert classify(space.poset).is_complete_lattice

    def test_space_inherits_distributivity(self):
        for space in small_spaces():
            if classify(space.target).is_distributive:
                assert classify(space.poset).is_distributive

    def test_join_is_the_least_upper_bound_in_the_space(
            self, three_atoms_under_top):
        # every space of size <= 3, A3 -> C4, the M3-shaped space, and a
        # target that is not a chain
        cx = three_atoms_under_top
        spaces = [*small_spaces(), build_space(antichain(3), chain(4)),
                  build_space(cx.source, cx.target),
                  build_space(chain(2), m3())]
        for space in spaces:
            for i, j in itertools.product(range(len(space)), repeat=2):
                assert space.join(i, j) == space.poset.sup_of((i, j))

    def test_order_is_built_on_first_use(self):
        space = build_space(antichain(5), chain(4))
        assert len(space) == 4 ** 5 and "poset" not in vars(space)
        small = build_space(antichain(3), chain(4))
        for sp in (space, small):
            sp.join(1, 2)
            m_arrow(sp, len(sp) - 1, 0)
            representation(sp, sp.maps[1])
            assert "poset" not in vars(sp)
        l, n = small.target, small.source.n
        assert small.poset.matrix == tuple(
            tuple(all(l.leq(a[g], b[g]) for g in range(n)) for b in small.maps)
            for a in small.maps)


class TestPointwiseInf:
    def test_singleton_family_at_the_top(self):
        # selected sets are upper sets, so the only selected singleton is
        # the top map's
        space = build_space(chain(2), chain(3))
        sel = build_selection(space.poset, "filtered")
        top = space.index_of((2, 2))
        assert pointwise_inf(space, {top}, sel).values == (2, 2)

    def test_principal_filter_gives_its_generator(self):
        space = build_space(chain(2), chain(3))
        sel = build_selection(space.poset, "filtered")
        for k in range(len(space)):
            fam = space.poset.up(k)
            assert pointwise_inf(space, fam, sel).values == space.maps[k]

    def test_selected_families_have_maxitive_infima(self):
        for space in small_spaces():
            sel = build_selection(space.poset, "filtered")
            for fam in sel.sorted_fsets():
                inf_map = pointwise_inf(space, fam, sel)
                assert maxitivity_witness(inf_map) is None
                k = space.index_of(inf_map.values)
                assert all(space.poset.leq(k, v) for v in fam)

    def test_unselected_family_is_rejected(self):
        space = build_space(chain(2), chain(3))
        sel = build_selection(space.poset, "filtered")
        bottom = space.index_of((0, 0))
        top = space.index_of((2, 2))
        with pytest.raises(SelectionError, match="selected"):
            pointwise_inf(space, {bottom, top}, sel)

    def test_empty_family_is_rejected(self):
        space = build_space(chain(2), chain(2))
        sel = build_selection(space.poset, "upper")
        with pytest.raises(SelectionError, match="empty"):
            pointwise_inf(space, frozenset(), sel)


class TestGenerators:
    def test_top_valued_generator_is_constant_top(self):
        space = build_space(chain(2), chain(3))
        g = generator_map(space, Generator(0, 2))
        assert g.values == (2, 2)

    def test_top_source_generator_is_constant(self):
        space = build_space(chain(2), chain(3))
        g = generator_map(space, Generator(1, 1))
        assert g.values == (1, 1)

    def test_two_chain_generator(self):
        space = build_space(chain(2), chain(2))
        assert generator_map(space, Generator(0, 0)).values == (0, 1)

    def test_generator_maps_are_members_everywhere(self):
        for space in small_spaces():
            for h in range(space.source.n):
                for s in range(space.target.n):
                    values = generator_values(space, Generator(h, s))
                    assert values in space.index

    def test_way_above_lemma(self):
        for space in small_spaces():
            rel = way_above_in_space(space)
            sel_l = build_selection(space.target, "filtered")
            from maxilat import way_above
            rel_l = way_above(space.target, sel_l)
            for k, values in enumerate(space.maps):
                for h in range(space.source.n):
                    for s in range(space.target.n):
                        if rel_l.way_above(s, values[h]):
                            gen = space.index_of(
                                generator_values(space, Generator(h, s)))
                            assert rel.way_above(gen, k)


class TestRepresentation:
    def test_exact_reconstruction_everywhere(self):
        for space in small_spaces():
            for values in space.maps:
                gens = representation(space, values)
                assert reconstruction(space, gens) == values

    def test_constant_top_map(self):
        space = build_space(chain(2), chain(3))
        gens = representation(space, (2, 2))
        assert reconstruction(space, gens) == (2, 2)
        assert all(space.target.leq(2, g.s) for g in gens)

    def test_stress_mode_under_all_upper_sets(self):
        # beyond the hard-wired filtered selection: a distributive target is
        # continuous under the all-upper-sets selection, so reconstruction
        # still succeeds there
        space = build_space(chain(2), chain(3))
        sel = build_selection(space.target, "upper")
        for values in space.maps:
            gens = representation(space, values, sel)
            assert reconstruction(space, gens) == values

    def test_way_above_collapses_under_filtered_selection(self):
        for space in small_spaces():
            assert way_above_in_space(space).equals_order()

    def test_corollary_agrees_with_definitional_way_above(self):
        for space in small_spaces():
            rel = way_above_in_space(space)
            for v in range(len(space)):
                above = corollary_above_set(space, v)
                for w in range(len(space)):
                    assert (w in above) == rel.way_above(w, v)


class TestMArrow:
    def test_self_arrow_is_the_bottom_map(self):
        space = build_space(chain(2), chain(3))
        for u in range(len(space)):
            assert m_arrow(space, u, u).values == (0, 0)

    def test_bottom_arrow_is_the_identity_on_the_right(self):
        space = build_space(chain(2), chain(3))
        bottom = space.index_of((0, 0))
        for v in range(len(space)):
            assert m_arrow(space, bottom, v).values == space.maps[v]

    def test_adjunction_against_least_scan(self):
        for space in small_spaces():
            if not classify(space.target).is_distributive:
                continue
            for u, v in itertools.product(range(len(space)), repeat=2):
                arrow = space.index_of(m_arrow(space, u, v).values)
                admissible = [w for w in range(len(space))
                              if space.poset.leq(v, space.join(u, w))]
                least = next(m for m in admissible
                             if all(space.poset.leq(m, w)
                                    for w in admissible))
                assert arrow == least

    def test_equals_the_pointwise_heyting_formula(self):
        # every (u, v) on each space of size <= 3 into a distributive
        # target, and on A3 -> C4
        spaces = [space for space in small_spaces()
                  if classify(space.target).is_distributive]
        spaces.append(build_space(antichain(3), chain(4)))
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
        space = build_space(chain(2), chain(3))
        for u, v in itertools.product(range(len(space)), repeat=2):
            if not space.poset.leq(u, v):
                continue
            arrow = space.index_of(m_arrow(space, u, v).values)
            assert space.join(u, arrow) == v

    def test_non_distributive_target_is_rejected(self):
        space = build_space(chain(1), m3())
        with pytest.raises(PosetError, match="distributive"):
            m_arrow(space, 0, 1)
