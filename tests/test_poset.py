import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxilat import (FinitePoset, OrderExtension, PosetError, classify,
                     dm_completion, enumerate_posets)
from maxilat.catalog import antichain, chain

from conftest import (FrozensetBounds, brute_force_posets, oracle_classify,
                      oracle_inf, oracle_is_ideal, oracle_is_meet_continuous,
                      oracle_lower_sets, oracle_sup)


def relabeled(p, perm):
    rows = [[p.leq(perm[i], perm[j]) for j in range(p.n)] for i in range(p.n)]
    return FinitePoset(rows)


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(PosetError, match="square"):
            FinitePoset([[True, False]])

    def test_rejects_irreflexive(self):
        with pytest.raises(PosetError, match="reflexive"):
            FinitePoset([[False]])

    def test_rejects_symmetric_pair(self):
        with pytest.raises(PosetError, match="antisymmetric"):
            FinitePoset([[True, True], [True, True]])

    def test_rejects_intransitive(self):
        rows = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        with pytest.raises(PosetError, match="transitive"):
            FinitePoset(rows)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(PosetError, match="distinct"):
            FinitePoset([[1, 0], [0, 1]], labels=("a", "a"))

    def test_from_relation_closes_transitively(self):
        p = FinitePoset.from_relation(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)

    def test_from_relation_reports_cycle(self):
        with pytest.raises(PosetError, match="cycle through {a, b}"):
            FinitePoset.from_relation(2, [(0, 1), (1, 0)], labels=("a", "b"))


class TestClosures:
    def test_upper_closure_of_bottom_is_everything(self, chain3):
        assert chain3.upper_closure({0}) == {0, 1, 2}

    def test_upper_closure_of_top_is_itself(self, chain3):
        assert chain3.upper_closure({2}) == {2}

    def test_antichain_upper_closure_fixes_subsets(self):
        p = antichain(3)
        assert p.upper_closure({0, 1}) == {0, 1}

    def test_lower_closure_examples(self, chain3, b2):
        assert chain3.lower_closure({2}) == {0, 1, 2}
        assert chain3.lower_closure({0}) == {0}
        a = b2.index_of("a")
        assert b2.lower_closure({a}) == {b2.index_of("bot"), a}

    def test_out_of_range_subset(self, chain3):
        with pytest.raises(PosetError, match="out of range"):
            chain3.upper_closure({7})

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_closure_operator_laws(self, data):
        n = data.draw(st.integers(1, 5))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=8))
        try:
            p = FinitePoset.from_relation(n, pairs)
        except PosetError:
            return
        a = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        b = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        up_a = p.upper_closure(a)
        assert a <= up_a
        assert p.upper_closure(up_a) == up_a
        if a <= b:
            assert up_a <= p.upper_closure(b)
        low_a = p.lower_closure(a)
        assert a <= low_a and p.lower_closure(low_a) == low_a


class TestBounds:
    def test_diamond_join_of_atoms_is_top(self, b2):
        a, b = b2.index_of("a"), b2.index_of("b")
        assert b2.sup_of({a, b}) == b2.index_of("top")

    def test_antichain_pair_has_no_sup(self, two_antichain):
        assert two_antichain.sup_of({0, 1}) is None

    def test_singleton_sup_is_itself(self, seven):
        for x in range(seven.n):
            assert seven.sup_of({x}) == x

    def test_empty_subset_rejected(self, chain3):
        with pytest.raises(PosetError, match="empty"):
            chain3.sup_of(frozenset())
        with pytest.raises(PosetError, match="empty"):
            chain3.inf_of(frozenset())

    def test_sup_is_least_upper_bound_everywhere(self):
        for p in enumerate_posets(4):
            for r in range(1, p.n + 1):
                for subset in itertools.combinations(range(p.n), r):
                    s = p.sup_of(subset)
                    assert s == oracle_sup(p, subset)
                    if s is not None:
                        assert all(p.leq(x, s) for x in subset)
                    assert p.inf_of(subset) == oracle_inf(p, subset)

    def test_bad_subsets_raise_poset_errors(self, chain3):
        n = chain3.n
        for call, arg, message in ((chain3.sup_of, {-1}, "out of range"),
                                   (chain3.inf_of, {n}, "out of range"),
                                   (chain3.sup_of, [], "empty"),
                                   (chain3.inf_of, (), "empty"),
                                   (chain3.is_upper_set, {n}, "out of range")):
            with pytest.raises(PosetError, match=message):
                call(arg)

    def test_bitmask_core_agrees_with_the_frozenset_code(self):
        # every nonempty subset of every labeled poset of size <= 5
        names = ("sup_of", "inf_of", "upper_bounds", "lower_bounds", "least",
                 "greatest", "is_upper_set", "is_lower_set")
        subsets = {n: [(mask, frozenset(i for i in range(n) if mask >> i & 1))
                       for mask in range(1, 1 << n)] for n in range(1, 6)}
        checked = 0
        for p in enumerate_posets(5):
            old = FrozensetBounds(p)
            pairs = [(getattr(p, name), getattr(old, name)) for name in names]
            for mask, a in subsets[p.n]:
                for new_way, old_way in pairs:
                    assert new_way(a) == old_way(a)
                family = p._unclosed_family(mask)
                expected = old.unclosed_family(a)
                assert family == (None if expected is None
                                  else sum(1 << i for i in expected))
                checked += 1
        assert checked == 134589

    def test_top_bottom(self, chain3, two_antichain):
        assert chain3.top() == 2 and chain3.bottom() == 0
        assert two_antichain.top() is None and two_antichain.bottom() is None


class TestIdeals:
    def test_seven_element_ideal(self, seven):
        members = {seven.index_of(x) for x in ("a", "b", "alpha")}
        assert seven.is_ideal(members)

    def test_diamond_atoms_not_an_ideal(self, b2):
        assert not b2.is_ideal({b2.index_of("a"), b2.index_of("b")})

    def test_empty_set_is_an_ideal(self, seven):
        assert seven.is_ideal(frozenset())

    def test_non_lower_set_is_not_an_ideal(self, chain3):
        assert not chain3.is_ideal({1})

    def test_lower_set_missing_a_join_is_not_an_ideal(self, seven):
        # {a, b, c} has supremum z, which is missing
        members = {seven.index_of(x) for x in ("a", "b", "c")}
        assert not seven.is_ideal(members)

    def test_is_ideal_agrees_with_the_definitional_oracle(self):
        checked = 0
        for p in enumerate_posets(5):
            for low in p.iter_lower_sets():
                assert p.is_ideal(low) == oracle_is_ideal(p, low)
                checked += 1
        assert checked == 48710

    def test_iter_lower_sets_matches_definition(self):
        for p in enumerate_posets(4):
            expected = set()
            for r in range(p.n + 1):
                for subset in itertools.combinations(range(p.n), r):
                    if all(p.down(x) <= set(subset) for x in subset):
                        expected.add(frozenset(subset))
            produced = list(p.iter_lower_sets())
            assert len(produced) == len(set(produced))
            assert set(produced) == expected

    def test_mask_recursion_yields_the_frozenset_sequence(self):
        # same sets in the same order, on all labeled posets of size <= 5
        checked = 0
        for p in enumerate_posets(5):
            expected = oracle_lower_sets(p)
            assert list(p.iter_lower_sets()) == expected
            full = frozenset(range(p.n))
            assert list(p.iter_upper_sets()) == [full - low for low in expected]
            assert list(p.iter_ideals()) == [low for low in expected
                                             if oracle_is_ideal(p, low)]
            checked += len(expected)
        assert checked == 48710


class TestClassify:
    def test_pentagon_is_a_non_distributive_lattice(self, pentagon):
        profile = classify(pentagon)
        assert profile.is_lattice and not profile.is_distributive

    def test_m3_is_a_non_distributive_lattice(self, m3_lattice):
        profile = classify(m3_lattice)
        assert profile.is_lattice and not profile.is_distributive

    def test_chains_satisfy_everything(self):
        for n in range(1, 5):
            profile = classify(chain(n))
            assert all((profile.is_join_semilattice, profile.is_meet_semilattice,
                        profile.is_lattice, profile.is_complete_lattice,
                        profile.is_distributive, profile.is_meet_continuous))

    def test_complete_lattice_flag_matches_all_subsets_oracle(self):
        for p in enumerate_posets(4):
            complete = p.n > 0
            for r in range(1, p.n + 1):
                for subset in itertools.combinations(range(p.n), r):
                    if oracle_sup(p, subset) is None or oracle_inf(p, subset) is None:
                        complete = False
            if complete and p.n > 0:
                complete = (oracle_sup(p, range(p.n)) is not None
                            and oracle_inf(p, range(p.n)) is not None)
            assert classify(p).is_complete_lattice == complete

    def test_distributivity_flag_matches_both_laws_oracle(self):
        for p in enumerate_posets(4):
            profile = classify(p)
            if not profile.is_lattice:
                assert not profile.is_distributive
                continue
            expected = True
            for x, y, z in itertools.product(range(p.n), repeat=3):
                lhs = oracle_inf(p, {x, oracle_sup(p, {y, z})})
                rhs = oracle_sup(p, {oracle_inf(p, {x, y}),
                                     oracle_inf(p, {x, z})})
                dual_lhs = oracle_sup(p, {x, oracle_inf(p, {y, z})})
                dual_rhs = oracle_inf(p, {oracle_sup(p, {x, y}),
                                          oracle_sup(p, {x, z})})
                if lhs != rhs or dual_lhs != dual_rhs:
                    expected = False
                    break
            assert profile.is_distributive == expected

    def test_tables_agree_with_the_pairwise_both_laws_oracle(
            self, pentagon, m3_lattice, three_atoms_under_top):
        # all six flags, on all 4,473 labeled posets of size <= 5 and the
        # fixtures; classify checks one distributive law, the oracle both
        posets = list(enumerate_posets(5))
        assert len(posets) == 4473
        posets += [pentagon, m3_lattice, three_atoms_under_top.source,
                   three_atoms_under_top.target]
        distributive = 0
        for p in posets:
            assert classify(p) == oracle_classify(p)
            distributive += classify(p).is_distributive
        assert distributive and not classify(m3_lattice).is_distributive

    def test_every_finite_lattice_is_meet_continuous(self):
        # the flag against the lower-set oracle on all 4,473 labeled posets
        checked = 0
        for p in enumerate_posets(5):
            profile = classify(p)
            assert profile.is_meet_continuous == oracle_is_meet_continuous(p)
            if profile.is_lattice:
                assert profile.is_meet_continuous
            checked += 1
        assert checked == 4473


class TestDMCompletion:
    def test_two_antichain_completes_to_diamond(self, two_antichain):
        ext = dm_completion(two_antichain)
        big = ext.complete
        assert big.n == 4
        assert big.top() is not None and big.bottom() is not None
        images = [ext.embed[0], ext.embed[1]]
        assert not big.leq(images[0], images[1])
        assert not big.leq(images[1], images[0])

    def test_chain_is_its_own_completion(self, chain3):
        ext = dm_completion(chain3)
        assert ext.complete.n == 3
        assert sorted(ext.embed) == [0, 1, 2]

    def test_complete_lattices_embed_bijectively(self):
        for p in enumerate_posets(4):
            if classify(p).is_complete_lattice:
                ext = dm_completion(p)
                assert ext.complete.n == p.n

    def test_seven_element_gains_the_triple_join(self, seven):
        ext = dm_completion(seven)
        atoms = [ext.embed[seven.index_of(x)] for x in ("a", "b", "c")]
        s = ext.complete.sup_of(atoms)
        assert s == ext.embed[seven.index_of("z")]

    def test_all_small_posets_complete_validly(self):
        # OrderExtension validates embedding, completeness and preservation
        for p in enumerate_posets(5):
            dm_completion(p)

    def test_completion_is_minimal_no_gap_below_image_joins(self, two_antichain):
        ext = dm_completion(two_antichain)
        labels = set(ext.complete.labels)
        assert labels == {"{}", "{0}", "{1}", "{0,1}"}


class TestOrderExtension:
    def test_identity_requires_completeness(self, two_antichain, chain3):
        OrderExtension.identity(chain3)
        with pytest.raises(PosetError):
            OrderExtension.identity(two_antichain)

    def test_rejects_non_embedding(self, chain3):
        with pytest.raises(PosetError, match="order"):
            OrderExtension(antichain(2), chain3, (0, 1))

    def test_rejects_sup_breaking_embedding(self, b2):
        with pytest.raises(PosetError):
            OrderExtension(chain(2), b2, (1, 2))

    def test_rejects_unpreserved_supremum(self):
        # a, b < z has sup{a,b} = z; embedding z above the completion's own
        # join of the images must be refused
        base = FinitePoset.from_relation(3, [(0, 2), (1, 2)])
        tall = FinitePoset.from_relation(
            5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        with pytest.raises(PosetError, match="supremum"):
            OrderExtension(base, tall, (1, 2, 4))

    def test_principal_ideal_detection(self, two_antichain):
        ext = dm_completion(two_antichain)
        assert ext.is_principal_ideal({0, 1})      # via the completion's top
        assert ext.is_principal_ideal({0})
        assert ext.is_principal_ideal(frozenset())  # via the new bottom

    def test_principal_ideal_rejects_non_ideal(self, chain3):
        ext = OrderExtension.identity(chain3)
        with pytest.raises(PosetError, match="ideal"):
            ext.is_principal_ideal({1})


class TestEnumeration:
    def test_labeled_counts(self):
        counts = {}
        for p in enumerate_posets(4):
            counts[p.n] = counts.get(p.n, 0) + 1
        assert counts == {1: 1, 2: 3, 3: 19, 4: 219}

    def test_size_five_count(self):
        assert sum(1 for p in enumerate_posets(5) if p.n == 5) == 4231

    def test_unlabeled_counts(self):
        counts = {}
        for p in enumerate_posets(5, dedup=True):
            counts[p.n] = counts.get(p.n, 0) + 1
        assert counts == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}

    def test_matches_brute_force_filter(self):
        for n in range(1, 4):
            expected = set(brute_force_posets(n))
            produced = {p.matrix for p in enumerate_posets(n) if p.n == n}
            assert produced == expected

    def test_no_duplicates(self):
        seen = set()
        for p in enumerate_posets(4):
            key = (p.n, p.matrix)
            assert key not in seen
            seen.add(key)

    def test_cap_enforced(self):
        with pytest.raises(PosetError, match="cap"):
            list(enumerate_posets(6))
        # explicit override allows it
        gen = enumerate_posets(6, size_cap=6)
        next(gen)

    def test_canonical_form_is_relabeling_invariant(self):
        for p in enumerate_posets(3):
            for perm in itertools.permutations(range(p.n)):
                assert relabeled(p, perm).canonical_form() == p.canonical_form()


class TestDerivedPosets:
    def test_restrict_keeps_order_and_labels(self, seven):
        sub = seven.restrict({seven.index_of("a"), seven.index_of("alpha"),
                              seven.index_of("beta")})
        assert sub.n == 3
        assert sub.labels == ("a", "alpha", "beta")
        assert sub.leq(sub.index_of("a"), sub.index_of("alpha"))
        assert not sub.leq(sub.index_of("a"), sub.index_of("beta"))

    def test_dual_swaps_bounds(self, chain3):
        d = chain3.dual()
        assert d.top() == 0 and d.bottom() == 2

    def test_covers_regenerate_the_order(self):
        for p in enumerate_posets(4):
            again = FinitePoset.from_relation(p.n, p.covers())
            assert again.matrix == p.matrix
