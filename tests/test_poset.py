import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxilat import (FinitePoset, IdealFamily, MapError, OrderExtension,
                     PosetError, classify, dm_completion, enumerate_posets,
                     enumerate_unlabeled_posets)
from maxilat import poset
from maxilat.poset import _bits, _ensure_complete_lattice

from conftest import (FrozensetBounds, automorphism_mismatches,
                      brute_force_posets, down_in_base,
                      oracle_bounding_member, oracle_canonical_form,
                      oracle_classify, oracle_common, oracle_covers, oracle_dm_completion,
                      oracle_ensure_complete_lattice, oracle_enumerate_posets,
                      oracle_enumerate_unlabeled_posets,
                      oracle_from_relation, oracle_indices, oracle_inf, oracle_is_ideal,
                      oracle_is_meet_continuous, oracle_lower_sets,
                      oracle_order_error, oracle_order_extension, oracle_sup,
                      oracle_traces, oracle_union, order_embeddings,
                      up_in_base, upper_closure)


def lower_sets(p):
    """The lower sets of the mask pass, as frozensets in its order."""
    return [frozenset(oracle_indices(low)) for low in p._lower_masks()]


def closed(p, members):
    """Whether the lower set members is closed under existing sups."""
    return p._unclosed_family(p._mask(members)) is None


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

    def test_mask_checks_name_what_the_pair_scan_names(self):
        # every square 0/1 matrix on at most 3 points: the same posets, with
        # down-masks the transpose of the up-masks, and the same errors
        for n in range(4):
            for bits in itertools.product((False, True), repeat=n * n):
                rows = tuple(bits[i * n:(i + 1) * n] for i in range(n))
                expected = oracle_order_error(rows)
                try:
                    p = FinitePoset(rows)
                except PosetError as exc:
                    assert str(exc) == expected
                    continue
                assert expected is None
                assert p.matrix == rows
                assert p._downm == tuple(
                    _bits(j for j in range(n) if rows[j][i]) for i in range(n))
                assert FinitePoset._from_up_masks(p._upm) == p
                assert p.dual().matrix == tuple(zip(*rows))

    def test_from_relation_closes_transitively(self):
        p = FinitePoset.from_relation(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)

    def test_from_relation_reports_cycle(self):
        with pytest.raises(PosetError, match="cycle through {a, b}"):
            FinitePoset.from_relation(2, [(0, 1), (1, 0)], labels=("a", "b"))

    def test_from_relation_counts_the_labels_before_naming_a_cycle(self):
        for pairs in ([(0, 1), (1, 0)], [(0, 1)]):
            with pytest.raises(PosetError, match="expected 2 labels, got 1"):
                FinitePoset.from_relation(2, pairs, labels=("a",))

    def test_from_relation_agrees_with_the_row_closure(self):
        # every set of pairs i != j on at most 4 points, with and without
        # labels, and pairs out of range: the same matrix or the same text
        for n in range(5):
            strict = [(i, j) for i in range(n) for j in range(n) if i != j]
            cases = [[pair for b, pair in enumerate(strict) if m >> b & 1]
                     for m in range(1 << len(strict))]
            cases += [[*strict[:1], (0, n)], [(-1, 0)]]
            for pairs in cases:
                for labels in (None, tuple("abcd"[:n])):
                    expected = oracle_from_relation(n, pairs, labels)
                    try:
                        p = FinitePoset.from_relation(n, pairs, labels)
                    except PosetError as exc:
                        assert str(exc) == expected
                        continue
                    assert (p.matrix, p.labels) == (expected, labels)


class TestClosures:
    """The upper closure of conftest, the oracle of the star values and of
    fmap's images."""

    def test_upper_closure_of_bottom_is_everything(self, chain3):
        assert upper_closure(chain3, {0}) == {0, 1, 2}

    def test_upper_closure_of_top_is_itself(self, chain3):
        assert upper_closure(chain3, {2}) == {2}

    def test_antichain_upper_closure_fixes_subsets(self):
        p = FinitePoset.antichain(3)
        assert upper_closure(p, {0, 1}) == {0, 1}

    def test_out_of_range_subset(self, chain3):
        with pytest.raises(IndexError, match="out of range"):
            upper_closure(chain3, {7})

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
        up_a = upper_closure(p, a)
        assert a <= up_a
        assert upper_closure(p, up_a) == up_a
        if a <= b:
            assert up_a <= upper_closure(p, b)


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
                                   (chain3.inf_of, (), "empty")):
            with pytest.raises(PosetError, match=message):
                call(arg)

    def test_bitmask_core_agrees_with_the_frozenset_code(self):
        # every nonempty subset of every labeled poset of size <= 5
        names = ("sup_of", "inf_of")
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

    @pytest.mark.parametrize("i, j", [(0, 3), (2, -1), (-1, 0), (3, 0)])
    def test_leq_refuses_an_index_out_of_range(self, chain3, i, j):
        # a bare shift of an up-mask would read j >= n as False and a
        # negative index would wrap around
        with pytest.raises(IndexError, match="out of range"):
            chain3.leq(i, j)

    def test_top_bottom(self, chain3, two_antichain):
        assert chain3.top() == 2 and chain3.bottom() == 0
        assert two_antichain.top() is None and two_antichain.bottom() is None


class TestIdeals:
    def test_seven_element_ideal(self, seven):
        members = {seven.index_of(x) for x in ("a", "b", "alpha")}
        assert closed(seven, members)

    def test_diamond_atoms_not_an_ideal(self, b2):
        assert not closed(b2, {b2.index_of("a"), b2.index_of("b")})

    def test_empty_set_is_an_ideal(self, seven):
        assert closed(seven, frozenset())

    def test_non_lower_set_is_not_an_ideal(self, chain3):
        with pytest.raises(MapError, match="not an ideal"):
            IdealFamily(chain3, FinitePoset.chain(1), [chain3._mask({1})])

    def test_lower_set_missing_a_join_is_not_an_ideal(self, seven):
        # {a, b, c} has supremum z, which is missing
        members = {seven.index_of(x) for x in ("a", "b", "c")}
        assert not closed(seven, members)

    def test_is_ideal_agrees_with_the_definitional_oracle(self):
        checked = 0
        for p in enumerate_posets(5):
            for low in oracle_lower_sets(p):
                assert closed(p, low) == oracle_is_ideal(p, low)
                checked += 1
        assert checked == 48710

    def test_iter_lower_sets_matches_definition(self):
        for p in enumerate_posets(4):
            expected = set()
            for r in range(p.n + 1):
                for subset in itertools.combinations(range(p.n), r):
                    if all(p.down(x) <= set(subset) for x in subset):
                        expected.add(frozenset(subset))
            produced = lower_sets(p)
            assert len(produced) == len(set(produced))
            assert set(produced) == expected

    def test_mask_recursion_yields_the_frozenset_sequence(self):
        # same sets in the same order, on all labeled posets of size <= 5
        checked = 0
        for p in enumerate_posets(5):
            expected = oracle_lower_sets(p)
            assert lower_sets(p) == expected
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
            profile = classify(FinitePoset.chain(n))
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

    def test_masks_build_the_frozenset_completion(self):
        for p in itertools.chain(enumerate_posets(5),
                                 [FinitePoset.antichain(7)]):
            ext = dm_completion(p)
            assert ((ext.complete.matrix, ext.complete.labels, ext.embed)
                    == oracle_dm_completion(p))

    def test_completion_is_minimal_no_gap_below_image_joins(self, two_antichain):
        ext = dm_completion(two_antichain)
        labels = set(ext.complete.labels)
        assert labels == {"{}", "{0}", "{1}", "{0,1}"}


class TestOrderExtension:
    def test_identity_requires_completeness(self, two_antichain, chain3):
        OrderExtension(chain3, chain3, (0, 1, 2))
        with pytest.raises(PosetError):
            OrderExtension(two_antichain, two_antichain, (0, 1))

    def test_rejects_non_embedding(self, chain3):
        with pytest.raises(PosetError, match="order"):
            OrderExtension(FinitePoset.antichain(2), chain3, (0, 1))

    def test_rejects_sup_breaking_embedding(self, b2):
        with pytest.raises(PosetError):
            OrderExtension(FinitePoset.chain(2), b2, (1, 2))

    def test_rejects_unpreserved_supremum(self):
        # a, b < z has sup{a,b} = z; embedding z above the completion's own
        # join of the images must be refused
        base = FinitePoset.from_relation(3, [(0, 2), (1, 2)])
        tall = FinitePoset.from_relation(
            5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        with pytest.raises(PosetError, match="supremum"):
            OrderExtension(base, tall, (1, 2, 4))

    def test_complete_lattice_check_reads_the_pair_tables(self):
        # the first pair lacking a join or a meet, in combinations order, as
        # the pairwise sup_of/inf_of scan names it; the 6-element poset has
        # a top and a bottom, and its two atoms have two minimal upper bounds
        bowtie = FinitePoset.from_relation(
            6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
        outcomes = []
        for p in itertools.chain([FinitePoset(()), bowtie], enumerate_posets(4)):
            expected = oracle_ensure_complete_lattice(p)
            try:
                _ensure_complete_lattice(p)
            except PosetError as exc:
                assert str(exc) == expected
            else:
                assert expected is None
            outcomes.append(expected)
        assert outcomes[:2] == ["a complete lattice must be nonempty",
                                "elements 1, 2 lack a join or a meet"]
        assert None in outcomes and "poset lacks a top or a bottom" in outcomes

    @staticmethod
    def _against_the_scan(bases, lattices):
        """Build every order-embedding of each base into each lattice and
        compare with the subset scan; returns (embeddings, rejected)."""
        total = rejected = 0
        for base in bases:
            for big in lattices:
                for embed in order_embeddings(base, big):
                    total += 1
                    expected = oracle_order_extension(base, big, embed)
                    try:
                        OrderExtension(base, big, embed)
                    except PosetError as exc:
                        found = re.fullmatch(
                            r"(supremum|infimum) of \[([\d, ]*)\] not preserved",
                            str(exc))
                        assert found and expected, (base, big, embed, exc)
                        kind, family = found[1], [int(g) for g in
                                                  found[2].split(", ")]
                        assert kind == expected[0]
                        # the named family has that bound in the base and
                        # the embedding does not preserve it
                        bound = oracle_sup if kind == "supremum" else oracle_inf
                        b = bound(base, family)
                        assert b is not None
                        assert bound(big, [embed[g] for g in family]) != embed[b]
                        rejected += 1
                    else:
                        assert expected is None, (base, big, embed, expected)
        return total, rejected

    def test_trace_test_matches_the_subset_scan_on_labeled_lattices(self):
        lattices = [l for l in enumerate_posets(5)
                    if classify(l).is_complete_lattice]
        assert self._against_the_scan(enumerate_unlabeled_posets(3),
                                      lattices) == (11569, 240)

    def test_trace_test_matches_the_subset_scan_on_unlabeled_lattices(self):
        lattices = [l for l in enumerate_unlabeled_posets(5)
                    if classify(l).is_complete_lattice]
        assert self._against_the_scan(enumerate_unlabeled_posets(4),
                                      lattices) == (244, 8)

    def test_any_base_size_is_accepted(self):
        ext = dm_completion(FinitePoset.antichain(20))
        assert ext.complete.n == 22
        assert up_in_base(ext, ext.embed[7]) == {7}
        assert down_in_base(ext, ext.complete.n - 1) == frozenset(range(20))

    def test_traces_match_their_definitions(self):
        for p in enumerate_posets(5):
            ext = dm_completion(p)
            down, up = oracle_traces(ext)
            assert [down_in_base(ext, a) for a in range(ext.complete.n)] == down
            assert [up_in_base(ext, a) for a in range(ext.complete.n)] == up


class TestAutomorphisms:
    def test_the_group_is_the_scan_of_all_permutations(self):
        # every unlabeled poset of size <= 5, and every labeled poset of size
        # <= 4, whose index order need not extend the order
        posets = [*enumerate_unlabeled_posets(5), *enumerate_posets(4)]
        assert automorphism_mismatches(posets) == []
        assert all(p.automorphisms()[0] == tuple(range(p.n)) for p in posets)

    def test_orbit_sizes_count_the_labeled_posets(self):
        # a class of size n has n! / |Aut| labelings: OEIS A001035
        labeled = Counter()
        for p in enumerate_unlabeled_posets(5):
            labeled[p.n] += math.factorial(p.n) // len(p.automorphisms())
        assert labeled == {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}

    def test_computed_once_per_poset(self):
        p = FinitePoset.antichain(3)
        assert p.automorphisms() is p.automorphisms()
        assert len(p.automorphisms()) == 6
        assert FinitePoset.chain(4).automorphisms() == ((0, 1, 2, 3),)


class TestEnumeration:
    def test_labeled_counts(self, monkeypatch):
        # OEIS A001035 through n = 6, past the default cap
        monkeypatch.setattr(poset, "DEFAULT_ENUMERATION_CAP", 6)
        counts = Counter(p.n for p in enumerate_posets(6))
        assert counts == {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}

    @staticmethod
    def _checked(p):
        """p, after the validating constructor has rebuilt it from its
        up-masks: the generators build their children unchecked."""
        rebuilt = FinitePoset._from_up_masks(p._upm)
        assert rebuilt._downm == p._downm and p.labels is None
        return p

    def test_size_five_count(self):
        assert sum(1 for p in enumerate_posets(5)
                   if self._checked(p).n == 5) == 4231

    def test_the_last_level_is_streamed(self):
        # one level of parents is held, not the 4,231 posets of size 5
        tracemalloc.start()
        try:
            for p in enumerate_posets(5):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_unlabeled_counts(self, monkeypatch):
        # OEIS A000112 through n = 8, past the default cap
        monkeypatch.setattr(poset, "DEFAULT_ENUMERATION_CAP", 8)
        counts = Counter(self._checked(p).n
                         for p in enumerate_unlabeled_posets(8))
        assert counts == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045,
                          8: 16999}

    def test_unlabeled_posets_are_pairwise_distinct_under_the_oracle(
            self, monkeypatch):
        monkeypatch.setattr(poset, "DEFAULT_ENUMERATION_CAP", 6)
        keys = [oracle_canonical_form(p)
                for p in enumerate_unlabeled_posets(6)]
        assert len(set(keys)) == len(keys) == 1 + 2 + 5 + 16 + 63 + 318

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

    @pytest.mark.parametrize("unlabeled", [False, True])
    def test_mask_growth_yields_the_frozenset_sequence(self, unlabeled):
        ours, oracle = ((enumerate_unlabeled_posets,
                         oracle_enumerate_unlabeled_posets) if unlabeled
                        else (enumerate_posets, oracle_enumerate_posets))
        for n in range(1, 6):
            assert ([p.matrix for p in ours(n)]
                    == [p.matrix for p in oracle(n)])

    def test_cap_enforced(self, monkeypatch):
        for generate in (enumerate_posets, enumerate_unlabeled_posets):
            with pytest.raises(PosetError,
                               match="exceeds the enumeration cap 5"):
                list(generate(6))
        # the cap is read when the enumeration starts
        monkeypatch.setattr(poset, "DEFAULT_ENUMERATION_CAP", 6)
        next(enumerate_posets(6))

    def test_canonical_form_is_relabeling_invariant(self):
        for p in enumerate_posets(3):
            for perm in itertools.permutations(range(p.n)):
                assert relabeled(p, perm).canonical_form() == p.canonical_form()

    def test_canonical_classes_and_representatives_are_the_oracles(self):
        # every labeled poset of size <= 5: the key and the n! key split
        # each size into the same classes, and the unlabeled generator
        # yields one poset of each oracle class
        levels = {}
        for p in enumerate_posets(5):
            levels.setdefault(p.n, []).append(p)
        classes = set()
        for n, level in sorted(levels.items()):
            ours, oracle = {}, {}
            for k, p in enumerate(level):
                ours.setdefault(p.canonical_form(), []).append(k)
                oracle.setdefault(oracle_canonical_form(p), []).append(k)
            assert sorted(ours.values()) == sorted(oracle.values())
            classes |= oracle.keys()
        keys = [oracle_canonical_form(p)
                for p in enumerate_unlabeled_posets(5)]
        assert len(keys) == len(classes) == 1 + 2 + 5 + 16 + 63
        assert set(keys) == classes

    def test_antichain_and_chain_take_one_arrangement(self):
        # the antichain is one class of twins, the chain n classes of one
        for p in (FinitePoset.antichain(8), FinitePoset.chain(8)):
            arrangements = list(p._arrangements())
            assert len(arrangements) == 1
            assert sorted(arrangements[0]) == list(range(8))
        assert (FinitePoset.antichain(8).canonical_form()
                != FinitePoset.chain(8).canonical_form())

    def test_canonical_form_decides_isomorphism_beyond_size_five(self):
        # seeded random posets of size 6 and their relabelings: equal keys
        # exactly where the n! keys are equal
        rng = random.Random(15)
        posets = []
        for _ in range(12):
            pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)
                     if rng.random() < 0.3]
            p = FinitePoset.from_relation(6, pairs)
            perm = list(range(6))
            rng.shuffle(perm)
            posets += [p, relabeled(p, perm)]
        oracle = [oracle_canonical_form(p) for p in posets]
        ours = [p.canonical_form() for p in posets]
        for a, b in itertools.combinations(range(len(posets)), 2):
            assert (ours[a] == ours[b]) == (oracle[a] == oracle[b])


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

    def test_covers_match_the_definition(self):
        # the same pairs in the same order, on all labeled posets of size <= 5
        checked = 0
        for p in enumerate_posets(5):
            assert p.covers() == oracle_covers(p)
            checked += 1
        assert checked == 4473


def grid(k):
    """The k x k grid, the product of two k-chains: (a, b) is a * k + b."""
    cells = [divmod(i, k) for i in range(k * k)]
    return FinitePoset(tuple(tuple(a <= c and b <= d for c, d in cells)
                             for a, b in cells))


class TestKernels:
    """The mask kernels read masks below 2^8 from the index table and scan
    wider ones; both routes must give the low-bit scan's results."""

    @staticmethod
    def assert_kernels_match(masks, mask):
        n = len(masks)
        assert poset._indices(mask) == oracle_indices(mask)
        assert poset._union(masks, mask) == oracle_union(masks, mask)
        assert (poset._common(masks, mask, n)
                == oracle_common(masks, mask, n))
        assert (poset._bounding_member(masks, mask)
                == oracle_bounding_member(masks, mask))

    @staticmethod
    def families(width, rng):
        # random masks, and the up- and down-masks of a chain, where every
        # subset has a least and a greatest member
        full = (1 << width) - 1
        return (tuple(rng.getrandbits(width) | 1 << i for i in range(width)),
                tuple(full & ~((1 << i) - 1) for i in range(width)),
                tuple((2 << i) - 1 for i in range(width)))

    def test_every_mask_below_2_to_the_10(self):
        # the table's 256 masks and the first wider ones
        assert len(poset._BITS) == poset._BITS_LIMIT == 256
        rng = random.Random(10)
        families = self.families(10, rng)
        for mask in range(1 << 10):
            for masks in families:
                self.assert_kernels_match(masks, mask)

    def test_random_masks_up_to_2_to_the_40(self):
        rng = random.Random(40)
        for width in (9, 16, 24, 40):
            families = self.families(width, rng)
            for _ in range(500):
                mask = rng.getrandbits(rng.randint(1, width))
                for masks in families:
                    self.assert_kernels_match(masks, mask)

    @pytest.mark.parametrize("p, distributive", [
        (FinitePoset.chain(10), True), (FinitePoset.antichain(9), False),
        (grid(3), True)],
        ids=["10-chain", "9-antichain", "3x3-grid"])
    def test_wide_and_narrow_posets_match_the_definitions(self, p,
                                                          distributive):
        # the 10-chain and the 9-antichain mix masks of both routes; the
        # grid's are all in the table
        subsets = [tuple(i for i in range(p.n) if mask >> i & 1)
                   for mask in range(1, 1 << p.n)]
        for a in subsets:
            assert p.sup_of(a) == oracle_sup(p, a)
            assert p.inf_of(a) == oracle_inf(p, a)
        produced = lower_sets(p)
        assert produced == oracle_lower_sets(p)
        assert len(produced) == len(set(produced))
        assert set(produced) == {
            frozenset(a) for a in [()] + subsets
            if all(y in a for x in a for y in range(p.n) if p.leq(y, x))}
        assert p.covers() == oracle_covers(p)
        profile = classify(p)
        assert profile == oracle_classify(p)
        assert profile.is_distributive is distributive
