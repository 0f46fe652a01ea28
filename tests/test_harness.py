import hashlib
import itertools
import json
from collections import Counter

import pytest

from maxilat import (FinitePoset, MonotoneMap, build_selection, build_space,
                     classify, enumerate_posets, enumerate_unlabeled_posets,
                     heyting_arrow, is_pairwise_maxitive, m_arrow,
                     maxitivity_witness)
from maxilat import harness
from maxilat.cli import main
from maxilat.harness import (FAIL, PASS, SKIP, HarnessError, VerdictRecord,
                             CLAIMS, run_suite, summarize)
from maxilat.io import poset_from_dict
from maxilat.poset import _bits

from conftest import (WholeBaseTraces, oracle_adjunction_violations,
                      oracle_canonical_form, oracle_enumerate_posets,
                      oracle_space_poset, oracle_way_above)


class TestVerdictRecord:
    def test_fail_requires_a_witness(self):
        with pytest.raises(HarnessError, match="witness"):
            VerdictRecord("x", {}, FAIL)

    def test_verdict_vocabulary_is_closed(self):
        with pytest.raises(HarnessError, match="bad verdict"):
            VerdictRecord("x", {}, "maybe")

    def test_to_dict_is_json_friendly(self):
        import json
        rec = VerdictRecord("x", {"n": 1}, PASS, witness=None, elapsed=0.25)
        assert json.loads(json.dumps(rec.to_dict()))["verdict"] == "pass"


class TestRunSuite:
    def test_unknown_claim(self):
        with pytest.raises(HarnessError, match="unknown claim"):
            list(run_suite("no-such-claim"))

    @pytest.mark.parametrize("bounds", [{"max_size": 0}, {"max_size": -1},
                                        {"depth": 0}, {"depth": -3}])
    def test_a_bound_below_1_is_refused(self, bounds):
        for claim in ("singleton-collapse", "alternating"):
            with pytest.raises(HarnessError, match="must be at least 1"):
                next(run_suite(claim, **bounds))

    @pytest.mark.parametrize("flag, value", [("--max-size", "0"),
                                             ("--max-size", "-1"),
                                             ("--depth", "0")])
    def test_a_bound_below_1_exits_2(self, tmp_path, capsys, flag, value):
        out_path = tmp_path / "verdicts.json"
        assert main(["harness", "run", "alternating", flag, value,
                     "--out", str(out_path)]) == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("claim, bounds, owner", [
        ("singleton-collapse", {"selections": ("upper",)}, "interpolation"),
        ("alternating", {"selections": ("principal",)}, "interpolation"),
        ("interpolation", {"depth": 2}, "alternating"),
        ("seven-element", {"depth": 1, "max_size": 3}, "alternating")])
    def test_a_bound_the_claim_ignores_is_refused(self, claim, bounds, owner):
        with pytest.raises(HarnessError, match=f"applies only to {owner}"):
            next(run_suite(claim, **bounds))

    @pytest.mark.parametrize("argv", [
        ["singleton-collapse", "--selections", "upper"],
        ["thm-5-4", "--max-size", "2", "--depth", "2"]])
    def test_a_bound_the_claim_ignores_exits_2(self, tmp_path, capsys, argv):
        out_path = tmp_path / "verdicts.json"
        assert main(["harness", "run", *argv, "--out", str(out_path)]) == 2
        assert "applies only to" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("kind", ["bogus", "explicit"])
    def test_a_selection_kind_interpolation_cannot_run_is_refused(self, kind):
        with pytest.raises(HarnessError, match="not one of principal"):
            next(run_suite("interpolation", selections=(kind,)))

    @pytest.mark.parametrize("kind", ["bogus", "explicit"])
    def test_a_selection_kind_interpolation_cannot_run_exits_2(
            self, tmp_path, capsys, kind):
        out_path = tmp_path / "verdicts.json"
        assert main(["harness", "run", "interpolation", "--selections", kind,
                     "--out", str(out_path)]) == 2
        assert "not one of principal" in capsys.readouterr().err
        assert not out_path.exists()

    def test_all_registered_claims_produce_records(self):
        for claim in CLAIMS:
            records = list(run_suite(claim, max_size=2))
            assert records
            assert all(rec.claim == claim for rec in records)

    def test_streams_are_deterministic(self):
        def strip(records):
            return [(r.claim, r.instance, r.verdict, r.witness)
                    for r in records]
        for claim in ("seven-element", "singleton-collapse", "thm-5-4"):
            first = strip(run_suite(claim, max_size=3))
            second = strip(run_suite(claim, max_size=3))
            assert first == second

    @pytest.mark.parametrize("claim, count, digest", [
        ("interpolation", 13419,
         "01e887a12c1e42aeaacdf1aed613f34c762427d48f3a5c6afceebf3fd3870083"),
        ("singleton-collapse", 4473,
         "21b42bc552e61daa9fa8aeaaf503adb04087be10cb75063584e3a72a7adbcd92"),
        ("supercontinuity-distributivity", 425,
         "d15750f63ca35c44e67b9b2e402ebd5adc296a9ca15f9be470d8a1d11e4deaef"),
        ("seven-element", 1,
         "e8255588610f2ee25265a6b4d26670b692d11c50ca683df5f35c8272f1bf5149"),
        ("alternating", 88,
         "5708f2902912f176e9328bb34320e474045f9cfe552b563f770904c2843e42d5"),
        ("ideal-round-trip", 576,
         "e412eb4000e385ebc6847bf3bc0b8491d29166d6ab45d3a574604ab3c98fa7dc"),
        ("thm-5-4", 696,
         "40d8f682f3f6ce4ba4733f9ac585ec3d693f78d0b7791af2b3bdd360b5a78cc5"),
        ("extension-extremality", 696,
         "5b97448b540c7cf58401abfaf38195273180f84c862c0206646c3c844dc02493"),
        ("frame-adjunction", 165,
         "43b3bd7882af8ba73cbf59747e24d71dd1e74940acfc6792bd218855d85e0c13"),
        ("representation", 120,
         "7971ee31ebe3509b72798fc5fd4de482d62bc5dcb849af88e33a1a785c106957"),
    ])
    def test_poset_claim_streams_keep_their_digest(self, claim, count, digest):
        # SHA-256 of the records without `elapsed`, one sorted-key JSON line
        # each: the three poset claims at size 5 as the frozenset-based poset
        # and selection code produced them, seven-element and alternating as
        # the claims did when each had its own timer and record
        # construction, and the five claims over unlabeled posets on the
        # representatives of enumerate_unlabeled_posets
        bounds = {"seven-element": {},
                  "alternating": {"max_size": 4, "depth": 4},
                  "ideal-round-trip": {"max_size": 4},
                  "frame-adjunction": {"max_size": 4},
                  "representation": {"max_size": 4}}.get(claim,
                                                          {"max_size": 5})
        h = hashlib.sha256()
        records = 0
        for rec in run_suite(claim, **bounds):
            doc = rec.to_dict()
            del doc["elapsed"]
            h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
            records += 1
        assert (records, h.hexdigest()) == (count, digest)

    @staticmethod
    def _by_class(records):
        """The records as a multiset of (instance with each described poset
        read as its n! class, verdict)."""
        def fields(instance):
            return {k: (oracle_canonical_form(poset_from_dict(x))
                        if isinstance(x, dict) and "covers" in x else x)
                    for k, x in instance.items()}
        return Counter(json.dumps([fields(rec.instance), rec.verdict],
                                  sort_keys=True) for rec in records)

    def test_records_do_not_depend_on_the_representatives(self,
                                                         monkeypatch):
        # each unlabeled claim from the generator's representatives and
        # from the first labeled poset of each class: the same verdicts and
        # measured fields per (source class, target class)
        runs = {"ideal-round-trip": 4, "thm-5-4": 3,
                "extension-extremality": 3, "frame-adjunction": 3,
                "representation": 3}
        ours = {claim: list(run_suite(claim, max_size=size))
                for claim, size in runs.items()}
        monkeypatch.setattr(harness, "enumerate_unlabeled_posets",
                            lambda n: oracle_enumerate_posets(n, dedup=True))
        moved = 0
        for claim, size in runs.items():
            first = list(run_suite(claim, max_size=size))
            assert self._by_class(ours[claim]) == self._by_class(first)
            moved += ([r.instance for r in ours[claim]]
                      != [r.instance for r in first])
        assert moved == len(runs)

    def test_singleton_collapse_names_mismatches_in_scan_order(self,
                                                               monkeypatch):
        # under all upper sets way-above differs from the order; the witness
        # lists the (y, x) with gg[y][x] != (x <= y), x outer, y inner
        upper = {}

        def build_upper(p, kind):
            upper[p] = sel = build_selection(p, "upper")
            return sel
        monkeypatch.setattr(harness, "build_selection", build_upper)
        off_diagonal = 0
        for p, rec in zip(enumerate_posets(4),
                          run_suite("singleton-collapse", max_size=4)):
            gg = oracle_way_above(p, upper[p])
            expected = [(y, x) for x in range(p.n) for y in range(p.n)
                        if gg[y][x] != p.leq(x, y)]
            assert rec.witness == ({"pairs": expected} if expected else None)
            off_diagonal += sum(y != x for y, x in expected)
        assert off_diagonal == 36

    def test_seed_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["harness", "run", "seven-element", "--seed", "7"])
        assert exc.value.code == 2

    def test_selection_bound_is_respected(self):
        records = list(run_suite("interpolation", max_size=2,
                                 selections=("principal",)))
        assert {r.instance["selection"] for r in records} == {"principal"}

    def test_summarize_counts(self):
        records = list(run_suite("singleton-collapse", max_size=3))
        counts = summarize(records)
        assert counts[PASS] == len(records) == 23
        assert counts[FAIL] == counts[SKIP] == 0


class TestWitnessReplay:
    def test_seven_element_record_replays(self):
        rec = next(iter(run_suite("seven-element")))
        assert rec.verdict == PASS
        poset = poset_from_dict({"elements": rec.instance["poset"]["elements"],
                                 "covers": rec.instance["poset"]["covers"]})
        two = poset_from_dict({"elements": ["0", "1"], "covers": [["0", "1"]]})
        v = MonotoneMap(poset, two, tuple(rec.instance["values"]))
        assert is_pairwise_maxitive(v) == rec.witness["pairwise"]
        assert (maxitivity_witness(v) is None) == rec.witness["maxitive"]
        assert rec.witness["family"] == ["a", "b", "c"]

    def test_extension_witnesses_carry_the_map(self):
        for rec in run_suite("extension-extremality", max_size=3):
            if rec.verdict == FAIL:    # pragma: no cover - expected all-pass
                assert "values" in rec.witness

    @pytest.mark.parametrize("side, name", [("star", "extend_star"),
                                            ("lower", "extend_lower_star")])
    def test_failed_restriction_is_a_fail_not_a_skip(self, monkeypatch,
                                                     side, name):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda v, ext, *sels: real(v, WholeBaseTraces(ext),
                                                       *sels))
        failed = [rec for rec in run_suite("extension-extremality", max_size=2)
                  if rec.verdict == FAIL]
        assert failed
        for rec in failed:
            assert rec.witness["side"] == side
            assert "does not restrict" in rec.witness["error"]
            assert len(set(rec.witness["values"])) > 1


class TestExceptionHandler:
    """An exception raised inside a check is a failing record and the
    stream goes on; an error while generating instances propagates."""

    @staticmethod
    def _boom_on_two_elements(monkeypatch):
        real = harness.extend_star

        def extend(v, *args):
            if v.source.n == 2:
                raise RuntimeError("boom")
            return real(v, *args)
        monkeypatch.setattr(harness, "extend_star", extend)

    @staticmethod
    def _without_elapsed(records):
        return [{k: x for k, x in rec.to_dict().items() if k != "elapsed"}
                for rec in records]

    def test_an_exception_in_a_check_is_a_fail_record(self, monkeypatch):
        clean = list(run_suite("extension-extremality", max_size=3))
        self._boom_on_two_elements(monkeypatch)
        records = list(run_suite("extension-extremality", max_size=3))
        assert len(records) == len(clean) == 64
        failed = [r for r in records if r.verdict == FAIL]
        # the star side runs on the 2-chain only: the 2-antichain is not a
        # join-semilattice
        assert len(failed) == 8
        for rec in failed:
            assert rec.witness == {"error": "RuntimeError: boom"}
            assert rec.instance["source"]["n"] == 2
            assert len(rec.instance["source"]["covers"]) == 1
            assert list(rec.instance) == ["source", "target",
                                          "join_semilattice",
                                          "completion_distributive"]
        kept = [k for k, r in enumerate(records) if r.verdict != FAIL]
        assert (self._without_elapsed(records[k] for k in kept)
                == self._without_elapsed(clean[k] for k in kept))

    def test_the_run_exits_1_with_a_complete_document(self, monkeypatch,
                                                      tmp_path, capsys):
        self._boom_on_two_elements(monkeypatch)
        out_path = tmp_path / "verdicts.json"
        assert main(["harness", "run", "extension-extremality",
                     "--max-size", "3", "--out", str(out_path)]) == 1
        doc = json.loads(out_path.read_text())
        assert len(doc["records"]) == 64
        assert doc["summary"] == {"pass": 32, "fail": 8,
                                  "hypothesis-not-met": 24}
        assert "RuntimeError: boom" in capsys.readouterr().out

    def test_an_error_generating_instances_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no posets")
            yield
        monkeypatch.setattr(harness, "enumerate_posets", broken)
        with pytest.raises(RuntimeError, match="no posets"):
            list(run_suite("singleton-collapse", max_size=3))


class TestFrameOracle:
    """What the frame claim's adjunction for every w implies, checked
    directly: the arrow is the least admissible element, and when u <= v it
    is the least w with u join w = v."""

    @staticmethod
    def _check(poset, join, arrow):
        for u, v in itertools.product(range(poset.n), repeat=2):
            a = arrow(u, v)
            admissible = [w for w in range(poset.n)
                          if poset.leq(v, join(u, w))]
            assert a in admissible
            assert all(poset.leq(a, w) for w in admissible)
            if poset.leq(u, v):
                exact = [w for w in range(poset.n) if join(u, w) == v]
                assert a in exact
                assert all(poset.leq(a, w) for w in exact)

    def test_arrow_is_least_admissible_and_decomposes(self):
        for l in enumerate_posets(5):
            profile = classify(l)
            if l.n and profile.is_lattice and profile.is_distributive:
                self._check(l, lambda r, s: l.sup_of((r, s)),
                            lambda r, s: heyting_arrow(l, r, s))
        for e in enumerate_unlabeled_posets(3):
            for l in enumerate_unlabeled_posets(3):
                profile = classify(l)
                if profile.is_complete_lattice and profile.is_distributive:
                    space = build_space(e, l)
                    self._check(oracle_space_poset(space), space.join,
                                lambda u, v: space.index_of(
                                    m_arrow(space, u, v).values))

    def test_mask_check_matches_the_cubic_scan(self, three_atoms_under_top):
        # the same violations in the same order, for the arrow under test and
        # for a wrong one, on every space of size <= 3, on the M3-shaped
        # counterexample and on every lattice of size <= 5 with an arrow
        cx = three_atoms_under_top
        for space in [*(build_space(e, l)
                        for e in enumerate_unlabeled_posets(3)
                        for l in enumerate_unlabeled_posets(3)
                        if classify(l).is_complete_lattice),
                      build_space(cx.source, cx.target)]:
            def arrow(u, v):
                return space.index_of(m_arrow(space, u, v).values)
            expected = [{k: x if k == "error" else list(space.maps[x])
                         for k, x in bad.items()}
                        for bad in oracle_adjunction_violations(
                            oracle_space_poset(space), space.join, arrow)]
            assert list(harness.LEMMAS["frame"](space)) == expected
            assert bool(expected) == (space.source == cx.source)
            wrong = list(oracle_adjunction_violations(
                oracle_space_poset(space), lambda u, w: w, lambda u, v: u))
            assert list(harness.adjunction_violations(
                len(space), lambda u, v: space.ups[v], space.ups.__getitem__,
                lambda u, v: u)) == wrong
            assert bool(wrong) == (len(space) > 1)
        for l in enumerate_posets(5):
            profile = classify(l)
            if not (l.n and profile.is_lattice and profile.is_distributive):
                continue
            table = harness._admissible_table(l)
            for arrow, fails in ((lambda r, s: heyting_arrow(l, r, s), False),
                                 (lambda r, s: s, l.n > 1)):
                masked = list(harness.adjunction_violations(
                    l.n, lambda r, s: table[r][s], lambda a: _bits(l.up(a)),
                    arrow))
                assert masked == list(oracle_adjunction_violations(
                    l, lambda r, s: l.sup_of((r, s)), arrow))
                assert bool(masked) == fails


class TestFrameReduction:
    """The frame check at the join-irreducibles and the bottom map against
    the scan of all pairs, and the frame theorem as an iff."""

    @staticmethod
    def _spaces(max_size):
        return [build_space(e, l)
                for e in enumerate_unlabeled_posets(max_size)
                for l in enumerate_unlabeled_posets(max_size)
                if classify(l).is_complete_lattice
                and classify(l).is_distributive]

    def test_restricted_check_matches_the_full_scan(self, monkeypatch):
        spaces = self._spaces(4)
        assert len(spaces) == 120
        restricted = [list(harness.LEMMAS["frame"](space)) for space in spaces]
        real = harness.adjunction_violations
        monkeypatch.setattr(harness, "adjunction_violations",
                            lambda n, admissible, up, arrow, generators=None:
                            real(n, admissible, up, arrow))
        full = [list(harness.LEMMAS["frame"](space)) for space in spaces]
        assert restricted == full
        assert sum(1 for bad in full if bad) == 8

    def test_a_heyting_table_that_breaks_joins_is_a_violation(
            self, monkeypatch):
        from maxilat import mspace
        space = build_space(FinitePoset.chain(2), FinitePoset.chain(3))
        assert list(harness.LEMMAS["frame"](space)) == []
        real = mspace._heyting_table
        # heyting(0, -) on the 3-chain is the identity; swapping its values
        # at 1 and 2 breaks 0 <- (1 join 2) = (0 <- 1) join (0 <- 2)
        monkeypatch.setattr(mspace, "_heyting_table", lambda l: (
            ((0, 2, 1),) + real(l)[1:]))
        mspace._heyting_join_failure.cache_clear()
        try:
            found = list(harness.LEMMAS["frame"](space))
        finally:
            mspace._heyting_join_failure.cache_clear()
        assert found[0] == {
            "r": 0, "s": 1, "t": 2,
            "error": "heyting_arrow(r, -) does not preserve the join of s "
                     "and t"}

    def test_the_former_failures_at_size_4_pass_by_the_iff(self):
        spaces = [r for r in run_suite("frame-adjunction", max_size=4)
                  if "space" in r.instance]
        assert len(spaces) == 120
        assert all(r.verdict == PASS for r in spaces)
        # the two sources with I(E) not distributive, into the 1-element
        # target, where the space has one map, and into the four others
        excluded = [r for r in spaces
                    if not r.instance["ideal_lattice_distributive"]]
        assert len({r.instance["source"]["key"] for r in excluded}) == 2
        violated = [r for r in excluded if r.instance["target"]["n"] >= 2]
        assert len(excluded) == 10 and len(violated) == 8
        assert all(r.witness["lemma"] == "frame" for r in violated)
        assert all(r.witness is None for r in spaces if r not in violated)

    def test_a_missing_violation_fails_the_iff(self, monkeypatch):
        monkeypatch.setitem(harness.LEMMAS, "frame", lambda space: iter(()))
        failed = [r for r in run_suite("frame-adjunction", max_size=4)
                  if r.verdict == FAIL]
        assert len(failed) == 8
        assert all(not r.instance["ideal_lattice_distributive"]
                   and r.instance["target"]["n"] >= 2 for r in failed)
        assert failed[0].witness["lemmas"] == ["frame"]

    def test_the_hypothesis_on_the_three_atoms(self, three_atoms_under_top):
        # I(E) is the empty set, the three atoms and E: shaped like M3
        assert harness.frame_hypothesis(three_atoms_under_top.source) == {
            "ideal_lattice_distributive": False, "ideals": 5}
        assert harness.frame_hypothesis(FinitePoset.chain(3)) == {
            "ideal_lattice_distributive": True, "ideals": 4}


class TestWorkCounts:
    """Counted runs of the claims whose repeated work was removed."""

    @staticmethod
    def _count_calls(monkeypatch, *names):
        """Count the calls of each named library function through harness."""
        calls = Counter()

        def counting(name):
            real = getattr(harness, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted
        for name in names:
            monkeypatch.setattr(harness, name, counting(name))
        return calls

    def test_thm_5_4_scans_each_map_once(self, monkeypatch):
        from maxilat import maxitive, residuation
        calls = []
        real = maxitive.maxitivity_witness

        def counted(v):
            calls.append(v)
            return real(v)
        for module in (maxitive, residuation):
            monkeypatch.setattr(module, "maxitivity_witness", counted)
        records = list(run_suite("thm-5-4", max_size=4))
        assert sum(r.instance["monotone_maps"] for r in records) == 2436
        assert len(calls) == 2436

    def test_alternating_builds_one_join_table_per_source(self, monkeypatch):
        # every bound taken on a poset, by sup_of, inf_of, top, bottom or the
        # join/meet tables that classify and join_table share, is one
        # _bounding_member call on its up- or down-masks: count them per
        # mask tuple, classify included
        from maxilat import poset
        classify.cache_clear()
        poset._pair_tables.cache_clear()
        calls = {}
        real = poset._bounding_member

        def counted(masks, mask):
            entry = calls.setdefault(id(masks), [masks, 0])
            entry[1] += 1
            return real(masks, mask)
        monkeypatch.setattr(poset, "_bounding_member", counted)
        records = list(run_suite("alternating", max_size=4, depth=4))
        assert len(records) == 88
        # classify reads both mask tuples of each of the 242 posets
        assert len(calls) == 2 * 242
        assert all(count <= len(masks) * (len(masks) + 1) // 2
                   for masks, count in calls.values())

    def test_ideal_round_trip_tests_each_lower_set_once(self, monkeypatch):
        # the closure test of a sublevel set or ideal runs once per distinct
        # (source, mask), through the source's memo, not once per map
        from maxilat import poset
        poset._closure_memo.cache_clear()
        calls = Counter()
        real = poset.FinitePoset._unclosed_family

        def counted(p, mask):
            calls[p, mask] += 1
            return real(p, mask)
        monkeypatch.setattr(poset.FinitePoset, "_unclosed_family", counted)
        records = list(run_suite("ideal-round-trip", max_size=4))
        assert sum(r.instance["maxitive_maps"] for r in records) == 17990
        assert calls and max(calls.values()) == 1

    def test_ideal_round_trip_builds_one_way_above_per_target(self,
                                                            monkeypatch):
        # the FILTERED selection and way-above depend on the target alone:
        # 24 of each for the 24 targets at size 4, not 576
        calls = self._count_calls(monkeypatch, "build_selection", "way_above")
        records = list(run_suite("ideal-round-trip", max_size=4))
        assert len(records) == 576
        assert calls == {"build_selection": 24, "way_above": 24}

    def test_representation_builds_each_generator_map_once(self,
                                                           monkeypatch):
        # the three lemmas read every generator map through one object per
        # (space, h, s), built once, and each map's representation once
        from maxilat import mspace
        built, represented = {}, Counter()
        calls = 0
        real_values, real_representation = (mspace.generator_values,
                                            mspace.representation)

        def counted_values(space, gen):
            nonlocal calls
            calls += 1
            values = real_values(space, gen)
            assert built.setdefault((space, gen.h, gen.s), values) is values
            return values

        def counted_representation(space, values):
            represented[space, values] += 1
            return real_representation(space, values)
        for module in (mspace, harness):
            monkeypatch.setattr(module, "generator_values", counted_values,
                                raising=False)
            monkeypatch.setattr(module, "representation",
                                counted_representation, raising=False)
        records = list(run_suite("representation", max_size=3))
        assert len(records) == 24
        spaces = {space for space, _ in represented}
        assert len(spaces) == 24
        assert sum(len(space) for space in spaces) == len(represented)
        assert set(represented.values()) == {1}
        assert len(built) <= sum(space.source.n * space.target.n
                                 for space in spaces)
        assert calls > 2 * len(built)

    def test_alternating_builds_one_plan_per_source(self, monkeypatch):
        # building a plan runs combinations_with_replacement once per length,
        # so one plan per source at depth 4 is 4 runs for each of 88 sources
        from maxilat import maxitive
        maxitive._alternating_plan.cache_clear()
        runs = []
        real = maxitive.combinations_with_replacement

        def counted(pool, r):
            runs.append(r)
            return real(pool, r)
        monkeypatch.setattr(maxitive, "combinations_with_replacement", counted)
        records = list(run_suite("alternating", max_size=4, depth=4))
        assert sum(r.instance["maxitive_maps"] for r in records) == 2464
        assert sorted(runs) == sorted([1, 2, 3, 4] * 88)

    def test_interpolation_builds_one_report_per_family(self, monkeypatch):
        # on a finite poset FILTERED selects exactly PRINCIPAL's masks, so
        # its record reuses PRINCIPAL's continuity report
        calls = self._count_calls(monkeypatch, "build_selection",
                                  "continuity_report")

        def without_kind(rec):
            doc = rec.to_dict()
            del doc["elapsed"], doc["instance"]["selection"]
            return doc
        records = list(run_suite("interpolation", max_size=5))
        assert len(records) == 13419
        assert calls == {"build_selection": 13419, "continuity_report": 8946}
        principal, filtered = records[0::3], records[1::3]
        assert {r.instance["selection"] for r in filtered} == {"filtered"}
        assert ([without_kind(r) for r in filtered]
                == [without_kind(r) for r in principal])
        # without PRINCIPAL, FILTERED computes its own report
        calls.clear()
        records = list(run_suite("interpolation", max_size=4,
                                 selections=("filtered", "upper")))
        assert len(records) == 2 * 242
        assert calls == {"build_selection": 484, "continuity_report": 484}
