import itertools

import pytest

from maxilat import (MonotoneMap, build_space, classify, enumerate_posets,
                     heyting_arrow, is_maxitive, is_pairwise_maxitive, m_arrow)
from maxilat import harness
from maxilat.cli import main
from maxilat.harness import (FAIL, PASS, SKIP, HarnessError, VerdictRecord,
                             CLAIMS, run_suite, summarize)
from maxilat.io import poset_from_dict
from maxilat.poset import _bits

from conftest import (WholeBaseTraces, oracle_adjunction_violations,
                      oracle_space_poset)


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
        assert is_maxitive(v) == rec.witness["maxitive"]
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
                self._check(l, l.join, lambda r, s: heyting_arrow(l, r, s))
        for e in enumerate_posets(3, dedup=True):
            for l in enumerate_posets(3, dedup=True):
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
                        for e in enumerate_posets(3, dedup=True)
                        for l in enumerate_posets(3, dedup=True)
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
                len(space), lambda u, v: space.up(v), space.up,
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
                assert masked == list(
                    oracle_adjunction_violations(l, l.join, arrow))
                assert bool(masked) == fails


class TestWorkCounts:
    """Counted runs of the claims whose repeated work was removed."""

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
