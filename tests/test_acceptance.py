"""Acceptance suite: every criterion at its stated bounds, one line each.

Each test drives the corresponding verification suite exhaustively and
prints a PASS/FAIL line with instance counts and timing, so a plain
``pytest -s tests/test_acceptance.py`` reads as the acceptance report.
"""

import time

from maxilat.harness import FAIL, PASS, SKIP, run_suite, summarize


def _run(claim, budget=None, **bounds):
    t0 = time.perf_counter()
    records = list(run_suite(claim, **bounds))
    elapsed = time.perf_counter() - t0
    counts = summarize(records)
    return records, counts, elapsed


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    return ok


def _first_failure(records):
    for rec in records:
        if rec.verdict == FAIL:
            return rec
    return None


def test_criterion_1_seven_element_counterexample():
    records, counts, elapsed = _run("seven-element")
    rec = records[0]
    ok = (counts[FAIL] == 0 and len(records) == 1
          and rec.witness["pairwise"] is True
          and rec.witness["maxitive"] is False
          and rec.witness["family"] == ["a", "b", "c"]
          and elapsed < 1.0)
    assert _report("criterion-01 seven-element counterexample", ok,
                   f"pairwise yes, maxitive no, family {rec.witness['family']}, "
                   f"{elapsed:.2f}s"), rec


def test_criterion_2_interpolation():
    records, counts, elapsed = _run(
        "interpolation", max_size=5,
        selections=("principal", "filtered", "upper"))
    continuous = sum(1 for r in records if r.instance["continuous"])
    union_complete = sum(1 for r in records if r.instance["union_complete"])
    ok = (counts[FAIL] == 0 and counts[SKIP] == 0
          and union_complete == len(records)
          and elapsed < 300.0)
    assert _report("criterion-02 interpolation theorem", ok,
                   f"{len(records)} poset/selection instances, "
                   f"{continuous} continuous, all union-complete, "
                   f"{elapsed:.1f}s"), _first_failure(records)


def test_criterion_3_singleton_collapse():
    records, counts, elapsed = _run("singleton-collapse", max_size=5)
    ok = counts[FAIL] == 0 and len(records) == 1 + 3 + 19 + 219 + 4231
    assert _report("criterion-03 principal way-above equals the order", ok,
                   f"{len(records)} posets, {elapsed:.1f}s"), \
        _first_failure(records)


def test_criterion_4_supercontinuity_iff_distributivity():
    records, counts, elapsed = _run("supercontinuity-distributivity",
                                    max_size=5)
    distributive = sum(1 for r in records if r.instance["distributive"])
    ok = counts[FAIL] == 0 and len(records) > 0
    assert _report("criterion-04 supercontinuity iff distributivity", ok,
                   f"{len(records)} lattices, {distributive} distributive, "
                   f"{elapsed:.1f}s"), _first_failure(records)


def test_criterion_5_alternating():
    records, counts, elapsed = _run("alternating", max_size=4, depth=4)
    maps = sum(r.instance["maxitive_maps"] for r in records)
    ok = counts[FAIL] == 0 and maps > 0
    assert _report("criterion-05 maxitive maps alternate to depth 4", ok,
                   f"{len(records)} join-semilattices, {maps} maxitive maps, "
                   f"exact arithmetic, {elapsed:.1f}s"), _first_failure(records)


def test_criterion_6_ideal_round_trip():
    records, counts, elapsed = _run("ideal-round-trip", max_size=4)
    maps = sum(r.instance["maxitive_maps"] for r in records)
    ok = counts[FAIL] == 0 and maps > 0
    assert _report("criterion-06 ideal-family round-trip", ok,
                   f"{len(records)} source/target pairs, {maps} maxitive "
                   f"maps, right-continuity included, {elapsed:.1f}s"), \
        _first_failure(records)


def test_criterion_7_extension_extremality():
    records, counts, elapsed = _run("extension-extremality", max_size=5)
    star = sum(r.instance["star_checked"] for r in records)
    lower = sum(r.instance["lower_checked"] for r in records)
    ok = counts[FAIL] == 0 and star > 0 and lower > 0 and len(records) == 696
    assert _report("criterion-07 extension extremality", ok,
                   f"{len(records)} instances, {star} maximal and {lower} "
                   f"minimal extensions dominated, {elapsed:.1f}s"), \
        _first_failure(records)


def test_criterion_8_theorem_5_4():
    records, counts, elapsed = _run("thm-5-4", max_size=5)
    maps = sum(r.instance["monotone_maps"] for r in records)
    converse = sum(r.instance["converse_checked"] for r in records)
    searched = sum(r.instance["unresiduated_sup_maps_outside_hypotheses"]
                   for r in records)
    ok = counts[FAIL] == 0 and converse > 0 and len(records) == 696
    assert _report("criterion-08 residuated/completely-maxitive theorem", ok,
                   f"{maps} monotone maps, forward everywhere, converse on "
                   f"{converse} applicable, {searched} open-question "
                   f"witnesses recorded, {elapsed:.1f}s"), \
        _first_failure(records)


def test_criterion_9_frame_adjunctions():
    records, counts, elapsed = _run("frame-adjunction", max_size=5)
    spaces = sum(1 for r in records if "space" in r.instance)
    lattices = len(records) - spaces
    ok = counts[FAIL] == 0 and spaces > 0 and elapsed < 600.0
    violated = sum(1 for r in records if "space" in r.instance
                   and r.witness is not None)
    assert _report("criterion-09 frame adjunctions", ok,
                   f"{lattices} lattices incl. non-distributive error paths, "
                   f"{spaces} map spaces, decompositions included, "
                   f"{violated} non-frames exactly where I(E) is not "
                   f"distributive, {elapsed:.1f}s"), _first_failure(records)


def test_criterion_10_representation():
    records, counts, elapsed = _run("representation", max_size=4)
    spaces = len(records)
    ok = counts[FAIL] == 0 and spaces > 0
    assert _report("criterion-10 generator representation and corollary", ok,
                   f"{spaces} map spaces, reconstruction exact, way-above "
                   f"characterization both directions, {elapsed:.1f}s"), \
        _first_failure(records)
