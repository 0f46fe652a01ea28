"""Exhaustive desk-scale verification suites with machine-readable verdicts.

Each claim enumerates a deterministic family of instances, checks one
statement on each, and yields one verdict record per instance (or per
instance group for map sweeps).  A failing record always carries a witness
that replays through the library.
"""

import hashlib
import time
from dataclasses import dataclass

from .poset import (FinitePoset, _bits, _indices, _union, classify,
                    dm_completion, enumerate_posets, join_table)
from .selections import (SelectionKind, build_selection, continuity_report,
                         is_union_complete, way_above)
from .maxitive import (InvariantError, MonotoneMap, RationalConeMap,
                       alternating_witness, e_lower_star, e_star,
                       extend_lower_star, extend_star, from_ideal_family,
                       ideal_family_of, is_pairwise_maxitive,
                       iter_monotone_values, MapError, maxitivity_witness)
from .residuation import heyting_arrow, theorem_5_4
from .mspace import (_arrow_values, build_space, corollary_above_set,
                     generator_values, pointwise_inf, reconstruction,
                     representation, way_above_in_space)
from . import io as iomod

PASS = "pass"
FAIL = "fail"
SKIP = "hypothesis-not-met"


class HarnessError(ValueError):
    """Unknown claim or malformed verdict."""


@dataclass(frozen=True)
class VerdictRecord:
    claim: str
    instance: dict
    verdict: str
    witness: object = None
    elapsed: float = 0.0

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, SKIP):
            raise HarnessError(f"bad verdict {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise HarnessError("a failing verdict needs a witness")

    def to_dict(self):
        return {"claim": self.claim, "instance": self.instance,
                "verdict": self.verdict, "witness": self.witness,
                "elapsed": round(self.elapsed, 6)}


def describe_poset(p) -> dict:
    """Elements, covering pairs and the key, a stable short digest of the
    presentation."""
    labels = p.labels or tuple(str(i) for i in range(p.n))
    covers = p.covers()
    payload = repr((p.n, covers, p.labels)).encode()
    return {"n": p.n,
            "elements": list(labels),
            "covers": [[labels[i], labels[j]] for i, j in covers],
            "key": hashlib.sha1(payload).hexdigest()[:12]}


def _labelled(p, elems):
    return sorted(p.label_of(i) for i in elems)


# -- claim: the seven-element counterexample --------------------------------


def _claim_seven_element(bounds):
    t0 = time.perf_counter()
    v = iomod.fixture_map("seven_indicator.json")
    seven = v.source
    pairwise = is_pairwise_maxitive(v)
    family = maxitivity_witness(v)
    expected = frozenset(seven.index_of(x) for x in ("a", "b", "c"))
    ok = pairwise and family == expected
    witness = {"pairwise": pairwise,
               "maxitive": family is None,
               "family": _labelled(seven, family) if family else None}
    yield VerdictRecord("seven-element",
                        {"poset": describe_poset(seven),
                         "values": list(v.values)},
                        PASS if ok else FAIL, witness,
                        time.perf_counter() - t0)


# -- claim: interpolation under union-complete selections --------------------


def _claim_interpolation(bounds):
    max_size = bounds.max_size or 5
    kinds = bounds.selections or ("principal", "filtered", "upper")
    for p in enumerate_posets(max_size):
        desc = describe_poset(p)
        for kind in kinds:
            t0 = time.perf_counter()
            sel = build_selection(p, kind)
            union_complete = is_union_complete(sel)
            report = continuity_report(p, sel)
            instance = {"poset": desc, "selection": str(kind),
                        "union_complete": union_complete,
                        "continuous": report.is_continuous}
            if not union_complete:
                verdict, witness = SKIP, None
            elif report.is_continuous and not report.has_interpolation:
                verdict = FAIL
                witness = {"pairs": [[p.label_of(y), p.label_of(x)]
                                     for y, x in report.interpolation_failures]}
            else:
                verdict, witness = PASS, None
            yield VerdictRecord("interpolation", instance, verdict, witness,
                                time.perf_counter() - t0)


# -- claim: way-above under principal filters collapses to the order ---------


def _claim_singleton_collapse(bounds):
    max_size = bounds.max_size or 5
    for p in enumerate_posets(max_size):
        t0 = time.perf_counter()
        rel = way_above(p, build_selection(p, SelectionKind.PRINCIPAL))
        mismatches = [(y, x) for x in range(p.n) for y in range(p.n)
                      if rel.gg[y][x] != p.leq(x, y)]
        yield VerdictRecord(
            "singleton-collapse", {"poset": describe_poset(p)},
            PASS if not mismatches else FAIL,
            {"pairs": mismatches} if mismatches else None,
            time.perf_counter() - t0)


# -- claim: supercontinuity iff distributivity on finite lattices -----------


def _claim_supercontinuity(bounds):
    max_size = bounds.max_size or 5
    for p in enumerate_posets(max_size):
        profile = classify(p)
        if not profile.is_lattice:
            continue
        t0 = time.perf_counter()
        report = continuity_report(p, build_selection(p, SelectionKind.UPPER))
        ok = report.is_continuous == profile.is_distributive
        yield VerdictRecord(
            "supercontinuity-distributivity",
            {"poset": describe_poset(p),
             "distributive": profile.is_distributive},
            PASS if ok else FAIL,
            None if ok else {"continuous": report.is_continuous,
                             "distributive": profile.is_distributive,
                             "elements": list(report.continuity_failures)},
            time.perf_counter() - t0)


# -- claim: maxitive cone maps are alternating of infinite order -------------


def _claim_alternating(bounds):
    max_size = bounds.max_size or 4
    depth = bounds.depth or 4
    value_range = FinitePoset.chain(4)
    for p in enumerate_posets(max_size):
        if not classify(p).is_join_semilattice:
            continue
        t0 = time.perf_counter()
        checked = 0
        failure = None
        for values in iter_monotone_values(p, value_range):
            cone = RationalConeMap(p, values)
            if not cone.is_maxitive():
                continue
            checked += 1
            bad = alternating_witness(cone, depth)
            if bad is not None:
                g, gs = bad
                failure = {"values": [str(x) for x in values],
                           "at": p.label_of(g),
                           "along": [p.label_of(x) for x in gs]}
                break
        yield VerdictRecord(
            "alternating",
            {"poset": describe_poset(p), "depth": depth,
             "maxitive_maps": checked},
            PASS if failure is None else FAIL, failure,
            time.perf_counter() - t0)


# -- claim: ideal-family representation round-trip ---------------------------


def _claim_ideal_round_trip(bounds):
    max_size = bounds.max_size or 4
    posets = list(enumerate_posets(max_size, dedup=True))
    for e in posets:
        for l in posets:
            t0 = time.perf_counter()
            sel = build_selection(l, SelectionKind.FILTERED)
            rel = way_above(l, sel)
            checked = 0
            failure = None
            for values in iter_monotone_values(e, l):
                v = MonotoneMap(e, l, values)
                try:
                    # its ideal check is the maxitivity test
                    fam = ideal_family_of(v)
                except MapError:
                    continue
                checked += 1
                back = from_ideal_family(fam, sel)
                if back.values != v.values:
                    failure = {"values": list(values),
                               "returned": list(back.values)}
                    break
                if not fam.is_right_continuous(rel):
                    failure = {"values": list(values),
                               "reason": "canonical family not right-continuous"}
                    break
            yield VerdictRecord(
                "ideal-round-trip",
                {"source": describe_poset(e), "target": describe_poset(l),
                 "maxitive_maps": checked},
                PASS if failure is None else FAIL, failure,
                time.perf_counter() - t0)


# -- claim: extremality of the two extensions --------------------------------


def _maxitive_by_restriction(sub, l, positions):
    """Maxitive maps on sub grouped by their values at the given positions."""
    groups = {}
    for values in iter_monotone_values(sub, l):
        m = MonotoneMap(sub, l, values)
        if maxitivity_witness(m) is None:
            groups.setdefault(tuple(values[k] for k in positions),
                              []).append(values)
    return groups


def _claim_extension_extremality(bounds):
    max_e = bounds.max_size or 4
    max_l = 3
    sources = list(enumerate_posets(max_e, dedup=True))
    targets = list(enumerate_posets(max_l, dedup=True))
    for e in sources:
        ext = dm_completion(e)
        e_joins = classify(e).is_join_semilattice
        ebar_distributive = classify(ext.complete).is_distributive
        sel_e = build_selection(e, SelectionKind.PRINCIPAL)
        star = sorted(e_star(ext, sel_e))
        star_pos = {a: k for k, a in enumerate(star)}
        star_poset = ext.complete.restrict(star)
        embed_star = [star_pos[ext.embed[g]] for g in range(e.n)]
        lower = sorted(e_lower_star(ext))
        lower_pos = {a: k for k, a in enumerate(lower)}
        lower_poset = ext.complete.restrict(lower) if lower else None
        base_in_lower = all(a in lower_pos for a in ext.embed)
        for l in targets:
            t0 = time.perf_counter()
            sel_l = build_selection(l, SelectionKind.PRINCIPAL)
            star_groups = (_maxitive_by_restriction(star_poset, l, embed_star)
                           if e_joins else None)
            lower_groups = None
            if ebar_distributive and base_in_lower and lower_poset is not None:
                lower_groups = _maxitive_by_restriction(
                    lower_poset, l, [lower_pos[a] for a in ext.embed])
            checked = star_checked = lower_checked = lower_skipped = 0
            failure = None
            for values in iter_monotone_values(e, l):
                v = MonotoneMap(e, l, values)
                if maxitivity_witness(v) is not None:
                    continue
                checked += 1
                if e_joins:
                    try:
                        vstar = extend_star(v, ext, sel_e, sel_l)
                    except InvariantError as exc:
                        failure = {"values": list(values), "side": "star",
                                   "error": str(exc)}
                        break
                    star_checked += 1
                    for w in star_groups.get(tuple(values), ()):
                        if not all(l.leq(w[k], vstar.values[k])
                                   for k in range(len(star))):
                            failure = {"values": list(values), "side": "star",
                                       "extension": list(w),
                                       "bound": list(vstar.values)}
                            break
                    if failure:
                        break
                if lower_groups is not None:
                    try:
                        vlow = extend_lower_star(v, ext)
                    except InvariantError as exc:
                        failure = {"values": list(values), "side": "lower",
                                   "error": str(exc)}
                        break
                    except MapError:
                        lower_skipped += 1
                        continue
                    lower_checked += 1
                    for w in lower_groups.get(tuple(values), ()):
                        if not all(l.leq(vlow.values[k], w[k])
                                   for k in range(len(lower))):
                            failure = {"values": list(values), "side": "lower",
                                       "extension": list(w),
                                       "bound": list(vlow.values)}
                            break
                    if failure:
                        break
            instance = {"source": describe_poset(e),
                        "target": describe_poset(l),
                        "join_semilattice": e_joins,
                        "completion_distributive": ebar_distributive,
                        "maxitive_maps": checked,
                        "star_checked": star_checked,
                        "lower_checked": lower_checked,
                        "lower_skipped": lower_skipped}
            if failure is not None:
                verdict = FAIL
            elif star_checked or lower_checked:
                verdict = PASS
            else:
                verdict = SKIP
            yield VerdictRecord("extension-extremality", instance, verdict,
                                failure, time.perf_counter() - t0)


# -- claim: residuated vs completely maxitive --------------------------------


def _claim_thm_5_4(bounds):
    max_e = bounds.max_size or 4
    max_l = 3
    sources = list(enumerate_posets(max_e, dedup=True))
    targets = list(enumerate_posets(max_l, dedup=True))
    for e in sources:
        ext = dm_completion(e)
        for l in targets:
            t0 = time.perf_counter()
            checked = 0
            converse_checked = 0
            outside = 0
            failure = None
            applicable = None
            for values in iter_monotone_values(e, l):
                v = MonotoneMap(e, l, values)
                checked += 1
                verdict = theorem_5_4(v, ext)
                applicable = verdict.converse_applicable
                if not verdict.forward_holds:
                    failure = {"values": list(values), "direction": "forward"}
                    break
                if verdict.converse_applicable:
                    converse_checked += 1
                    if not verdict.converse_holds:
                        failure = {"values": list(values),
                                   "direction": "converse"}
                        break
                elif verdict.sup_map and not verdict.residuated:
                    # outside the hypotheses: recorded, never asserted
                    outside += 1
            yield VerdictRecord(
                "thm-5-4",
                {"source": describe_poset(e), "target": describe_poset(l),
                 "monotone_maps": checked,
                 "converse_applicable": bool(applicable),
                 "converse_checked": converse_checked,
                 "unresiduated_sup_maps_outside_hypotheses": outside},
                PASS if failure is None else FAIL, failure,
                time.perf_counter() - t0)


# -- map-space lemmas: one checker each, shared with `mspace verify` ----------
#
# A checker takes a built MaxMapSpace and yields one witness dict per
# violation.  A claim takes the first one as its witness; the CLI lists all.


def adjunction_violations(n, admissible, up, arrow):
    """Yield each (u, v, w) at which v <= u join w, the mask admissible(u, v),
    and arrow(u, v) <= w, the mask up(a), disagree; a MapError from the
    arrow is a violation at (u, v).

    Checking every w covers the rest of the frame statement: w = arrow(u, v)
    shows the arrow is admissible, and every admissible w lies above it.
    When u <= v, w = v is admissible, so u join arrow(u, v) = v.
    """
    for u in range(n):
        for v in range(n):
            try:
                a = arrow(u, v)
            except MapError as exc:
                yield {"u": u, "v": v, "error": str(exc)}
                continue
            for w in _indices(admissible(u, v) ^ up(a)):
                yield {"u": u, "v": v, "w": w}


def _admissible_table(l):
    """table[r][s]: the mask of the t with s <= r join t, from the order and
    joins of l alone, so that it checks heyting_arrow independently."""
    joins = join_table(l)
    return [[_bits(t for t in range(l.n) if l.leq(s, joins[r][t]))
             for s in range(l.n)] for r in range(l.n)]


def _check_frame(space):
    """The residuation u <- v of the space is adjoint to its join.  Joins are
    pointwise, so w is admissible iff each w(g) is in table[u(g)][v(g)]."""
    table = _admissible_table(space.target)
    valued_in = [[[_union(column, ts) for ts in row] for row in table]
                 for column in space.at_least]

    def admissible(u, v):
        mask = (1 << len(space)) - 1
        for masks, r, s in zip(valued_in, space.maps[u], space.maps[v]):
            mask &= masks[r][s]
        return mask

    def arrow(u, v):
        return space.index_of(_arrow_values(space, u, v))
    for bad in adjunction_violations(len(space), admissible, space.up, arrow):
        yield {k: x if k == "error" else list(space.maps[x])
               for k, x in bad.items()}


def _check_inf(space):
    """Selected families of maps have maxitive pointwise infima.  The
    filtered selection is the principal filters, in sorted_fsets order."""
    for fam in sorted((_indices(space.up(k)) for k in range(len(space))),
                      key=lambda fam: (len(fam), fam)):
        if maxitivity_witness(pointwise_inf(space, fam)) is not None:
            yield {"family": fam}


def _check_generator(space):
    """Each generator (h, s) of a map v names a map of the space way-above v.

    The constant-bottom map has every pair as a generator, so this also
    checks that every generator map is maxitive.
    """
    above = way_above_in_space(space)
    for k, values in enumerate(space.maps):
        for gen in representation(space, values):
            g = space.index.get(generator_values(space, gen))
            if g is None or not above[k] >> g & 1:
                yield {"map": list(values), "h": gen.h, "s": gen.s}


def _check_representation(space):
    """The pointwise infimum of a map's generators is the map."""
    for values in space.maps:
        if reconstruction(space, representation(space, values)) != values:
            yield {"map": list(values)}


def _check_corollary(space):
    """The generator characterization of way-above agrees with way-above."""
    above = way_above_in_space(space)
    bad = sorted((w, v) for v in range(len(space))
                 for w in _indices(_bits(corollary_above_set(space, v))
                                   ^ above[v]))
    for w, v in bad:
        yield {"w": list(space.maps[w]), "v": list(space.maps[v])}


LEMMAS = {
    "inf": _check_inf,
    "generator": _check_generator,
    "representation": _check_representation,
    "corollary": _check_corollary,
    "frame": _check_frame,
}


def _space_instances(max_size):
    sources = list(enumerate_posets(max_size, dedup=True))
    targets = [l for l in enumerate_posets(max_size, dedup=True)
               if classify(l).is_complete_lattice]
    for e in sources:
        for l in targets:
            yield e, l


def _space_record(claim, e, l, lemmas):
    """Check the lemmas on the space e -> l; the first violation fails it."""
    t0 = time.perf_counter()
    space = build_space(e, l)
    failure = next((dict(bad, lemma=name) for name in lemmas
                    for bad in LEMMAS[name](space)), None)
    return VerdictRecord(
        claim,
        {"source": describe_poset(e), "target": describe_poset(l),
         "space": len(space)},
        PASS if failure is None else FAIL, failure,
        time.perf_counter() - t0)


# -- claim: frame adjunctions in L and in the map space ----------------------


def _claim_frame_adjunction(bounds):
    max_l = bounds.max_size or 5
    for l in enumerate_posets(max_l):
        profile = classify(l)
        if not profile.is_lattice or l.n == 0:
            continue
        t0 = time.perf_counter()
        desc = {"lattice": describe_poset(l),
                "distributive": profile.is_distributive}
        if not profile.is_distributive:
            try:
                heyting_arrow(l, 0, l.n - 1)
            except ValueError:
                yield VerdictRecord("frame-adjunction", desc, SKIP, None,
                                    time.perf_counter() - t0)
            else:
                yield VerdictRecord(
                    "frame-adjunction", desc, FAIL,
                    {"reason": "arrow defined on a non-distributive lattice"},
                    time.perf_counter() - t0)
            continue
        table = _admissible_table(l)
        failure = next(adjunction_violations(
            l.n, lambda r, s: table[r][s], lambda a: _bits(l.up(a)),
            lambda r, s: heyting_arrow(l, r, s)), None)
        yield VerdictRecord("frame-adjunction", desc,
                            PASS if failure is None else FAIL, failure,
                            time.perf_counter() - t0)
    max_el = min(bounds.max_size or 3, 3)
    for e, l in _space_instances(max_el):
        if classify(l).is_distributive:
            yield _space_record("frame-adjunction", e, l, ("frame",))


# -- claim: generator representation and the way-above corollary -------------


def _claim_representation(bounds):
    max_el = min(bounds.max_size or 3, 3)
    for e, l in _space_instances(max_el):
        yield _space_record("representation", e, l,
                            ("generator", "representation", "corollary"))


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    max_size: int = None
    selections: tuple = None
    depth: int = None


CLAIMS = {
    "seven-element": _claim_seven_element,
    "interpolation": _claim_interpolation,
    "singleton-collapse": _claim_singleton_collapse,
    "supercontinuity-distributivity": _claim_supercontinuity,
    "alternating": _claim_alternating,
    "ideal-round-trip": _claim_ideal_round_trip,
    "extension-extremality": _claim_extension_extremality,
    "thm-5-4": _claim_thm_5_4,
    "frame-adjunction": _claim_frame_adjunction,
    "representation": _claim_representation,
}


def run_suite(claim, *, max_size=None, selections=None, depth=None):
    """Yield the verdict stream of one claim; deterministic for fixed bounds."""
    try:
        fn = CLAIMS[claim]
    except KeyError:
        known = ", ".join(sorted(CLAIMS))
        raise HarnessError(f"unknown claim {claim!r}; known claims: {known}") \
            from None
    if selections is not None:
        selections = tuple(str(SelectionKind(k)) for k in selections)
    yield from fn(Bounds(max_size, selections, depth))


def summarize(records):
    counts = {PASS: 0, FAIL: 0, SKIP: 0}
    for rec in records:
        counts[rec.verdict] += 1
    return counts
