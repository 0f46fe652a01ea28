"""Exhaustive desk-scale verification suites with machine-readable verdicts.

A claim is a generator of instances.  It enumerates a deterministic family,
builds what the instances of one source or one target share once, and
yields one (fields, check) pair per instance (or per instance group for map
sweeps).  A check takes no arguments and returns (measured fields, verdict,
witness).  `run_suite` is the one driver: it times each check, turns an
exception raised inside a check into a failing record, and builds the
verdict records, whose instance is the fields followed by the measured
fields.  A failing record always carries a witness that replays through the
library.
"""

import hashlib
import time
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import and_, getitem

from .poset import (FinitePoset, _bits, _indices, _union, classify,
                    dm_completion, enumerate_posets,
                    enumerate_unlabeled_posets, join_table)
from .selections import (BUILTIN_KINDS, SelectionKind, build_selection,
                         continuity_report, is_union_complete, way_above)
from .maxitive import (InvariantError, MonotoneMap, RationalConeMap,
                       alternating_witness, e_lower_star, e_star,
                       extend_lower_star, extend_star, from_ideal_family,
                       ideal_family_of, is_pairwise_maxitive,
                       iter_monotone_values, MapError, maxitivity_witness)
from .residuation import heyting_arrow, theorem_5_4
from .mspace import (_arrow_values, _heyting_join_failure, build_space,
                     ideal_lattice, join_irreducibles, pointwise_inf,
                     way_above_in_space)
from . import io as iomod

PASS = "pass"
FAIL = "fail"
SKIP = "hypothesis-not-met"

# thm-5-4 and extension-extremality map every source into each unlabeled
# poset of at most this size.  At sources up to 5, targets up to 5 take
# 14-18 s per claim (7,569 records), against 0.2 s at 3 (696 records), in
# process on a shared 2-core Xeon with Python 3.11.7.
MAX_TARGET_SIZE = 3


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


def _unlabeled(max_size):
    """The unlabeled posets of size <= max_size, each with its description."""
    return [(p, describe_poset(p))
            for p in enumerate_unlabeled_posets(max_size)]


# -- claim: the seven-element counterexample --------------------------------


def _claim_seven_element(bounds):
    v = iomod.fixture_map("seven_indicator.json")
    yield ({"poset": describe_poset(v.source), "values": list(v.values)},
           partial(_check_seven_element, v))


def _check_seven_element(v):
    seven = v.source
    pairwise = is_pairwise_maxitive(v)
    family = maxitivity_witness(v)
    expected = frozenset(seven.index_of(x) for x in ("a", "b", "c"))
    witness = {"pairwise": pairwise,
               "maxitive": family is None,
               "family": (sorted(seven.label_of(i) for i in family)
                          if family else None)}
    return {}, PASS if pairwise and family == expected else FAIL, witness


# -- claim: interpolation under union-complete selections --------------------


def _claim_interpolation(bounds):
    kinds = bounds.selections or ("principal", "filtered", "upper")
    for p in enumerate_posets(bounds.max_size or 5):
        desc = describe_poset(p)
        # the report depends on the selected masks alone, and FILTERED
        # selects PRINCIPAL's masks (see build_selection): one per family
        reports = {}
        for kind in kinds:
            yield ({"poset": desc, "selection": kind},
                   partial(_check_interpolation, p, kind, reports))


def _check_interpolation(p, kind, reports):
    sel = build_selection(p, kind)
    union_complete = is_union_complete(sel)
    report = reports.get(sel._masks)
    if report is None:
        report = reports[sel._masks] = continuity_report(p, sel)
    measured = {"union_complete": union_complete,
                "continuous": report.is_continuous}
    if not union_complete:
        return measured, SKIP, None
    if report.is_continuous and not report.has_interpolation:
        return measured, FAIL, {"pairs": [[p.label_of(y), p.label_of(x)]
                                          for y, x in
                                          report.interpolation_failures]}
    return measured, PASS, None


# -- claim: way-above under principal filters collapses to the order ---------


def _claim_singleton_collapse(bounds):
    for p in enumerate_posets(bounds.max_size or 5):
        yield {"poset": describe_poset(p)}, partial(_check_singleton_collapse, p)


def _check_singleton_collapse(p):
    rel = way_above(p, build_selection(p, SelectionKind.PRINCIPAL))
    mismatches = [(y, x) for x, col in enumerate(rel._cols)
                  for y in _indices(col ^ p._upm[x])]
    return ({}, FAIL if mismatches else PASS,
            {"pairs": mismatches} if mismatches else None)


# -- claim: supercontinuity iff distributivity on finite lattices -----------


def _claim_supercontinuity(bounds):
    for p in enumerate_posets(bounds.max_size or 5):
        # a finite lattice has a top and a bottom; most posets have not
        if p.top() is None or p.bottom() is None:
            continue
        profile = classify(p)
        if profile.is_lattice:
            yield ({"poset": describe_poset(p),
                    "distributive": profile.is_distributive},
                   partial(_check_supercontinuity, p, profile.is_distributive))


def _check_supercontinuity(p, distributive):
    report = continuity_report(p, build_selection(p, SelectionKind.UPPER))
    if report.is_continuous == distributive:
        return {}, PASS, None
    return {}, FAIL, {"continuous": report.is_continuous,
                      "distributive": distributive,
                      "elements": list(report.continuity_failures)}


# -- claim: maxitive cone maps are alternating of infinite order -------------


def _claim_alternating(bounds):
    depth = bounds.depth or 4
    value_range = FinitePoset.chain(4)
    for p in enumerate_posets(bounds.max_size or 4):
        if classify(p).is_join_semilattice:
            yield ({"poset": describe_poset(p), "depth": depth},
                   partial(_check_alternating, p, value_range, depth))


def _check_alternating(p, value_range, depth):
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
    return ({"maxitive_maps": checked}, PASS if failure is None else FAIL,
            failure)


# -- claim: ideal-family representation round-trip ---------------------------


def _claim_ideal_round_trip(bounds):
    posets = _unlabeled(bounds.max_size or 4)
    # the round trip reads each target's FILTERED selection and way-above
    targets = []
    for l, l_desc in posets:
        sel = build_selection(l, SelectionKind.FILTERED)
        targets.append((l, l_desc, sel, way_above(l, sel)))
    for e, e_desc in posets:
        for l, l_desc, sel, rel in targets:
            yield ({"source": e_desc, "target": l_desc},
                   partial(_check_ideal_round_trip, e, l, sel, rel))


def _check_ideal_round_trip(e, l, sel, rel):
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
    return ({"maxitive_maps": checked}, PASS if failure is None else FAIL,
            failure)


# -- claim: extremality of the two extensions --------------------------------


def _region(ext, region):
    """A sorted region of the completion as a poset, with the position of
    each base element's image in it."""
    return ext.complete.restrict(region), [region.index(a) for a in ext.embed]


def _maxitive_by_restriction(l, sub, positions):
    """Maxitive maps on sub grouped by their values at the given positions."""
    groups = {}
    for values in iter_monotone_values(sub, l):
        m = MonotoneMap(sub, l, values)
        if maxitivity_witness(m) is None:
            groups.setdefault(tuple(values[k] for k in positions),
                              []).append(values)
    return groups


def _unbounded_extension(l, values, side, groups, bound):
    """The witness at the first maxitive extension of values that the
    extension bound does not bound, from above on the star side and from
    below on the lower side; None if it bounds them all."""
    for w in groups.get(tuple(values), ()):
        pairs = zip(w, bound) if side == "star" else zip(bound, w)
        if not all(l.leq(x, y) for x, y in pairs):
            return {"values": list(values), "side": side,
                    "extension": list(w), "bound": list(bound)}
    return None


def _claim_extension_extremality(bounds):
    targets = [(l, l_desc, build_selection(l, SelectionKind.PRINCIPAL))
               for l, l_desc in _unlabeled(MAX_TARGET_SIZE)]
    for e, e_desc in _unlabeled(bounds.max_size or 4):
        ext = dm_completion(e)
        e_joins = classify(e).is_join_semilattice
        ebar_distributive = classify(ext.complete).is_distributive
        sel_e = build_selection(e, SelectionKind.PRINCIPAL)
        # each side as its region and the base's positions in it, None
        # where the side's hypothesis fails
        star_side = (_region(ext, sorted(e_star(ext, sel_e)))
                     if e_joins else None)
        lower = sorted(e_lower_star(ext))
        lower_side = (_region(ext, lower)
                      if ebar_distributive and lower
                      and set(ext.embed) <= set(lower) else None)
        for l, l_desc, sel_l in targets:
            yield ({"source": e_desc, "target": l_desc,
                    "join_semilattice": e_joins,
                    "completion_distributive": ebar_distributive},
                   partial(_check_extension_extremality, e, ext, sel_e,
                           star_side, lower_side, l, sel_l))


def _check_extension_extremality(e, ext, sel_e, star_side, lower_side, l,
                                 sel_l):
    star_groups = (_maxitive_by_restriction(l, *star_side)
                   if star_side else None)
    lower_groups = (_maxitive_by_restriction(l, *lower_side)
                    if lower_side else None)
    checked = star_checked = lower_checked = lower_skipped = 0
    failure = None
    for values in iter_monotone_values(e, l):
        v = MonotoneMap(e, l, values)
        if maxitivity_witness(v) is not None:
            continue
        checked += 1
        side = "star"
        try:
            if star_groups is not None:
                vstar = extend_star(v, ext, sel_e, sel_l)
                star_checked += 1
                failure = _unbounded_extension(l, values, side, star_groups,
                                               vstar.values)
            if failure is None and lower_groups is not None:
                side = "lower"
                try:
                    vlow = extend_lower_star(v, ext)
                except MapError:
                    lower_skipped += 1
                else:
                    lower_checked += 1
                    failure = _unbounded_extension(l, values, side,
                                                   lower_groups, vlow.values)
        except InvariantError as exc:
            failure = {"values": list(values), "side": side,
                       "error": str(exc)}
        if failure is not None:
            break
    verdict = (FAIL if failure is not None
               else PASS if star_checked or lower_checked else SKIP)
    return ({"maxitive_maps": checked, "star_checked": star_checked,
             "lower_checked": lower_checked, "lower_skipped": lower_skipped},
            verdict, failure)


# -- claim: residuated vs completely maxitive --------------------------------


def _claim_thm_5_4(bounds):
    targets = _unlabeled(MAX_TARGET_SIZE)
    for e, e_desc in _unlabeled(bounds.max_size or 4):
        ext = dm_completion(e)
        for l, l_desc in targets:
            yield ({"source": e_desc, "target": l_desc},
                   partial(_check_thm_5_4, e, ext, l))


def _check_thm_5_4(e, ext, l):
    checked = converse_checked = outside = 0
    failure = applicable = None
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
                failure = {"values": list(values), "direction": "converse"}
                break
        elif verdict.sup_map and not verdict.residuated:
            # outside the hypotheses: recorded, never asserted
            outside += 1
    return ({"monotone_maps": checked,
             "converse_applicable": bool(applicable),
             "converse_checked": converse_checked,
             "unresiduated_sup_maps_outside_hypotheses": outside},
            PASS if failure is None else FAIL, failure)


# -- map-space lemmas: one checker each, shared with `mspace verify` ----------
#
# A checker takes a built MaxMapSpace and yields one witness dict per
# violation.  A claim takes the first one as its witness; the CLI lists all.


def adjunction_violations(n, admissible, up, arrow, generators=None):
    """Yield each (u, v, w) at which v <= u join w, the mask admissible(u, v),
    and arrow(u, v) <= w, the mask up(a), disagree; a MapError from the
    arrow is a violation at (u, v).

    Checking every w covers the rest of the frame statement: w = arrow(u, v)
    shows the arrow is admissible, and every admissible w lies above it.
    When u <= v, w = v is admissible, so u join arrow(u, v) = v.

    With generators, the caller vouches that the adjunction at every
    (u, v) follows from the adjunction at the (u, v) with v among them.
    Those pairs are checked first, and the scan of all n^2 pairs runs only
    when one fails, to name the violations in the same order as without
    generators.
    """
    def scan(vs):
        for u in range(n):
            for v in vs:
                try:
                    a = arrow(u, v)
                except MapError as exc:
                    yield {"u": u, "v": v, "error": str(exc)}
                    continue
                for w in _indices(admissible(u, v) ^ up(a)):
                    yield {"u": u, "v": v, "w": w}

    if generators is not None and next(scan(generators), None) is None:
        return
    yield from scan(range(n))


def _admissible_table(l):
    """table[r][s]: the mask of the t with s <= r join t, from the order and
    joins of l alone, so that it checks heyting_arrow independently."""
    joins = join_table(l)
    return [[_bits(t for t in range(l.n) if l.leq(s, joins[r][t]))
             for s in range(l.n)] for r in range(l.n)]


def _check_frame(space):
    """The residuation u <- v of the space is adjoint to its join.  Joins are
    pointwise, so w is admissible iff each w(g) is in table[u(g)][v(g)].

    The adjunction is checked at the join-irreducible maps v and the bottom
    map only, for every u.  That suffices:
    - every map v of the finite space is the bottom or the join of the
      join-irreducibles below it;
    - the arrow is g -> sup of heyting(u(h), v(h)) over h <= g, and joins
      in the space are pointwise, so when each heyting(r, -) preserves
      binary joins on L, arrow(u, v1 join v2) = arrow(u, v1) join
      arrow(u, v2), a map of the space if both are;
    - then v1 join v2 <= u join w iff v1 <= u join w and v2 <= u join w,
      iff arrow(u, v1) <= w and arrow(u, v2) <= w, iff arrow(u, v1 join
      v2) <= w: the adjunction at v1 and at v2 gives it at v1 join v2.
    Join preservation is one |L|^3 check on the Heyting table.  If it fails,
    that is a violation naming (r, s, t), and every pair is scanned.
    """
    l, maps = space.target, space.maps
    table = _admissible_table(l)
    valued_in = [[[_union(column, ts) for ts in row] for row in table]
                 for column in space.at_least]
    full = (1 << len(space)) - 1

    @lru_cache(maxsize=1)
    def admissible_rows(u):
        return [masks[r] for masks, r in zip(valued_in, maps[u])]

    def admissible(u, v):
        return reduce(and_, map(getitem, admissible_rows(u), maps[v]), full)

    generators = None
    broken = _heyting_join_failure(l)
    values_of = _arrow_values(space)

    index = space.index

    def arrow(u, v):
        values = values_of(u, v)
        found = index.get(values)
        return space.index_of(values) if found is None else found
    if broken is not None:
        r, s, t = broken
        yield {"r": r, "s": s, "t": t,
               "error": "heyting_arrow(r, -) does not preserve the join "
                        "of s and t"}
    else:
        generators = [space.index_of((l.bottom(),) * space.source.n),
                      *join_irreducibles(space)]
    for bad in adjunction_violations(len(space), admissible,
                                     space.ups.__getitem__, arrow, generators):
        yield {k: x if k == "error" else list(space.maps[x])
               for k, x in bad.items()}


def frame_hypothesis(e):
    """The hypothesis of the frame theorem on the source: whether I(E) is
    distributive, and its size |I(E)|."""
    ideals = ideal_lattice(e)
    return {"ideal_lattice_distributive": classify(ideals).is_distributive,
            "ideals": ideals.n}


def _check_inf(space):
    """Selected families of maps have maxitive pointwise infima.  The
    filtered selection is the principal filters, by size, then elements."""
    for fam in sorted(map(_indices, space.ups),
                      key=lambda fam: (len(fam), fam)):
        if maxitivity_witness(pointwise_inf(space, fam)) is not None:
            yield {"family": fam}


def _check_generator(space):
    """Each generator (h, s) of a map v names a map of the space way-above v.

    The constant-bottom map has every pair as a generator, so this also
    checks that every generator map is maxitive.
    """
    index = [[space.index.get(values) for values in row]
             for row in space.generator_maps]
    for values, gens, above in zip(space.maps, space.representations,
                                   way_above_in_space(space)):
        for gen in gens:
            g = index[gen.h][gen.s]
            if g is None or not above >> g & 1:
                yield {"map": list(values), "h": gen.h, "s": gen.s}


def _check_representation(space):
    """The pointwise infimum of a map's generators is the map."""
    for values, back in zip(space.maps, space.reconstructions):
        if back != values:
            yield {"map": list(values)}


def _check_corollary(space):
    """The generator characterization of way-above agrees with way-above."""
    above = way_above_in_space(space)
    bad = sorted((w, v) for v, floor in enumerate(space.reconstructions)
                 for w in _indices(space.above(floor) ^ above[v]))
    for w, v in bad:
        yield {"w": list(space.maps[w]), "v": list(space.maps[v])}


LEMMAS = {
    "inf": _check_inf,
    "generator": _check_generator,
    "representation": _check_representation,
    "corollary": _check_corollary,
    "frame": _check_frame,
}


def _check_space(e, l, lemmas, hypothesis=None, violated=False):
    """Check the lemmas on the space e -> l.  The record passes when a
    violation is found exactly if one is expected (violated); the first one
    is the witness either way.  A hypothesis dict follows the space size in
    the instance."""
    space = build_space(e, l)
    found = next((dict(bad, lemma=name) for name in lemmas
                  for bad in LEMMAS[name](space)), None)
    witness = found
    if violated and found is None:
        witness = {"lemmas": list(lemmas),
                   "reason": "no violation where the hypothesis fails"}
    return ({"space": len(space), **(hypothesis or {})},
            PASS if (found is not None) == violated else FAIL, witness)


# -- claim: frame adjunctions in L and in the map space ----------------------


def _claim_frame_adjunction(bounds):
    """The adjunction in every distributive lattice, then the frame theorem
    for the space of maxitive maps E -> L into each distributive complete
    lattice L: the space is a frame iff I(E) is distributive or |L| = 1.
    So the checker must find a violation exactly when I(E) is not
    distributive and |L| >= 2, and both directions are verified.

    I(E) is the lower sets of E closed under existing sups.  The map
    v -> (D -> sup v[D]) is an order isomorphism from the space onto the
    join-preserving maps I(E) -> L, with inverse l -> (g -> l(down g)).
    - If: when I(E) is distributive, Birkhoff's representation turns those
      maps into the monotone maps J(I(E)) -> L, a distributive lattice
      under the pointwise order when L is; a finite lattice is a frame iff
      it is distributive.
    - Only if: take bottom < top in L.  A join-preserving map into
      {bottom, top} sends exactly some down d to bottom, so these maps form
      a copy of I(E)^op.  It is closed under the pointwise joins of the
      space, and under meets: the meet of the maps of d1 and d2 is the map
      of d1 join d2, since any join-preserving map below both sends d1 and
      d2, hence d1 join d2, to bottom.  A sublattice of a distributive
      lattice is distributive, so a distributive space forces I(E)
      distributive.
    The smallest sources with I(E) not distributive have four elements:
    three atoms under a top, where I(E) is shaped like M3, and a 2-chain
    and a point under a top, where it is shaped like N5.
    """
    for l in enumerate_posets(bounds.max_size or 5):
        profile = classify(l)
        if profile.is_lattice and l.n:
            yield ({"lattice": describe_poset(l),
                    "distributive": profile.is_distributive},
                   partial(_check_lattice_adjunction, l,
                           profile.is_distributive))
    posets = _unlabeled(bounds.max_size or 3)
    targets = [(l, l_desc) for l, l_desc in posets
               if classify(l).is_complete_lattice
               and classify(l).is_distributive]
    for e, e_desc in posets:
        hypothesis = frame_hypothesis(e)
        for l, l_desc in targets:
            yield ({"source": e_desc, "target": l_desc},
                   partial(_check_space, e, l, ("frame",), hypothesis,
                           not hypothesis["ideal_lattice_distributive"]
                           and l.n >= 2))


def _check_lattice_adjunction(l, distributive):
    if not distributive:
        try:
            heyting_arrow(l, 0, l.n - 1)
        except ValueError:
            return {}, SKIP, None
        return {}, FAIL, {"reason": "arrow defined on a non-distributive "
                                    "lattice"}
    table = _admissible_table(l)
    failure = next(adjunction_violations(
        l.n, lambda r, s: table[r][s], lambda a: l._upm[a],
        lambda r, s: heyting_arrow(l, r, s)), None)
    return {}, PASS if failure is None else FAIL, failure


# -- claim: generator representation and the way-above corollary -------------


def _claim_representation(bounds):
    posets = _unlabeled(bounds.max_size or 3)
    targets = [(l, l_desc) for l, l_desc in posets
               if classify(l).is_complete_lattice]
    for e, e_desc in posets:
        for l, l_desc in targets:
            yield ({"source": e_desc, "target": l_desc},
                   partial(_check_space, e, l,
                           ("generator", "representation", "corollary")))


# -- registry and driver -----------------------------------------------------


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
    """Yield the verdict stream of one claim; deterministic for fixed bounds.

    A bound left as None takes the claim's default; one below 1 is refused,
    and so are selections for any claim but interpolation and depth for any
    claim but alternating, which would ignore them, and any selection kind
    but principal, filtered and upper.  These refusals and an
    error raised while the claim generates its instances propagate.  An
    exception raised inside a check instead becomes a failing record with
    the witness {"error": "<type>: <message>"}, and the stream goes on.
    `elapsed` is the time of the check alone.
    """
    instances = CLAIMS.get(claim)
    if instances is None:
        known = ", ".join(sorted(CLAIMS))
        raise HarnessError(f"unknown claim {claim!r}; known claims: {known}")
    for name, bound in (("max_size", max_size), ("depth", depth)):
        if bound is not None and bound < 1:
            raise HarnessError(f"{name} must be at least 1, got {bound}")
    for name, bound, owner in (("selections", selections, "interpolation"),
                               ("depth", depth, "alternating")):
        if bound is not None and claim != owner:
            raise HarnessError(f"{name} applies only to {owner}, not {claim}")
    if selections is not None:
        selections = tuple(map(str, selections))
        for kind in selections:
            if kind not in BUILTIN_KINDS:
                raise HarnessError(f"selection {kind!r} is not one of "
                                   "principal, filtered, upper")
    for fields, check in instances(Bounds(max_size, selections, depth)):
        t0 = time.perf_counter()
        try:
            measured, verdict, witness = check()
        except Exception as exc:
            measured, verdict = {}, FAIL
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        yield VerdictRecord(claim, {**fields, **measured}, verdict, witness,
                            time.perf_counter() - t0)


def summarize(records):
    counts = {PASS: 0, FAIL: 0, SKIP: 0}
    for rec in records:
        counts[rec.verdict] += 1
    return counts
