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

import time
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import and_, getitem

from .poset import (FinitePoset, _bits, _indices, _union, classify,
                    dm_completion, enumerate_posets,
                    enumerate_unlabeled_posets, join_table)
from .selections import (BUILTIN_KINDS, SelectionKind, build_selection,
                         continuity_report, is_union_complete, way_above)
from .maxitive import (IdealFamily, InvariantError, MapError, MonotoneMap,
                       NoSupremumError, RationalConeMap, _ideal_family_values,
                       _lower_star_region, _star_region, _sublevel_masks,
                       _unclosed_sublevel, alternating_witness,
                       extend_lower_star, extend_star, is_pairwise_maxitive,
                       iter_maxitive_values, iter_monotone_values,
                       iter_orbit_values, maxitivity_witness)
from .residuation import _theorem_5_4_on_values, heyting_arrow
from .mspace import (_arrow_values, _heyting_join_failure, build_space,
                     ideal_lattice, join_irreducibles, pointwise_inf,
                     way_above_in_space)
from . import io as iomod

try:
    # the built-in SHA-1 spares the import of hashlib and OpenSSL's
    # libcrypto, the largest share of the process's import
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

PASS = "pass"
FAIL = "fail"
SKIP = "hypothesis-not-met"

# thm-5-4 and extension-extremality map every source into each unlabeled
# poset of at most this size.  At sources up to 5, targets up to 5 take
# 3.8 s (thm-5-4) and 3.6 s (extension-extremality) for 7,569 records
# each, against 0.13 s each at 3 (696 records), in process on a shared
# 2-core Xeon with Python 3.11.7.
MAX_TARGET_SIZE = 3


class HarnessError(ValueError):
    """Unknown claim or malformed verdict."""


@dataclass
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


@lru_cache(maxsize=64)
def _default_names(n):
    """The labels "0", ..., "n-1" of a poset of size n without labels."""
    return tuple(map(str, range(n)))


def describe_poset(p) -> dict:
    """Elements, covering pairs and the key, a stable short digest of the
    presentation."""
    n, covers = p.n, p.covers()
    labels = p.labels or _default_names(n)
    payload = repr((n, covers, p.labels)).encode()
    return {"n": n,
            "elements": list(labels),
            "covers": [[labels[i], labels[j]] for i, j in covers],
            "key": sha1(payload).hexdigest()[:12]}


def _unlabeled(max_size):
    """The unlabeled posets of size <= max_size, each with its description."""
    return [(p, describe_poset(p))
            for p in enumerate_unlabeled_posets(max_size)]


# -- labeled-poset sweeps by shape -------------------------------------------


def _shape(p):
    """p's up-masks relabeled by the elements sorted by (|up|, -|down|),
    ties by index: they spell a poset isomorphic to p, so equal keys mean
    isomorphic posets.  Isomorphic posets may get different keys; a class
    is then checked more than once."""
    up, down = p._upm, p._downm
    order = sorted(range(p.n),
                   key=lambda i: (up[i].bit_count(), -down[i].bit_count()))
    pos = [0] * p.n
    for k, i in enumerate(order):
        pos[i] = 1 << k
    return tuple([_union(pos, up[i]) for i in order])


def _replayed(memo, key, check, *args):
    """check(*args), or the result without a witness (a pass or an unmet
    hypothesis) that an earlier check of key stored in memo.  A failure or
    an exception is never stored, so a failing record is computed on its
    own poset, with its own labels."""
    result = memo.get(key)
    if result is None:
        result = check(*args)
        if result[2] is None:
            memo[key] = result
    return result


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
    """Each kind defines its selected sets from the order, so an
    isomorphism maps them, union-completeness, way-above, continuity and
    interpolation onto the other poset's: per kind, a shape's verdict and
    measured fields hold for all its relabelings."""
    kinds = tuple(map(SelectionKind, bounds.selections or BUILTIN_KINDS))
    memo = {}
    for p in enumerate_posets(bounds.max_size or 5):
        desc, shape = describe_poset(p), _shape(p)
        for kind in kinds:
            yield ({"poset": desc, "selection": kind},
                   partial(_replayed, memo, (shape, kind),
                           _check_interpolation, p, kind))


def _check_interpolation(p, kind):
    sel = build_selection(p, kind)
    union_complete = is_union_complete(sel)
    report = continuity_report(p, sel)
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
    """An isomorphism maps the principal filters, way-above and the order
    onto the other poset's, so a shape's verdict holds for all its
    relabelings."""
    memo = {}
    for p in enumerate_posets(bounds.max_size or 5):
        yield ({"poset": describe_poset(p)},
               partial(_replayed, memo, _shape(p),
                       _check_singleton_collapse, p))


def _check_singleton_collapse(p):
    rel = way_above(p, build_selection(p, SelectionKind.PRINCIPAL))
    mismatches = [(y, x) for x, (col, up) in enumerate(zip(rel._cols, p._upm))
                  if col != up for y in _indices(col ^ up)]
    return ({}, FAIL if mismatches else PASS,
            {"pairs": mismatches} if mismatches else None)


# -- claim: supercontinuity iff distributivity on finite lattices -----------


def _claim_supercontinuity(bounds):
    """Being a lattice, distributivity, the upper sets and continuity are
    defined by the order, so whether a shape is a lattice, and a shape's
    verdict and distributivity, hold for all its relabelings: `classify`
    runs once per shape of a bounded poset."""
    memo, lattice = {}, {}
    for p in enumerate_posets(bounds.max_size or 5):
        # a finite lattice has a top and a bottom; most posets have not
        if p.top() is None or p.bottom() is None:
            continue
        shape = _shape(p)
        is_lattice = lattice.get(shape)
        if is_lattice is None:
            is_lattice = lattice[shape] = classify(p).is_lattice
        if is_lattice:
            yield ({"poset": describe_poset(p)},
                   partial(_replayed, memo, shape,
                           _check_supercontinuity, p))


def _check_supercontinuity(p):
    distributive = classify(p).is_distributive
    measured = {"distributive": distributive}
    report = continuity_report(p, build_selection(p, SelectionKind.UPPER))
    if report.is_continuous == distributive:
        return measured, PASS, None
    return measured, FAIL, {"continuous": report.is_continuous,
                            "distributive": distributive,
                            "elements": list(report.continuity_failures)}


# -- claim: maxitive cone maps are alternating of infinite order -------------


def _claim_alternating(bounds):
    """An isomorphism s from p onto q sends each map v on p to v . s^-1 on
    q, a bijection that keeps maxitivity and alternation, so a shape's
    verdict and count of maxitive maps hold for all its relabelings."""
    depth = bounds.depth or 4
    value_range = FinitePoset.chain(4)
    memo = {}
    for p in enumerate_posets(bounds.max_size or 4):
        if classify(p).is_join_semilattice:
            yield ({"poset": describe_poset(p), "depth": depth},
                   partial(_replayed, memo, _shape(p), _check_alternating,
                           p, value_range, depth))


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


# -- map claims over symmetry orbits -----------------------------------------
#
# An automorphism alpha of E and an automorphism beta of L send a map v to
# beta . v . alpha^-1.  The checks of ideal-round-trip, thm-5-4 and
# extension-extremality give that map v's verdict and per-map counters (each
# claim's docstring says why), so they run on one map per orbit, weighted by
# the orbit's size.


def _every_map(e, l):
    """Every monotone tuple e -> l with weight 1: the orbits of the trivial
    group."""
    return ((values, 1) for values in iter_monotone_values(e, l))


def _scan_orbits(check, e, l):
    """Run check, a map claim's check on (values, weight) pairs, on the
    representatives of iter_orbit_values; on a failure, run it again on
    every map.

    On every map of an orbit the check's verdict and counters are the same,
    so a passing scan sums to the counters of the full scan.  A failing scan
    stops at its failure, and its counters count the maps seen before it,
    so the failing record is the full scan's, counters included.  An
    exception raised by the check is a failure too: the full scan raises it
    again or settles the record.  The representatives are listed before
    the check runs, so an error of the generator itself is not taken for
    the check's and reaches the caller.
    """
    representatives = list(iter_orbit_values(e, l))
    try:
        result = check(representatives)
        if result[1] != FAIL:
            return result
    except Exception:    # the full scan below reports it
        pass
    return check(_every_map(e, l))


# -- claim: ideal-family representation round-trip ---------------------------


def _claim_ideal_round_trip(bounds):
    """Each maxitive map's canonical family of sublevel ideals is
    right-continuous and gives the map back.

    The check reads L's FILTERED selection and way-above, and E's closure
    memo, all defined by the order.  An automorphism alpha of E maps ideals
    to ideals, and beta of L maps the sublevel set D_t of v to the sublevel
    set D_beta(t) of beta . v, filtered sets to filtered sets, and infima
    and way-above to themselves.  So beta . v . alpha^-1 is maxitive,
    round-trips and is right-continuous iff v is.
    """
    posets = _unlabeled(bounds.max_size or 4)
    # the round trip reads each target's FILTERED selection and way-above
    targets = []
    for l, l_desc in posets:
        sel = build_selection(l, SelectionKind.FILTERED)
        targets.append((l, l_desc, sel, way_above(l, sel)))
    for e, e_desc in posets:
        for l, l_desc, sel, rel in targets:
            yield ({"source": e_desc, "target": l_desc},
                   partial(_scan_orbits,
                           partial(_check_ideal_round_trip, e, l, sel, rel),
                           e, l))


def _check_ideal_round_trip(e, l, sel, rel, maps):
    checked = 0
    failure = None
    for values, weight in maps:
        try:
            # the family of sublevel sets; its ideal check is the
            # maxitivity test
            fam = IdealFamily(e, l, _sublevel_masks(l, values))
        except MapError:
            continue
        checked += weight
        back = _ideal_family_values(fam, sel)
        if back != values:
            failure = {"values": list(values), "returned": list(back)}
            break
        if not fam.is_right_continuous(rel):
            failure = {"values": list(values),
                       "reason": "canonical family not right-continuous"}
            break
    return ({"maxitive_maps": checked}, PASS if failure is None else FAIL,
            failure)


# -- claim: extremality of the two extensions --------------------------------


def _maxitive_by_restriction(l, sub, positions):
    """Maxitive maps on sub grouped by their values at the given positions."""
    groups = {}
    for values in iter_maxitive_values(sub, l):
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
    """Every maxitive extension of a maxitive map v to the star region lies
    below v*, and to the lower-star region above v_*.

    The check reads the Dedekind-MacNeille completion of E and the
    PRINCIPAL selections of E and L.  An automorphism alpha of E extends to
    one of the completion, a cut A going to alpha[A], which keeps the star
    and lower-star regions, as both are defined by the order and the
    selection.  With beta of L it maps the maxitive extensions of v to
    those of beta . v . alpha^-1, and v* and v_* to that map's, as both are
    infima or suprema of values over traces.  So the verdict, the sides
    checked and a missing supremum are the same on the two maps.
    """
    targets = [(l, l_desc, build_selection(l, SelectionKind.PRINCIPAL))
               for l, l_desc in _unlabeled(MAX_TARGET_SIZE)]
    for e, e_desc in _unlabeled(bounds.max_size or 4):
        ext = dm_completion(e)
        e_joins = classify(e).is_join_semilattice
        ebar_distributive = classify(ext.complete).is_distributive
        sel_e = build_selection(e, SelectionKind.PRINCIPAL)
        # each side as its region poset and the base's positions in it,
        # None where the side's hypothesis fails; the extensions read the
        # same cached regions
        star_side = _star_region(ext, sel_e)[1:] if e_joins else None
        lower, region, positions = _lower_star_region(ext)
        lower_side = ((region, positions) if ebar_distributive and lower
                      and None not in positions else None)
        for l, l_desc, sel_l in targets:
            yield ({"source": e_desc, "target": l_desc,
                    "join_semilattice": e_joins,
                    "completion_distributive": ebar_distributive},
                   partial(_scan_orbits,
                           partial(_check_extension_extremality, e, ext,
                                   sel_e, star_side, lower_side, l, sel_l),
                           e, l))


def _check_extension_extremality(e, ext, sel_e, star_side, lower_side, l,
                                 sel_l, maps):
    star_groups = (_maxitive_by_restriction(l, *star_side)
                   if star_side else None)
    lower_groups = (_maxitive_by_restriction(l, *lower_side)
                    if lower_side else None)
    checked = star_checked = lower_checked = lower_skipped = 0
    failure = None
    for values, weight in maps:
        if _unclosed_sublevel(e, _sublevel_masks(l, values)) is not None:
            continue
        v = MonotoneMap(e, l, values)
        checked += weight
        side = "star"
        try:
            if star_groups is not None:
                vstar = extend_star(v, ext, sel_e, sel_l)
                star_checked += weight
                failure = _unbounded_extension(l, values, side, star_groups,
                                               vstar.values)
            if failure is None and lower_groups is not None:
                side = "lower"
                try:
                    vlow = extend_lower_star(v, ext)
                except NoSupremumError:
                    # the one expected refusal; any other MapError is a
                    # defect and reaches the driver as a failure
                    lower_skipped += weight
                else:
                    lower_checked += weight
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
    """Residuated maps are sup maps, and sup maps are residuated under the
    converse's hypotheses, on the Dedekind-MacNeille completion of E.

    The verdict reads the sublevel sets of v, the down-traces of the
    completion, E's closure memo and the bottoms of E and L.  An
    automorphism alpha of E extends to one of the completion, a cut A going
    to alpha[A], so the down-traces are permuted by alpha and the sublevel
    masks of beta . v . alpha^-1 are those of v moved by alpha, relabeled by
    beta.  Residuation, complete maxitivity and keeping the bottom are then
    the same on both maps; the hypotheses depend on E and the completion
    alone.
    """
    targets = _unlabeled(MAX_TARGET_SIZE)
    for e, e_desc in _unlabeled(bounds.max_size or 4):
        ext = dm_completion(e)
        for l, l_desc in targets:
            yield ({"source": e_desc, "target": l_desc},
                   partial(_scan_orbits, partial(_check_thm_5_4, e, ext, l),
                           e, l))


def _check_thm_5_4(e, ext, l, maps):
    checked = converse_checked = outside = 0
    failure = applicable = None
    for values, weight in maps:
        checked += weight
        verdict = _theorem_5_4_on_values(e, l, values, ext)
        applicable = verdict.converse_applicable
        if not verdict.forward_holds:
            failure = {"values": list(values), "direction": "forward"}
            break
        if verdict.converse_applicable:
            converse_checked += weight
            if not verdict.converse_holds:
                failure = {"values": list(values), "direction": "converse"}
                break
        elif verdict.sup_map and not verdict.residuated:
            # outside the hypotheses: recorded, never asserted
            outside += weight
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
        for h, s in gens:
            g = index[h][s]
            if g is None or not above >> g & 1:
                yield {"map": list(values), "h": h, "s": s}


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

    The lattice half's table and arrow are defined by the order, and
    heyting_arrow refuses every non-distributive lattice whatever r and s,
    so a shape's verdict holds for all its relabelings.
    """
    memo = {}
    for l in enumerate_posets(bounds.max_size or 5):
        profile = classify(l)
        if profile.is_lattice and l.n:
            yield ({"lattice": describe_poset(l),
                    "distributive": profile.is_distributive},
                   partial(_replayed, memo, _shape(l),
                           _check_lattice_adjunction, l,
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
    claim but alternating, which would ignore them, any selection kind
    but principal, filtered and upper, and a kind given twice, which would
    run twice.  These refusals and an
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
        for k, kind in enumerate(selections):
            if kind not in BUILTIN_KINDS:
                raise HarnessError(f"selection {kind!r} is not one of "
                                   "principal, filtered, upper")
            if kind in selections[:k]:
                raise HarnessError(f"selection {kind!r} is given twice")
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
