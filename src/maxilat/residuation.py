"""Residuated maps, adjoints, completely maxitive maps, and the Heyting
arrow of a distributive lattice.

Residuation is judged against an order extension of the source: a map is
residuated when each of its sublevel sets is the trace of a principal ideal
of the completion.  Residuated maps are always completely maxitive; the
converse needs a meet-continuous completion or a complete source.
"""

from dataclasses import dataclass
from functools import lru_cache

from .poset import (FinitePoset, OrderExtension, PosetError, _bits,
                    _bounding_member, _indices, _pair_tables,
                    classify)
from .maxitive import (MapError, MonotoneMap, _sublevel_masks,
                       maxitivity_witness)


def _keeps_bottom(v: MonotoneMap) -> bool:
    """The empty-family half of a sup map, complete maxitivity with the
    empty family included: the empty family's supremum is the bottom of
    the source, and its value join is the bottom of the target, so a
    bottom must go to a bottom."""
    b = v.source.bottom()
    return b is None or v.values[b] == v.target.bottom()


def is_meet_continuous_over(ext: OrderExtension) -> bool:
    """Meet-continuity of the completion over the ideals of the base.

    For every ideal I of the base and every x in the completion,
    x meet (sup I) must equal the supremum of the part of I sitting below x.
    Quantifying over base ideals (not ideals of the completion, over which
    every finite lattice is trivially meet-continuous) is what the converse
    of the residuation equivalence consumes.

    It runs on masks over the base.  The part of I below x is I meet D_x,
    with D_x the down-trace of x, and the supremum of the image of a set J
    of base elements is the least a whose down-trace holds J; for the empty
    J that is the bottom, as the definition asks.
    """
    big, base = ext.complete, ext.base
    traces, up = ext._down_traces, big._upm
    meets = _pair_tables(big)[1]
    sups = {}

    def sup(part):
        if part not in sups:
            sups[part] = _bounding_member(up, _bits(
                a for a, trace in enumerate(traces) if not part & ~trace))
        return sups[part]

    for ideal in base._lower_masks():
        if not ideal or base._unclosed_family(ideal) is not None:
            continue
        meet_s = meets[sup(ideal)]
        for x, trace in enumerate(traces):
            if meet_s[x] != sup(ideal & trace):
                return False
    return True


@lru_cache(maxsize=64)
def _meet_continuous_over_once(ext: OrderExtension) -> bool:
    """is_meet_continuous_over, computed once per extension: it depends only
    on the extension, and theorem_5_4 is asked about every map on it."""
    return is_meet_continuous_over(ext)


def is_residuated(v: MonotoneMap, ext: OrderExtension) -> bool:
    """True iff every sublevel set of v is the base trace of a principal
    ideal of the completion: a lookup of its mask among the extension's
    down-traces."""
    if v.source != ext.base:
        raise MapError("map and extension have different base posets")
    traces = ext._down_traces
    return all(level in traces for level in _sublevel_masks(v))


@dataclass(frozen=True)
class Adjoint:
    """The upper adjoint of a residuated map, with the Galois property
    v(g) <= t iff g <= w(t) checked at construction."""

    forward: MonotoneMap
    ext: OrderExtension
    map: MonotoneMap

    def __post_init__(self):
        v, ext, w = self.forward, self.ext, self.map
        if w.source != v.target or w.target != ext.complete:
            raise MapError("adjoint must map the target into the completion")
        for g in range(v.source.n):
            for t in range(v.target.n):
                lhs = v.target.leq(v.values[g], t)
                rhs = ext.complete.leq(ext.embed[g], w.values[t])
                if lhs != rhs:
                    raise MapError(f"Galois condition fails at ({g}, {t})")

    def __call__(self, t):
        return self.map.values[t]


def adjoint_of(v: MonotoneMap, ext: OrderExtension) -> Adjoint:
    """Adjoint w(t) = join of the sublevel set of t inside the completion."""
    if not is_residuated(v, ext):
        raise MapError("map is not residuated on this extension")
    big = ext.complete
    values = []
    for level in _sublevel_masks(v):
        if level:
            values.append(big.sup_of([ext.embed[g] for g in _indices(level)]))
        else:
            values.append(big.bottom())
    w = MonotoneMap(v.target, big, tuple(values))
    return Adjoint(v, ext, w)


@dataclass(frozen=True)
class Theorem54Verdict:
    """Outcome of checking both directions of the residuated/completely
    maxitive equivalence on one instance."""

    residuated: bool
    completely_maxitive: bool
    sup_map: bool
    source_complete: bool
    completion_meet_continuous: bool
    completion_meet_continuous_over_base: bool
    forward_holds: bool
    converse_applicable: bool
    converse_holds: bool


def theorem_5_4(v: MonotoneMap, ext: OrderExtension) -> Theorem54Verdict:
    """Evaluate: residuated implies completely maxitive (must always hold),
    and the converse under the hypotheses that actually support it.

    The converse direction consumes the sup-map variant of complete
    maxitivity and meet-continuity of the completion over base ideals; with
    the nonempty-family variant, or with meet-continuity read on the
    completion alone, finite counterexamples exist (e.g. a one-point source
    into a two-point antichain).  Both readings are reported.

    Complete maxitivity, the preservation of all existing suprema of
    nonempty families, is plain maxitivity here: on a finite source every
    family is finite.  One maxitivity scan serves it and the sup-map variant.
    """
    resid = is_residuated(v, ext)
    cmax = maxitivity_witness(v) is None
    sup_map = cmax and _keeps_bottom(v)
    source_complete = classify(v.source).is_complete_lattice
    mc_plain = classify(ext.complete).is_meet_continuous
    mc_over = _meet_continuous_over_once(ext)
    applicable = source_complete or mc_over
    return Theorem54Verdict(
        residuated=resid,
        completely_maxitive=cmax,
        sup_map=sup_map,
        source_complete=source_complete,
        completion_meet_continuous=mc_plain,
        completion_meet_continuous_over_base=mc_over,
        forward_holds=(not resid) or (cmax and sup_map),
        converse_applicable=applicable,
        converse_holds=(not applicable) or (not sup_map) or resid,
    )


def heyting_arrow(l: FinitePoset, r, s):
    """The least t with s <= r or t, in a distributive complete lattice.

    This is the relative complement realizing the adjunction
    s <= r v t iff (r <- s) <= t; it is computed as the infimum of the
    filter of all admissible t.
    """
    profile = classify(l)
    if not profile.is_complete_lattice:
        raise PosetError("the lattice must be complete")
    if not profile.is_distributive:
        raise PosetError("the lattice must be distributive")
    admissible = frozenset(t for t in range(l.n)
                           if l.leq(s, l.sup_of((r, t))))
    arrow = l.inf_of(admissible)
    if arrow not in admissible:
        raise PosetError("no least admissible element; lattice not a frame")
    return arrow
