"""Residuated maps, adjoints, completely maxitive maps, and the Heyting
arrow of a distributive lattice.

Residuation is judged against an order extension of the source: a map is
residuated when each of its sublevel sets is the trace of a principal ideal
of the completion.  Residuated maps are always completely maxitive, and
sup maps when the extension keeps the bottom; the converse needs a
meet-continuous completion or a complete source.
"""

from dataclasses import dataclass
from functools import lru_cache

from .poset import (FinitePoset, OrderExtension, PosetError, _bits,
                    _bounding_member, _indices, _pair_tables,
                    classify)
from .maxitive import (MapError, MonotoneMap, _sublevel_masks,
                       _unclosed_sublevel)


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
    return _traced(ext, _sublevel_masks(v.target, v.values))


def _traced(ext, sublevels):
    """Whether each of the sublevel masks is one of ext's down-traces: the
    residuation test of is_residuated and of theorem_5_4."""
    traces = ext._down_traces
    return all(level in traces for level in sublevels)


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
    for level in _sublevel_masks(v.target, v.values):
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
    forward_applicable: bool
    forward_holds: bool
    converse_applicable: bool
    converse_holds: bool


def theorem_5_4(v: MonotoneMap, ext: OrderExtension) -> Theorem54Verdict:
    """Evaluate: residuated implies sup map, when the extension keeps the
    bottom, and the converse under the hypotheses that actually support it.

    A sup map is completely maxitive and sends a bottom of the source, the
    supremum of the empty family, to a bottom of the target.

    Forward.  Let v be residuated: each sublevel set D_t is the trace of
    some a_t in the completion.  A family F with supremum s in E has
    e(s) = sup e[F], as e preserves existing suprema; if v[F] lies below t
    then F lies in D_t, so e(s) <= a_t, so s is in D_t.  Hence v(s) is the
    join of v[F]: v is completely maxitive.  For the empty family, if E has
    a bottom b and e(b) is the bottom of the completion, then e(b) <= a_t
    for every t, so v(b) lies below every t.  That hypothesis, e keeps the
    bottom, is vacuous when E has no bottom, and the Dedekind-MacNeille
    completion always meets it.  Without it the forward direction fails:
    E one point g, the completion the 2-chain bottom < g, L the 2-antichain
    {x, y} and v(g) = x.  The empty sublevel set D_y is the trace of the
    new bottom, so v is residuated, but L has no bottom for v(g) to be.
    Where the hypothesis fails the direction is reported not applicable.

    The converse direction consumes the sup-map variant of complete
    maxitivity and meet-continuity of the completion over base ideals; with
    the nonempty-family variant, or with meet-continuity read on the
    completion alone, finite counterexamples exist (e.g. a one-point source
    into a two-point antichain).  Both readings are reported.

    Complete maxitivity, the preservation of all existing suprema of
    nonempty families, is plain maxitivity here: on a finite source every
    family is finite.  The verdict is _theorem_5_4_on_values on v's values.
    """
    if v.source != ext.base:
        raise MapError("map and extension have different base posets")
    return _theorem_5_4_on_values(v.source, v.target, v.values, ext)


def _theorem_5_4_on_values(e, l, values, ext) -> Theorem54Verdict:
    """The verdict of theorem_5_4 on a monotone value tuple e -> l, with e
    the extension's base, built from the tuple's sublevel masks: v is
    residuated iff each mask is among the extension's down-traces,
    completely maxitive iff the scan of _unclosed_sublevel finds no
    unclosed one, and keeps the bottom iff the bottom of e, if any, has the
    bottom of l as its value.  The facts of the extension alone are read
    from caches."""
    sublevels = _sublevel_masks(l, values)
    resid = _traced(ext, sublevels)
    cmax = _unclosed_sublevel(e, sublevels) is None
    b = e.bottom()
    sup_map = cmax and (b is None or values[b] == l.bottom())
    forward = b is None or ext.embed[b] == ext.complete.bottom()
    source_complete = classify(e).is_complete_lattice
    mc_over = _meet_continuous_over_once(ext)
    applicable = source_complete or mc_over
    return Theorem54Verdict(
        residuated=resid,
        completely_maxitive=cmax,
        sup_map=sup_map,
        source_complete=source_complete,
        completion_meet_continuous=classify(ext.complete).is_meet_continuous,
        completion_meet_continuous_over_base=mc_over,
        forward_applicable=forward,
        forward_holds=(not forward) or (not resid) or sup_map,
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
