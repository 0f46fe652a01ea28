"""Maxitive maps between finite posets, their ideal-family representations,
the alternating property over the rational cone, and the two canonical
extensions to an order completion.

A map v: E -> L is maxitive when it turns every existing finite supremum of
a nonempty family in E into the supremum of the values in L.  On a join
semilattice this reduces to the pairwise law, but not in general.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .poset import (_BITS, _BITS_LIMIT, FinitePoset, _bounding_member,
                    _closure_memo, _common, _cover_pairs, _indices,
                    _pair_tables, _union, classify, join_table)
from .selections import FilterSelection, WayAboveRelation, continuity_report


class MapError(ValueError):
    """A map violates monotonicity, maxitivity or an extension hypothesis."""


class NoSupremumError(MapError):
    """The values under a completion element have no supremum in the
    target, so the lower-star extension is undefined there."""


class InvariantError(RuntimeError):
    """A consequence of a proved result failed on inputs that meet its
    hypotheses: a defect in this library or a counterexample, never a
    hypothesis failure, so callers must not treat it as a MapError."""


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving map, stored as one target index per source element.

    Every value must be an int index of the target; a bool is not one.
    Order preservation is decided on the source's covering pairs, listed
    once per source: by transitivity it holds on them iff it holds on every
    pair.  Only when it fails does the scan of all pairs g <= h run, to name
    the first offending (g, h) in index order.  The enumerators
    `iter_monotone_values` and `iter_maxitive_values` yield plain value
    tuples; a map is built only where a check or a result needs one.
    """

    source: FinitePoset
    target: FinitePoset
    values: tuple

    def __post_init__(self):
        source, target, values = self.source, self.target, tuple(self.values)
        if len(values) != source.n:
            raise MapError(f"expected {source.n} values, got {len(values)}")
        n = target.n
        for t in values:
            # a plain int passes the class test; a bool is an int, not an index
            if (t.__class__ is not int
                    and (isinstance(t, bool) or not isinstance(t, int))
                    or not 0 <= t < n):
                raise MapError(f"value {t} out of range for the target poset")
        up = target._upm
        for g, h in _cover_pairs(source):
            if not up[values[g]] >> values[h] & 1:
                g, h = next((g, h) for g in range(source.n)
                            for h in source.up(g)
                            if not target.leq(values[g], values[h]))
                raise MapError(f"not order-preserving on ({g}, {h})")
        object.__setattr__(self, "values", values)

    def __call__(self, g):
        return self.values[g]


def iter_monotone_values(e, l):
    """All order-preserving value tuples E -> L, in lexicographic order.

    The values of element g range over the targets allowed by the earlier
    elements: above the value of each earlier h below g, below the value of
    each earlier h above g, in ascending order.  One loop walks a stack of
    candidate iterators, the top one for element len(stack) - 1; the last
    element's candidates complete one tuple each.
    """
    n = e.n
    if n == 0:
        yield ()
        return
    up, down, full = l._upm, l._downm, (1 << l.n) - 1
    earlier = [(_indices(e._downm[g] & ((1 << g) - 1)),
                _indices(e._upm[g] & ((1 << g) - 1))) for g in range(n)]
    values = [0] * n
    last = n - 1
    stack = [iter(range(l.n))]
    while stack:
        g = len(stack) - 1
        if g == last:
            for values[last] in stack.pop():
                yield tuple(values)
            continue
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            continue
        values[g] = t
        below, above = earlier[g + 1]
        allowed = full
        for h in below:
            allowed &= up[values[h]]
        for h in above:
            allowed &= down[values[h]]
        stack.append(iter(_BITS[allowed] if allowed < _BITS_LIMIT
                          else _indices(allowed)))


@lru_cache(maxsize=1024)
def _passed_positions(alpha):
    """For a permutation alpha of a source's indices, for each g the
    positions i, each as (alpha^-1(i), i), that the orderly scan of
    iter_orbit_values compares once element g is set: from the first i
    with alpha^-1(i) >= g up to, not including, the first with
    alpha^-1(i) > g; the first such i is n if there is none."""
    n = len(alpha)
    inverse = [0] * n
    for g, h in enumerate(alpha):
        inverse[h] = g
    passed, i = [], 0
    for g in range(n):
        start = i
        while i < n and inverse[i] <= g:
            i += 1
        passed.append(tuple((inverse[k], k) for k in range(start, i)))
    return tuple(passed)


@lru_cache(maxsize=256)
def _beta_tables(betas, m):
    """For permutations betas of a target of size m, the masks over their
    indices same[s][t] of the betas with beta(s) = t, and lower[s][t] of
    those with beta(s) < t."""
    same = [[0] * m for _ in range(m)]
    for k, beta in enumerate(betas):
        for s, t in enumerate(beta):
            same[s][t] |= 1 << k
    lower = []
    for row in same:
        below, acc = [], 0
        for mask in row:
            below.append(acc)
            acc |= mask
        lower.append(tuple(below))
    return tuple(map(tuple, same)), tuple(lower)


def iter_orbit_values(e, l):
    """One (values, weight) pair per orbit of the monotone value tuples
    E -> L under G = Aut(E) x Aut(L), in lexicographic order: values is
    the least tuple of its orbit and weight the orbit's size,
    |G| / |Stab(values)|.

    An element (alpha, beta) of G, an automorphism of E and one of L from
    each poset's `automorphisms`, sends v to beta . v . alpha^-1, whose
    value at alpha(g) is beta(v(g)); it sends monotone tuples to monotone
    tuples.  Where both groups are trivial, as for chains, every tuple of
    iter_monotone_values comes with weight 1.  A claim whose verdict and
    counters are the same on every map of an orbit sums its counters over
    the representatives, each counted weight times, and gets the sums of
    the full scan.

    This is orderly generation (Read 1978): the depth-first scan of
    iter_monotone_values, cut at a prefix as soon as some live group
    element maps it to a smaller one.  After the first k values, the image
    w of the tuple is known at position i iff alpha^-1(i) < k.  Compare w
    with the tuple at positions 0, 1, ... up to the first unknown one:
    - the first difference is at a known position with the image smaller:
      every tuple with this prefix has a smaller image, so none is least
      in its orbit, and the prefix is dropped;
    - it is larger: no tuple with this prefix has a smaller image under
      this element, which is dropped for the subtree;
    - otherwise the element stays live.
    At a full tuple every position is known: the tuple is yielded iff no
    element maps it lower, that is iff it is least in its orbit, and the
    elements still live are its stabilizer besides the identity.  Once no
    element is live, the subtree is the plain scan, each tuple with weight
    |G|.  Like iter_monotone_values, the scan does not assume that index
    order extends the order of E.

    The live elements are kept grouped by alpha, with their betas as a
    bitmask over Aut(L).  The live betas of one alpha agree with the tuple
    up to the same position, alpha's first unknown one, so a step that
    leaves it in place costs the group one test.  A step that passes position i, with s = v(alpha^-1(i)) and
    t = v(i), drops the prefix if a live beta has beta(s) < t, and keeps
    the betas with beta(s) = t: two table lookups and a mask AND per
    position, whatever the number of betas.  The positions each alpha
    passes, and the tables of Aut(L), are cached per permutation and per
    group.
    """
    n = e.n
    alphas, betas = e.automorphisms(), l.automorphisms()
    size = len(alphas) * len(betas)
    # every beta is live with every alpha, bar the identity pair, the first
    # alpha with the first beta, which fixes every tuple
    every = (1 << len(betas)) - 1
    moves = [(_passed_positions(alpha), every & ~1 if k == 0 else every)
             for k, alpha in enumerate(alphas) if k or len(betas) > 1]
    if n == 0:
        yield (), size // (1 + sum(mask.bit_count() for _, mask in moves))
        return
    if not moves:
        for values in iter_monotone_values(e, l):
            yield values, size
        return
    same, lower = _beta_tables(betas, l.n)
    up, down, full = l._upm, l._downm, (1 << l.n) - 1
    earlier = [(_indices(e._downm[g] & ((1 << g) - 1)),
                _indices(e._upm[g] & ((1 << g) - 1))) for g in range(n)]
    values = [0] * n
    last = n - 1
    # each entry: the candidates for position len(stack) - 1 and the
    # elements live before it is set
    stack = [(iter(range(l.n)), moves)]
    while stack:
        g = len(stack) - 1
        candidates, live = stack[-1]
        if not live and g == last:
            stack.pop()
            for values[last] in candidates:
                yield tuple(values), size
            continue
        t = next(candidates, None)
        if t is None:
            stack.pop()
            continue
        values[g] = t
        kept = []
        smaller = False
        for move in live:
            steps, mask = move
            if not steps[g]:
                kept.append(move)
                continue
            for h, i in steps[g]:
                s, y = values[h], values[i]
                if mask & lower[s][y]:
                    smaller = True
                    break
                mask &= same[s][y]
                if not mask:
                    break
            if smaller:
                break
            if mask:
                kept.append((steps, mask))
        if smaller:
            continue
        if g == last:
            yield tuple(values), size // (1 + sum(mask.bit_count()
                                                  for _, mask in kept))
            continue
        below, above = earlier[g + 1]
        allowed = full
        for h in below:
            allowed &= up[values[h]]
        for h in above:
            allowed &= down[values[h]]
        stack.append((iter(_BITS[allowed] if allowed < _BITS_LIMIT
                           else _indices(allowed)), kept))


def _sublevel_masks(l, values):
    """The masks of the sublevel sets D_t = {g : values[g] <= t} of a value
    tuple into l, t in index order: g joins D_t for each t above its value."""
    up = l._upm
    sublevels = [0] * l.n
    for g, t in enumerate(values):
        bit = 1 << g
        for s in _BITS[up[t]] if up[t] < _BITS_LIMIT else _indices(up[t]):
            sublevels[s] |= bit
    return sublevels


def _unclosed_sublevel(e, sublevels):
    """The mask of an offending family D_t meet down(x) of a monotone value
    tuple e -> l, given the masks of its sublevel sets from _sublevel_masks,
    or None if the tuple is maxitive.

    A monotone v is maxitive iff every sublevel set D_t = {g : v(g) <= t}
    is closed under existing sups: then v(s) lies below every upper bound
    t of the values of a family with sup s.  The lower set D_t fails to be
    closed iff some x outside it is the sup of D_t meet down(x), and that
    family then has values below t while v(x) is not.  The scan runs over t,
    then x, in index order; it costs O(|L| |E|) sups, not 2^|E| subsets.
    The test of each D_t is read from the source's closure memo, so each
    lower set of a source is tested once for all the maps out of it.
    """
    memo = _closure_memo(e)
    for sublevel in sublevels:
        family = memo[sublevel]
        if family is not None:
            return family
    return None


def maxitivity_witness(v: MonotoneMap):
    """An offending family D_t meet down(x), or None if v is maxitive: the
    scan of _unclosed_sublevel on v's values, its mask as a frozenset."""
    family = _unclosed_sublevel(v.source, _sublevel_masks(v.target, v.values))
    return None if family is None else frozenset(_indices(family))


def iter_maxitive_values(e, l):
    """All maxitive value tuples E -> L: the tuples of iter_monotone_values
    that pass the scan of _unclosed_sublevel, in the same order."""
    for values in iter_monotone_values(e, l):
        if _unclosed_sublevel(e, _sublevel_masks(l, values)) is None:
            yield values


def is_pairwise_maxitive(v: MonotoneMap) -> bool:
    """The pairwise law: v(g or g') is the join of v(g), v(g') when it exists."""
    e, l = v.source, v.target
    for g in range(e.n):
        for h in range(g, e.n):
            sup = e.sup_of((g, h))
            if sup is None:
                continue
            if l.sup_of((v.values[g], v.values[h])) != v.values[sup]:
                return False
    return True


class IdealFamily:
    """A nondecreasing family of ideals of a source poset, indexed by a target.

    The data are the members' bitmasks, `_masks`, one per target element;
    the constructor takes them and range-checks each, and `ideal_family_of`
    is the usual way to make one.
    A member is an ideal iff it is a lower set that no existing sup escapes,
    read from the source's closure memo, the test of maxitivity_witness;
    the memo holds lower sets only, so a member found in it is one.  By
    transitivity the family is nondecreasing iff it is so on the target's
    covering pairs; only when it is not are all pairs s <= t scanned, to
    name the first that decreases.
    """

    __slots__ = ("source", "target", "_masks")

    def __init__(self, source: FinitePoset, target: FinitePoset, masks):
        masks = tuple(masks)
        if len(masks) != target.n:
            raise MapError("the family must index every target element")
        n, down, memo = source.n, source._downm, _closure_memo(source)
        for t, mask in enumerate(masks):
            if mask >> n:
                raise MapError(f"member at {t} has a bit outside the {n} "
                               "source elements")
            # one lookup: 0 is no entry, as an unclosed family is nonempty;
            # a set that is not lower keeps the 0 and is refused
            family = memo.get(mask, 0)
            if family == 0 and _union(down, mask) == mask:
                family = memo[mask]
            if family is not None:
                raise MapError(f"member at {t} is not an ideal of the source")
        for s, t in _cover_pairs(target):
            if masks[s] & ~masks[t]:
                s, t = next((s, t) for s in range(target.n)
                            for t in target.up(s) if masks[s] & ~masks[t])
                raise MapError(f"family decreases from {s} to {t}")
        self.source = source
        self.target = target
        self._masks = masks

    def is_right_continuous(self, rel: WayAboveRelation) -> bool:
        """True iff each member is the intersection of the members way-above
        it under rel, a way-above relation on the target."""
        if rel.poset is not self.target and rel.poset != self.target:
            raise MapError("way-above relation was built on a different target")
        masks, full = self._masks, (1 << self.source.n) - 1
        for col, mask in zip(rel._cols, masks):
            common = full
            for t in _BITS[col] if col < _BITS_LIMIT else _indices(col):
                common &= masks[t]
            if common != mask:
                return False
        return True


def _ideal_family_values(fam: IdealFamily, sel_l: FilterSelection) -> tuple:
    """The value tuple of from_ideal_family(fam, sel_l), with its checks
    and errors, not built into a map."""
    l = fam.target
    if sel_l.poset is not l and sel_l.poset != l:
        raise MapError("selection was built on a different target poset")
    members = [0] * fam.source.n
    bit = 1
    for mask in fam._masks:
        for g in _BITS[mask] if mask < _BITS_LIMIT else _indices(mask):
            members[g] |= bit
        bit <<= 1
    infima = sel_l._infimum_table()
    values = []
    for g, ts in enumerate(members):
        # -1 marks a set the selection lacks, None a missing infimum
        m = infima.get(ts, -1)
        if m is None:
            raise MapError(f"membership set of {g} has no infimum")
        if m < 0:
            raise MapError(f"membership set of {g} is not a selected set")
        values.append(m)
    return tuple(values)


def from_ideal_family(fam: IdealFamily, sel_l: FilterSelection) -> MonotoneMap:
    """The map sending g to the infimum of the indices whose ideal contains g.

    Each membership set must be a selected set of the target with an
    infimum, read from the selection's table of infima; when the family is
    right-continuous under sel_l's way-above, the result is maxitive.  An
    empty membership set has the top as its infimum.
    """
    return MonotoneMap(fam.source, fam.target, _ideal_family_values(fam, sel_l))


def ideal_family_of(v: MonotoneMap) -> IdealFamily:
    """The canonical family of sublevel ideals of a maxitive map.

    A sublevel set D_t fails IdealFamily's ideal check exactly when the
    scan of _unclosed_sublevel finds it unclosed, so a map that is not
    maxitive is refused up front, with the family that maxitivity_witness
    names.
    """
    sublevels = _sublevel_masks(v.target, v.values)
    family = _unclosed_sublevel(v.source, sublevels)
    if family is not None:
        raise MapError("map is not maxitive; offending family "
                       f"{_indices(family)}")
    return IdealFamily(v.source, v.target, sublevels)


# -- the rational cone ----------------------------------------------------


@dataclass(frozen=True)
class RationalConeMap:
    """A monotone map from a join-semilattice into the nonnegative rationals.

    Values are exact (ints or Fractions; a bool is refused); no floating
    point enters the sign tests of the alternating property.  Those tests,
    and the order and maxitivity checks, run on the values times the lcm of
    their denominators: exact ints with the same signs and order, scaled
    once; int values are their own scaling.  Joins come from the source's
    `join_table`, and the join-semilattice test from its `classify`
    profile, each computed once for all its cones.  Order preservation is
    decided on the covering pairs, as in MonotoneMap, and the scan of all
    pairs runs only to name the first offending (g, h).
    """

    source: FinitePoset
    values: tuple

    def __post_init__(self):
        source, raw = self.source, tuple(self.values)
        ints = True
        for x in raw:
            if x.__class__ is not int:
                if isinstance(x, bool):
                    raise MapError(f"value {x} is not a rational number")
                ints = False
        values = tuple(map(Fraction, raw))
        object.__setattr__(self, "values", values)
        if len(values) != source.n:
            raise MapError(f"expected {source.n} values, got {len(values)}")
        if ints:
            scaled = raw
        else:
            scale = math.lcm(*[x.denominator for x in values])
            scaled = tuple([x.numerator * (scale // x.denominator)
                            for x in values])
        object.__setattr__(self, "_scaled", scaled)
        for x in scaled:
            if x < 0:
                raise MapError("cone values must be nonnegative")
        if not classify(source).is_join_semilattice:
            raise MapError("the source must be a join-semilattice")
        object.__setattr__(self, "_joins", join_table(source))
        for g, h in _cover_pairs(source):
            if scaled[g] > scaled[h]:
                g, h = next((g, h) for g in range(source.n)
                            for h in source.up(g) if scaled[g] > scaled[h])
                raise MapError(f"not order-preserving on ({g}, {h})")

    def is_maxitive(self) -> bool:
        """The pairwise law through the source's join table; on a
        join-semilattice every nonempty finite sup is an iterated join, so
        this is full maxitivity.

        Each pair g < h is checked once, and the scan stops at the first
        that fails.  The join table is symmetric, as the join is, so the
        pair (h, g) asks what (g, h) asks; and the diagonal always holds,
        as g join g = g and max(x, x) = x."""
        values = self._scaled
        for g, row in enumerate(self._joins):
            x = values[g]
            for h in range(g + 1, len(row)):
                y = values[h]
                if values[row[h]] != (x if x > y else y):
                    return False
        return True


def _sparse(packed, width, n):
    """The (index, coefficient) pairs of a packed functional, nonzero only:
    coefficient i sits in the width bits at width * i, balanced, so that
    it lies in [-2^(width-1), 2^(width-1))."""
    terms = []
    field, half = (1 << width) - 1, 1 << (width - 1)
    for i in range(n):
        c = packed & field
        if c >= half:
            c -= 1 << width
        if c:
            terms.append((i, c))
        packed = (packed - c) >> width
    return tuple(terms)


@lru_cache(maxsize=256)
def _alternating_plan(p, depth):
    """The signed differences of alternating_witness on the join-semilattice
    p up to depth, as the distinct nonzero functionals of the values in
    scan order, each with the first (g, gs) at which it occurs.

    Level k holds s(g, gs) = (-1)^(k+1) d(g, gs) for |gs| = k.  The
    recurrence of d and the alternating sign give
    s(g, gs) = s(g, gs[1:]) - s(g join gs[0], gs[1:]), from s = -v at
    level 0.  A difference at length k has coefficients of absolute sum at
    most 2^k, so each lies in [-2^depth, 2^depth], and with
    width = depth + 2 bits per coefficient a functional packs into one int,
    the sum of c_i * 2^(width * i).  The packing is linear and one-to-one,
    so the recurrence runs on the packed ints, one subtraction per
    difference, as the scan would on values, and two functionals are equal
    iff their packed ints are.  The plan stores each functional sparse, as
    (index, coefficient) pairs.
    """
    n, joins = p.n, join_table(p)
    width = depth + 2
    level = {(): [-(1 << width * g) for g in range(n)]}
    seen, plan = {0}, []
    for length in range(1, depth + 1):
        shorter, level = level, {}
        for gs in combinations_with_replacement(range(n), length):
            rest, joined = shorter[gs[1:]], joins[gs[0]]
            signed = level[gs] = [rest[g] - rest[joined[g]] for g in range(n)]
            if seen.issuperset(signed):
                continue
            for g, f in enumerate(signed):
                if f not in seen:
                    seen.add(f)
                    plan.append((_sparse(f, width, n), (g, gs)))
    return tuple(plan)


def alternating_witness(v: RationalConeMap, depth=4):
    """First (g, gs) violating the alternating sign condition, else None.

    The iterated differences commute in the perturbing elements, so tuples
    are scanned as nondecreasing multisets, by length, then gs, then g;
    verdicts are depth-bounded.  Each difference
    d(g, gs) = d(g join gs[0], gs[1:]) - d(g, gs[1:]) is linear in the
    values, with coefficients fixed by the source's joins, and the sign
    condition asks that sign * d(g, gs) >= 0, sign = (-1)^(|gs| + 1).  So
    the scan is a sequence of signed functionals f_p, and the witness is the
    first position p with f_p(v) < 0.  The plan of the source, built once
    per (source, depth), lists each distinct nonzero f once, at its first
    position.  Its first functional negative on v is that witness: f_p is
    nonzero and listed at a position q <= p, where it is negative on v too,
    so q = p by the minimality of p; and any functional listed before it
    would be negative at a position before p.  The functionals run on the
    cone's scaled ints, which have the same signs as the values.
    """
    if depth < 1:
        raise MapError("depth must be at least 1")
    values = v._scaled
    for terms, found in _alternating_plan(v.source, depth):
        if sum(c * values[i] for i, c in terms) < 0:
            return found
    return None


# -- extensions -----------------------------------------------------------


def e_star(ext, sel_e: FilterSelection) -> frozenset:
    """Completion elements whose upper trace on the base is a nonempty
    selected set; always contains the image of the base."""
    if sel_e.poset != ext.base:
        raise MapError("selection was built on a different base poset")
    star = frozenset(a for a, trace in enumerate(ext._up_traces)
                     if trace and trace in sel_e._selected)
    if not ext.image() <= star:
        raise InvariantError("the star region misses part of the base image")
    return star


@lru_cache(maxsize=64)
def _region(ext, region):
    """A sorted region of the completion, a tuple, with its induced poset
    and the position of each base element's image in it, None where the
    image lies outside; built once per extension and region, so a star
    and a lower-star region that coincide share one poset."""
    index = {a: k for k, a in enumerate(region)}
    return (region, ext.complete.restrict(region),
            tuple(index.get(a) for a in ext.embed))


def _star_region(ext, sel_e):
    """The _region of e_star(ext, sel_e), computed once per extension and
    selection: it depends on nothing else, and every map on the
    extension is extended to it."""
    return _star_region_of(ext, sel_e.poset, sel_e.kind, sel_e._masks)


@lru_cache(maxsize=64)
def _star_region_of(ext, poset, kind, masks):
    """_star_region's cache, keyed by the data of the selection, which
    compares by identity: the selections that later runs build on the same
    poset hit it."""
    sel_e = FilterSelection(poset, kind, masks)
    return _region(ext, tuple(sorted(e_star(ext, sel_e))))


@lru_cache(maxsize=256)
def _is_domain(l, sel_l):
    """Whether l is a domain under sel_l, one continuity report per target
    poset and selection for all the maps into it."""
    return continuity_report(l, sel_l).is_domain


def extend_star(v: MonotoneMap, ext, sel_e: FilterSelection,
                sel_l: FilterSelection) -> MonotoneMap:
    """Maximal maxitive extension of v to the star region of the completion.

    The result lives on the induced subposet of the completion, indexed in
    sorted order of the star elements; composing with the embedding gives
    back v.  The value at a is the infimum of the upper closure of the
    values on a's up-trace, read from the selection's table of infima as in
    from_ideal_family; the infimum of the empty set is the top.
    """
    if v.source != ext.base:
        raise MapError("map and extension have different base posets")
    if v.target != sel_l.poset:
        raise MapError("target selection was built on a different poset")
    if not classify(v.source).is_join_semilattice:
        raise MapError("the base must be a join-semilattice")
    if not _is_domain(v.target, sel_l):
        raise MapError("the target must be a domain under the given selection")
    witness = maxitivity_witness(v)
    if witness is not None:
        raise MapError(f"map is not maxitive; offending family {sorted(witness)}")
    star, region, positions = _star_region(ext, sel_e)
    l = v.target
    infima = sel_l._infimum_table()
    # at_least[g]: the mask of up(v(g)) in the target
    at_least = [l._upm[t] for t in v.values]
    traces = ext._up_traces
    values = []
    for a in star:
        # -1 marks a set the selection lacks, None a missing infimum
        m = infima.get(_union(at_least, traces[a]), -1)
        if m is None:
            raise MapError(f"value trace of {a} has no infimum")
        if m < 0:
            raise MapError(f"value trace of {a} escapes the target selection")
        values.append(m)
    result = MonotoneMap(region, l, tuple(values))
    _check_restriction(result.values, v.values, positions, "star")
    return result


def _check_restriction(extended, values, positions, side):
    """Raise InvariantError at the first base element whose image lies in
    the region and whose extended value is not its value."""
    for g, k in enumerate(positions):
        if k is not None and extended[k] != values[g]:
            raise InvariantError(
                f"{side} extension does not restrict to v at {g}")


def e_lower_star(ext) -> frozenset:
    """Completion elements whose meet with every base element stays in the
    base; the meets and joins are read from the completion's pair tables."""
    big = ext.complete
    joins, meets = _pair_tables(big)
    image = ext.image()
    members = frozenset(
        a for a in range(big.n)
        if all(meets[x][a] in image for x in ext.embed))
    base_profile = classify(ext.base)
    if base_profile.is_meet_semilattice and not image <= members:
        raise InvariantError("the lower-star region misses part of the base image")
    if (base_profile.is_join_semilattice and classify(big).is_distributive
            and not all(joins[a][b] in members
                        for a in members for b in members)):
        raise InvariantError("the lower-star region is not closed under joins")
    return members


@lru_cache(maxsize=64)
def _lower_star_region(ext):
    """The _region of e_lower_star(ext), built once per extension."""
    return _region(ext, tuple(sorted(e_lower_star(ext))))


def extend_lower_star(v: MonotoneMap, ext) -> MonotoneMap:
    """Minimal maxitive extension of v to the lower-star region.

    Requires a distributive completion; raises NoSupremumError when some
    needed supremum of values is missing in the target, which can happen
    for targets that are not complete.  The value at a is the supremum of
    the values on a's down-trace: the least member of the meet of the
    masks up(v(g)) over that trace.
    """
    if v.source != ext.base:
        raise MapError("map and extension have different base posets")
    if not classify(ext.complete).is_distributive:
        raise MapError("the completion must be distributive")
    witness = maxitivity_witness(v)
    if witness is not None:
        raise MapError(f"map is not maxitive; offending family {sorted(witness)}")
    members, region, positions = _lower_star_region(ext)
    l = v.target
    up = l._upm
    at_least = [up[t] for t in v.values]
    traces = ext._down_traces
    values = []
    for a in members:
        trace = traces[a]
        if not trace:
            raise MapError(f"lower trace of {a} is empty")
        s = _bounding_member(up, _common(at_least, trace, l.n))
        if s is None:
            raise NoSupremumError(
                f"values under {a} have no supremum in the target")
        values.append(s)
    result = MonotoneMap(region, l, tuple(values))
    _check_restriction(result.values, v.values, positions, "lower-star")
    return result
