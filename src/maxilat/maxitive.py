"""Maxitive maps between finite posets, their ideal-family representations,
the alternating property over the rational cone, and the two canonical
extensions to an order completion.

A map v: E -> L is maxitive when it turns every existing finite supremum of
a nonempty family in E into the supremum of the values in L.  On a join
semilattice this reduces to the pairwise law, but not in general.
"""

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .poset import (_BITS, _BITS_LIMIT, FinitePoset, _bits, _closure_memo,
                    _common, _cover_pairs, _indices, _pair_tables,
                    _union, classify, join_table)
from .selections import FilterSelection, WayAboveRelation, continuity_report


class MapError(ValueError):
    """A map violates monotonicity, maxitivity or an extension hypothesis."""


class InvariantError(RuntimeError):
    """A consequence of a proved result failed on inputs that meet its
    hypotheses: a defect in this library or a counterexample, never a
    hypothesis failure, so callers must not treat it as a MapError."""


class MonotoneMap:
    """An order-preserving map, stored as one target index per source element.

    Every value must be an int index of the target; a bool is not one.
    Order preservation is decided on the source's covering pairs, listed
    once per source: by transitivity it holds on them iff it holds on every
    pair.  Only when it fails does the scan of all pairs g <= h run, to name
    the first offending (g, h) in index order.  A map is immutable and
    compares, hashes and prints by its three fields, like a frozen
    dataclass; assignment raises `dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("source", "target", "values")

    def __init__(self, source: FinitePoset, target: FinitePoset, values):
        values = tuple(values)
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
        _set_source(self, source)
        _set_target(self, target)
        _set_values(self, values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.source, self.target, self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.values)
                == (other.source, other.target, other.values))

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(source={self.source!r}, "
                f"target={self.target!r}, values={self.values!r})")

    def __call__(self, g):
        return self.values[g]


# the slot setters, which bypass the refusing __setattr__
_set_source, _set_target, _set_values = (
    MonotoneMap.__dict__[name].__set__ for name in MonotoneMap.__slots__)


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


def _sublevel_masks(v: MonotoneMap):
    """The masks of the sublevel sets D_t = {g : v(g) <= t}, t in index
    order: g joins D_t for each t above v(g)."""
    up = v.target._upm
    sublevels = [0] * v.target.n
    for g, t in enumerate(v.values):
        bit = 1 << g
        for s in _BITS[up[t]] if up[t] < _BITS_LIMIT else _indices(up[t]):
            sublevels[s] |= bit
    return sublevels


def maxitivity_witness(v: MonotoneMap):
    """An offending family D_t meet down(x), or None if v is maxitive.

    A monotone v is maxitive iff every sublevel set D_t = {g : v(g) <= t}
    is closed under existing sups: then v(s) lies below every upper bound
    t of the values of a family with sup s.  The lower set D_t fails to be
    closed iff some x outside it is the sup of D_t meet down(x), and that
    family then has values below t while v(x) is not.  The scan runs over t,
    then x, in index order; it costs O(|L| |E|) sups, not 2^|E| subsets.
    The test of each D_t is read from the source's closure memo, so each
    lower set of a source is tested once for all the maps out of it.
    """
    memo = _closure_memo(v.source)
    for sublevel in _sublevel_masks(v):
        family = memo[sublevel]
        if family is not None:
            return frozenset(_indices(family))
    return None


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
            if ((mask not in memo and _union(down, mask) != mask)
                    or memo[mask] is not None):
                raise MapError(f"member at {t} is not an ideal of the source")
        for s, t in _cover_pairs(target):
            if masks[s] & ~masks[t]:
                s, t = next((s, t) for s in range(target.n)
                            for t in target.up(s) if masks[s] & ~masks[t])
                raise MapError(f"family decreases from {s} to {t}")
        self.source = source
        self.target = target
        self._masks = masks

    def __eq__(self, other):
        if not isinstance(other, IdealFamily):
            return NotImplemented
        return ((self.source, self.target, self._masks)
                == (other.source, other.target, other._masks))

    def __hash__(self):
        return hash((self.source, self.target, self._masks))

    def is_right_continuous(self, rel: WayAboveRelation) -> bool:
        """True iff each member is the intersection of the members way-above
        it under rel, a way-above relation on the target."""
        if rel.poset is not self.target and rel.poset != self.target:
            raise MapError("way-above relation was built on a different target")
        masks, n = self._masks, self.source.n
        for col, mask in zip(rel._cols, masks):
            if _common(masks, col, n) != mask:
                return False
        return True


def from_ideal_family(fam: IdealFamily, sel_l: FilterSelection) -> MonotoneMap:
    """The map sending g to the infimum of the indices whose ideal contains g.

    Each membership set must be a selected set of the target with an
    infimum, read from the selection's table of infima; when the family is
    right-continuous under sel_l's way-above, the result is maxitive.  An
    empty membership set has the top as its infimum.
    """
    l = fam.target
    if sel_l.poset is not l and sel_l.poset != l:
        raise MapError("selection was built on a different target poset")
    members = [0] * fam.source.n
    for t, mask in enumerate(fam._masks):
        bit = 1 << t
        for g in _BITS[mask] if mask < _BITS_LIMIT else _indices(mask):
            members[g] |= bit
    infima = sel_l._infimum_table()
    values = []
    for g, ts in enumerate(members):
        if ts not in infima:
            raise MapError(f"membership set of {g} is not a selected set")
        m = infima[ts]
        if m is None:
            raise MapError(f"membership set of {g} has no infimum")
        values.append(m)
    return MonotoneMap(fam.source, l, tuple(values))


def ideal_family_of(v: MonotoneMap) -> IdealFamily:
    """The canonical family of sublevel ideals of a maxitive map.

    A sublevel set D_t fails IdealFamily's ideal check exactly when its
    closure-memo entry is not None, the test of maxitivity_witness; the
    first such t names the offending family, as maxitivity_witness does.
    """
    masks = _sublevel_masks(v)
    memo = _closure_memo(v.source)
    for mask in masks:
        family = memo[mask]
        if family is not None:
            raise MapError("map is not maxitive; offending family "
                           f"{_indices(family)}")
    return IdealFamily(v.source, v.target, masks)


# -- the rational cone ----------------------------------------------------


@dataclass(frozen=True)
class RationalConeMap:
    """A monotone map from a join-semilattice into the nonnegative rationals.

    Values are exact (ints or Fractions; a bool is refused); no floating
    point enters the sign tests of the alternating property.  Those tests,
    and the order and maxitivity checks, run on the values times the lcm of
    their denominators: exact ints with the same signs and order, scaled
    once; int values are their own scaling.  Joins come from the source's
    `join_table`, built once for all its cones.  Order preservation is
    decided on the covering pairs, as in MonotoneMap, and the scan of all
    pairs runs only to name the first offending (g, h).
    """

    source: FinitePoset
    values: tuple

    def __post_init__(self):
        raw = tuple(self.values)
        for x in raw:
            if isinstance(x, bool):
                raise MapError(f"value {x} is not a rational number")
        values = tuple(map(Fraction, raw))
        object.__setattr__(self, "values", values)
        if len(values) != self.source.n:
            raise MapError(f"expected {self.source.n} values, got {len(values)}")
        if all(type(x) is int for x in raw):
            scaled = raw
        else:
            scale = math.lcm(*(x.denominator for x in values))
            scaled = tuple(x.numerator * (scale // x.denominator)
                           for x in values)
        object.__setattr__(self, "_scaled", scaled)
        if any(x < 0 for x in scaled):
            raise MapError("cone values must be nonnegative")
        source = self.source
        joins = join_table(source)
        if any(None in row for row in joins):
            raise MapError("the source must be a join-semilattice")
        object.__setattr__(self, "_joins", joins)
        for g, h in _cover_pairs(source):
            if scaled[g] > scaled[h]:
                g, h = next((g, h) for g in range(source.n)
                            for h in source.up(g) if scaled[g] > scaled[h])
                raise MapError(f"not order-preserving on ({g}, {h})")

    def __call__(self, g):
        return self.values[g]

    def is_maxitive(self) -> bool:
        """The pairwise law through the source's join table; on a
        join-semilattice every nonempty finite sup is an iterated join, so
        this is full maxitivity.

        Each pair g < h is checked once.  The join table is symmetric, as
        the join is, so the pair (h, g) asks what (g, h) asks; and the
        diagonal always holds, as g join g = g and max(x, x) = x."""
        values = self._scaled
        return all(values[row[h]] == max(values[g], values[h])
                   for g, row in enumerate(self._joins)
                   for h in range(g + 1, len(row)))


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
    star = frozenset(a for a in range(ext.complete.n)
                     if (trace := ext.up_in_base(a)) and trace in sel_e.fsets)
    if not ext.image() <= star:
        raise InvariantError("the star region misses part of the base image")
    return star


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
    if not continuity_report(v.target, sel_l).is_domain:
        raise MapError("the target must be a domain under the given selection")
    witness = maxitivity_witness(v)
    if witness is not None:
        raise MapError(f"map is not maxitive; offending family {sorted(witness)}")
    star = sorted(e_star(ext, sel_e))
    l = v.target
    up, infima = l._upm, sel_l._infimum_table()
    values = []
    for a in star:
        image = _union(up, _bits(v.values[g] for g in ext.up_in_base(a)))
        if image not in infima:
            raise MapError(f"value trace of {a} escapes the target selection")
        m = infima[image]
        if m is None:
            raise MapError(f"value trace of {a} has no infimum")
        values.append(m)
    result = MonotoneMap(ext.complete.restrict(star), l, tuple(values))
    index = {a: k for k, a in enumerate(star)}
    for g in range(v.source.n):
        if result.values[index[ext.embed[g]]] != v.values[g]:
            raise InvariantError(f"star extension does not restrict to v at {g}")
    return result


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


def extend_lower_star(v: MonotoneMap, ext) -> MonotoneMap:
    """Minimal maxitive extension of v to the lower-star region.

    Requires a distributive completion; raises when some needed supremum of
    values is missing in the target, which can happen for targets that are
    not complete.
    """
    if v.source != ext.base:
        raise MapError("map and extension have different base posets")
    if not classify(ext.complete).is_distributive:
        raise MapError("the completion must be distributive")
    witness = maxitivity_witness(v)
    if witness is not None:
        raise MapError(f"map is not maxitive; offending family {sorted(witness)}")
    members = sorted(e_lower_star(ext))
    l = v.target
    values = []
    for a in members:
        trace = ext.down_in_base(a)
        if not trace:
            raise MapError(f"lower trace of {a} is empty")
        s = l.sup_of(frozenset(v.values[g] for g in trace))
        if s is None:
            raise MapError(f"values under {a} have no supremum in the target")
        values.append(s)
    result = MonotoneMap(ext.complete.restrict(members), l, tuple(values))
    index = {a: k for k, a in enumerate(members)}
    for g in range(v.source.n):
        a = ext.embed[g]
        if a in index and result.values[index[a]] != v.values[g]:
            raise InvariantError(f"lower-star extension does not restrict to v at {g}")
    return result
