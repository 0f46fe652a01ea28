"""The space of all maxitive maps from a poset into a complete lattice.

The space is materialized exhaustively and ordered pointwise, through int
bitmasks over the map indices rather than a poset of maps.  Pointwise
infima of selected families stay inside the space, and so do pointwise
joins, because sups commute with sups.  Way-above in the space, and by
default in the target, uses the filtered selection.  A finite codirected
upper set has a least element, so that selection is the principal filters
and way-above in the space is its pointwise order.
"""

from functools import cached_property, lru_cache
from operator import getitem

from .poset import (FinitePoset, PosetError, _cover_pairs, _indices,
                    _pair_tables, _union, classify, join_table)
from .selections import SelectionError, SelectionKind, build_selection, way_above
from .maxitive import MapError, MonotoneMap, iter_maxitive_values
from .residuation import heyting_arrow

DEFAULT_SPACE_CAP = 10 ** 6


class MaxMapSpace:
    """All maxitive maps source -> target, ordered pointwise.

    Maps are value tuples sorted lexicographically; a set of maps is an int
    bitmask over their indices; a generator is a plain pair (h, s), whose
    map is generator_maps[h][s].
    """

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = tuple(tuple(m) for m in maps)
        self.index = {m: k for k, m in enumerate(self.maps)}

    @cached_property
    def _exact(self):
        """_exact[g][t]: the mask of the maps whose value at g is t."""
        exact = [[0] * self.target.n for _ in range(self.source.n)]
        for k, values in enumerate(self.maps):
            for g, t in enumerate(values):
                exact[g][t] |= 1 << k
        return exact

    @cached_property
    def at_least(self):
        """at_least[g][t]: the mask of the maps whose value at g is >= t."""
        return tuple(tuple(_union(row, up) for up in self.target._upm)
                     for row in self._exact)

    @cached_property
    def at_most(self):
        """at_most[g][t]: the mask of the maps whose value at g is <= t."""
        return tuple(tuple(_union(row, down) for down in self.target._downm)
                     for row in self._exact)

    @cached_property
    def ups(self):
        """ups[k]: the mask of the maps above map k, its principal filter."""
        return tuple(map(self.above, self.maps))

    @cached_property
    def generator_maps(self):
        """generator_maps[h][s]: the values of the map of the pair (h, s),
        s below h and top elsewhere."""
        top = self.target.top()
        if top is None:
            raise MapError("the target needs a top for generator maps")
        points = range(self.source.n)
        return tuple(tuple(tuple(s if below >> g & 1 else top for g in points)
                           for s in range(self.target.n))
                     for below in self.source._downm)

    @cached_property
    def representations(self):
        """representations[k]: the representation of map k under the
        filtered selection of the target."""
        return tuple(representation(self, values) for values in self.maps)

    @cached_property
    def reconstructions(self):
        """reconstructions[k]: the reconstruction of map k from its
        representation."""
        return tuple(reconstruction(self, gens)
                     for gens in self.representations)

    def above(self, values):
        """The mask of the maps that lie pointwise above a value tuple."""
        return self._meet(self.at_least, values)

    def below(self, values):
        """The mask of the maps that lie pointwise below a value tuple."""
        return self._meet(self.at_most, values)

    def _meet(self, table, values):
        mask = (1 << len(self.maps)) - 1
        for column, t in zip(table, values):
            mask &= column[t]
        return mask

    def __len__(self):
        return len(self.maps)

    def index_of(self, values):
        values = tuple(values)
        try:
            return self.index[values]
        except KeyError:
            raise MapError(f"{values} is not a maxitive map of this space") from None

    def join(self, i, j):
        """Join inside the space: the pointwise join, which is maxitive."""
        joins = join_table(self.target)
        found = self.index.get(tuple(
            joins[a][b] for a, b in zip(self.maps[i], self.maps[j])))
        if found is None:
            raise MapError("the space is missing a join; target not complete?")
        return found


def build_space(e, l, cap=DEFAULT_SPACE_CAP) -> MaxMapSpace:
    """Materialize every maxitive map e -> l, as the value tuples of
    iter_maxitive_values; the cap bounds the candidate pool |L|^|E|."""
    if l.n ** e.n > cap:
        raise MapError(f"candidate pool {l.n}^{e.n} exceeds the cap {cap}")
    if not classify(l).is_complete_lattice:
        raise MapError("the target must be a complete lattice")
    return MaxMapSpace(e, l, iter_maxitive_values(e, l))


def pointwise_inf(space, family) -> MonotoneMap:
    """Pointwise infimum of a nonempty family of map indices.

    For a filtered family, a principal filter of the space, it is maxitive
    and is the family's infimum in the space; other families can leave the
    space (see the upper-set counterexample in the tests).
    """
    family = frozenset(family)
    if not family:
        raise SelectionError("the empty family has no pointwise infimum here")
    values = []
    for g in range(space.source.n):
        m = space.target.inf_of(frozenset(space.maps[k][g] for k in family))
        if m is None:
            raise MapError(f"pointwise infimum missing at {g}")
        values.append(m)
    return MonotoneMap(space.source, space.target, tuple(values))


@lru_cache(maxsize=64)
def _filtered_columns(l):
    """The way-above columns of l under the filtered selection, built once
    per target: entry t lists the s way-above t, ascending."""
    cols = way_above(l, build_selection(l, SelectionKind.FILTERED))._cols
    return tuple(tuple(_indices(col)) for col in cols)


def representation(space, values):
    """The generator pairs (h, s) of a value tuple: every s way-above its
    value at h.

    Way-above in the target is that of the filtered selection; the
    pointwise infimum of the generators' maps reconstructs the map exactly
    when the target is continuous under it.
    """
    above = _filtered_columns(space.target)
    return tuple((h, s) for h, t in enumerate(values) for s in above[t])


def reconstruction(space, gens):
    """Pointwise infimum of the maps of the given (h, s) pairs, read from
    space.generator_maps and folded through the target's meet table from
    the top."""
    l = space.target
    meets = _pair_tables(l)[1]
    values = [l.top()] * space.source.n
    for h, s in gens:
        for g, t in enumerate(space.generator_maps[h][s]):
            values[g] = meets[values[g]][t]
    if None in values:
        raise MapError(f"generator infimum missing at {values.index(None)}")
    return tuple(values)


def way_above_in_space(space):
    """Way-above in the space under the filtered selection: entry v is the
    mask of the maps way-above v, which is the principal filter of v."""
    return space.ups


@lru_cache(maxsize=64)
def _heyting_table(l):
    """table[r][s] = heyting_arrow(l, r, s), built once per target, which
    must be distributive."""
    if not classify(l).is_distributive:
        raise PosetError("the target must be distributive")
    return tuple(tuple(heyting_arrow(l, r, s) for s in range(l.n))
                 for r in range(l.n))


@lru_cache(maxsize=64)
def _heyting_join_failure(l):
    """The first (r, s, t), in index order, at which the Heyting table of l
    fails heyting_arrow(r, s join t) = heyting_arrow(r, s) join
    heyting_arrow(r, t); None when every heyting_arrow(r, -) preserves
    binary joins, as it does on a distributive lattice.  One |L|^3 pass per
    target."""
    arrows, joins = _heyting_table(l), join_table(l)
    for r, row in enumerate(arrows):
        for s in range(l.n):
            for t in range(l.n):
                if row[joins[s][t]] != joins[row[s]][row[t]]:
                    return r, s, t
    return None


@lru_cache(maxsize=64)
def _lower_covers(p):
    """(g, the lower covers of g) for every g of p, each g after the
    elements below it: by the size of its down-set, then by index."""
    below = [[] for _ in range(p.n)]
    for a, b in _cover_pairs(p):
        below[b].append(a)
    order = sorted(range(p.n), key=lambda g: (bin(p._downm[g]).count("1"), g))
    return tuple((g, tuple(below[g])) for g in order)


def _arrow_values(space):
    """The function (u, v) -> the value tuple of u <- v by the formula of
    m_arrow, unchecked: it may lie outside the space.  The sup over h <= g
    is taken as the value at g joined with the finished sups at the lower
    covers of g.  The tables are looked up once, for all the pairs, and the
    Heyting rows at the values of u once for each run of calls with one u."""
    arrows, joins = _heyting_table(space.target), join_table(space.target)
    maps = space.maps
    order = [(g, covers) for g, covers in _lower_covers(space.source)
             if covers]

    @lru_cache(maxsize=1)
    def rows(u):
        return [arrows[a] for a in maps[u]]

    def values_of(u, v):
        values = list(map(getitem, rows(u), maps[v]))
        for g, covers in order:
            t = values[g]
            for c in covers:
                t = joins[t][values[c]]
            values[g] = t
        return tuple(values)
    return values_of


def join_irreducibles(space):
    """The join-irreducible maps of the space, ascending: the v whose strict
    down-set is nonempty and has a greatest element.

    Joins in the space are pointwise, so the strict down-set S of v has a
    greatest element iff its pointwise join lies strictly below v, that is
    iff at some g every map of S takes a value at or below a lower cover of
    v(g) in the target.
    """
    lower = dict(_lower_covers(space.target))
    at_most = space.at_most
    out = []
    for k, values in enumerate(space.maps):
        strict = space.below(values) & ~(1 << k)
        if strict and any(not strict & ~at_most[g][c]
                          for g, t in enumerate(values) for c in lower[t]):
            out.append(k)
    return tuple(out)


def m_arrow(space, u, v) -> MonotoneMap:
    """Residuation u <- v inside the space: the least w with v <= u join w.

    The formula g -> sup of heyting_arrow(u(h), v(h)) over h <= g, for a
    distributive target.  Joins are pointwise, so an admissible monotone w
    has w(h) >= u(h) <- v(h) everywhere and lies above that map, the arrow
    when it is maxitive; otherwise MapError names its values.
    """
    values = _arrow_values(space)(u, v)
    space.index_of(values)
    return MonotoneMap(space.source, space.target, values)


@lru_cache(maxsize=64)
def ideal_lattice(e) -> FinitePoset:
    """I(E): the ideals of e, the lower sets closed under existing sups,
    ordered by inclusion, in the order of e's lower-set enumeration, where
    each lower set follows every lower set inside it, so the empty ideal
    is element 0."""
    masks = [low for low in e._lower_masks()
             if e._unclosed_family(low) is None]
    return FinitePoset._from_up_masks(
        [sum(1 << j for j, b in enumerate(masks) if not a & ~b) for a in masks])
