"""The space of all maxitive maps from a poset into a complete lattice.

The space is materialized exhaustively and ordered pointwise, through int
bitmasks over the map indices rather than a poset of maps.  Pointwise
infima of selected families stay inside the space, and so do pointwise
joins, because sups commute with sups.  Way-above in the space, and by
default in the target, uses the filtered selection.  A finite codirected
upper set has a least element, so that selection is the principal filters
and way-above in the space is its pointwise order.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .poset import PosetError, _indices, _union, classify, join_table
from .selections import (FilterSelection, SelectionError, SelectionKind,
                         build_selection, way_above)
from .maxitive import (MapError, MonotoneMap, iter_monotone_values,
                       maxitivity_witness)
from .residuation import heyting_arrow

DEFAULT_SPACE_CAP = 10 ** 6


@dataclass(frozen=True)
class Generator:
    """The pair (h, s) naming the maxitive map that is s below h and top
    elsewhere."""

    h: int
    s: int


class MaxMapSpace:
    """All maxitive maps source -> target, ordered pointwise.

    Maps are value tuples sorted lexicographically; a set of maps is an int
    bitmask over their indices.
    """

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = tuple(tuple(m) for m in maps)
        self.index = {m: k for k, m in enumerate(self.maps)}

    @cached_property
    def at_least(self):
        """at_least[g][t]: the mask of the maps whose value at g is >= t."""
        exact = [[0] * self.target.n for _ in range(self.source.n)]
        for k, values in enumerate(self.maps):
            for g, t in enumerate(values):
                exact[g][t] |= 1 << k
        return tuple(tuple(_union(row, up) for up in self.target._upm)
                     for row in exact)

    def above(self, values):
        """The mask of the maps that lie pointwise above a value tuple."""
        mask = (1 << len(self.maps)) - 1
        for column, t in zip(self.at_least, values):
            mask &= column[t]
        return mask

    def up(self, k):
        """The mask of the maps above map k, its principal filter."""
        return self.above(self.maps[k])

    def __len__(self):
        return len(self.maps)

    def index_of(self, values):
        values = tuple(getattr(values, "values", values))
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
    """Materialize every maxitive map e -> l; the candidate pool is |L|^|E|."""
    if l.n ** e.n > cap:
        raise MapError(f"candidate pool {l.n}^{e.n} exceeds the cap {cap}")
    if not classify(l).is_complete_lattice:
        raise MapError("the target must be a complete lattice")
    maps = []
    for values in iter_monotone_values(e, l):
        candidate = MonotoneMap(e, l, values)
        if maxitivity_witness(candidate) is None:
            maps.append(values)
    return MaxMapSpace(e, l, maps)


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


def generator_values(space, gen: Generator):
    top = space.target.top()
    if top is None:
        raise MapError("the target needs a top for generator maps")
    return tuple(gen.s if space.source.leq(g, gen.h) else top
                 for g in range(space.source.n))


def generator_map(space, gen: Generator) -> MonotoneMap:
    """The map of a generator pair, checked to be a member of the space."""
    values = generator_values(space, gen)
    space.index_of(values)
    return MonotoneMap(space.source, space.target, values)


def representation(space, values, sel_l: FilterSelection = None):
    """All generator pairs (h, s) with s way-above the value of the map at h.

    The way-above relation of the target defaults to the filtered selection;
    the pointwise infimum of the generators' maps reconstructs the map
    exactly when the target is continuous under the chosen selection.
    """
    values = tuple(getattr(values, "values", values))
    if sel_l is None:
        sel_l = build_selection(space.target, SelectionKind.FILTERED)
    rel = way_above(space.target, sel_l)
    return tuple(Generator(h, s)
                 for h in range(space.source.n)
                 for s in range(space.target.n)
                 if rel.way_above(s, values[h]))


def reconstruction(space, gens):
    """Pointwise infimum of the maps of the given generators."""
    l = space.target
    values = []
    for g in range(space.source.n):
        pool = frozenset(generator_values(space, gen)[g] for gen in gens)
        m = l.inf_of(pool) if pool else l.top()
        if m is None:
            raise MapError(f"generator infimum missing at {g}")
        values.append(m)
    return tuple(values)


def way_above_in_space(space):
    """Way-above in the space under the filtered selection: entry v is the
    mask of the maps way-above v, which is the principal filter of v."""
    return tuple(space.up(k) for k in range(len(space)))


def corollary_above_set(space, v) -> frozenset:
    """The generator characterization: the maps w way-above v are those that
    dominate the pointwise infimum of some finite family of generators of v.

    Enlarging the family only lowers the infimum, so a witnessing family
    exists exactly when the full generator family works.
    """
    floor = reconstruction(space, representation(space, space.maps[v]))
    return frozenset(_indices(space.above(floor)))


@lru_cache(maxsize=64)
def _heyting_table(l):
    """table[r][s] = heyting_arrow(l, r, s), built once per target."""
    return tuple(tuple(heyting_arrow(l, r, s) for s in range(l.n))
                 for r in range(l.n))


def _arrow_values(space, u, v):
    """The value tuple of u <- v by the formula of m_arrow, unchecked: it may
    lie outside the space."""
    l = space.target
    if not classify(l).is_distributive:
        raise PosetError("the target must be distributive")
    arrows, joins = _heyting_table(l), join_table(l)
    pointwise = [arrows[a][b] for a, b in zip(space.maps[u], space.maps[v])]
    values = []
    for g in range(space.source.n):
        t = pointwise[g]
        for h in space.source.down(g):
            t = joins[t][pointwise[h]]
        values.append(t)
    return tuple(values)


def m_arrow(space, u, v) -> MonotoneMap:
    """Residuation u <- v inside the space: the least w with v <= u join w.

    The formula g -> sup of heyting_arrow(u(h), v(h)) over h <= g, for a
    distributive target.  Joins are pointwise, so an admissible monotone w
    has w(h) >= u(h) <- v(h) everywhere and lies above that map, the arrow
    when it is maxitive; otherwise MapError names its values.
    """
    values = _arrow_values(space, u, v)
    space.index_of(values)
    return MonotoneMap(space.source, space.target, values)
