"""The space of all maxitive maps from a poset into a complete lattice.

The space is materialized exhaustively and ordered pointwise.  Pointwise
infima of selected families stay inside the space, and so do pointwise
joins, because sups commute with sups; the join is a table lookup.  Way-above
in the space, and by default in the target, uses the filtered selection.  A
finite codirected upper set has a least element, so that selection is the
principal filters and way-above in the space is its order.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .poset import FinitePoset, PosetError, classify
from .selections import (FilterSelection, SelectionError, SelectionKind,
                         build_selection, way_above)
from .maxitive import (IdealFamily, MapError, MonotoneMap, from_ideal_family,
                       iter_monotone_values, maxitivity_witness)

DEFAULT_SPACE_CAP = 10 ** 6


@dataclass(frozen=True)
class Generator:
    """The pair (h, s) naming the maxitive map that is s below h and top
    elsewhere."""

    h: int
    s: int


class MaxMapSpace:
    """All maxitive maps source -> target, ordered pointwise.

    Maps are value tuples sorted lexicographically.  ``poset`` carries the
    pointwise order on them, built on first use, so the whole selection and
    way-above machinery applies to the space itself.
    """

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = tuple(tuple(m) for m in maps)
        self.index = {m: k for k, m in enumerate(self.maps)}
        self._joins = {}

    @cached_property
    def poset(self):
        target, n = self.target, self.source.n
        rows = tuple(tuple(all(target.leq(a[g], b[g]) for g in range(n))
                           for b in self.maps) for a in self.maps)
        labels = tuple("(" + ",".join(target.label_of(t) for t in m) + ")"
                       for m in self.maps)
        return FinitePoset(rows, labels)

    def __len__(self):
        return len(self.maps)

    def map_at(self, k) -> MonotoneMap:
        return MonotoneMap(self.source, self.target, self.maps[k])

    def index_of(self, values):
        values = tuple(getattr(values, "values", values))
        try:
            return self.index[values]
        except KeyError:
            raise MapError(f"{values} is not a maxitive map of this space") from None

    def join(self, i, j):
        """Join inside the space: the pointwise join, which is maxitive."""
        key = (i, j) if i <= j else (j, i)
        found = self._joins.get(key)
        if found is None:
            joins = _arrow_tables(self.target)[0]
            found = self.index.get(tuple(
                joins[a][b] for a, b in zip(self.maps[i], self.maps[j])))
            if found is None:
                raise MapError("the space is missing a join; target not complete?")
            self._joins[key] = found
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


def pointwise_inf(space, family, sel: FilterSelection) -> MonotoneMap:
    """Pointwise infimum of a selected family of maps in the space.

    The family must be a nonempty selected set of the space's poset; the
    result is again maxitive and is the family's infimum in the space.
    """
    family = frozenset(family)
    if sel.poset != space.poset:
        raise SelectionError("selection was built on a different space")
    if not family:
        raise SelectionError("the empty family has no pointwise infimum here")
    if family not in sel.fsets:
        raise SelectionError("family is not a selected set of the space")
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
    """Way-above on the space's poset under the filtered selection."""
    sel = build_selection(space.poset, SelectionKind.FILTERED)
    return way_above(space.poset, sel)


def corollary_above_set(space, v, sel_l=None) -> frozenset:
    """The generator characterization: the maps w way-above v are those that
    dominate the pointwise infimum of some finite family of generators of v.

    Enlarging the family only lowers the infimum, so a witnessing family
    exists exactly when the full generator family works.
    """
    floor = reconstruction(space, representation(space, space.maps[v], sel_l))
    l = space.target
    return frozenset(w for w, values in enumerate(space.maps)
                     if all(l.leq(floor[g], values[g])
                            for g in range(space.source.n)))


@lru_cache(maxsize=64)
def _arrow_tables(l):
    """The binary joins of a target and its principal selection, built once
    per target for m_arrow and the space's join."""
    joins = tuple(tuple(l.sup_of((a, b)) for b in range(l.n))
                  for a in range(l.n))
    return joins, build_selection(l, SelectionKind.PRINCIPAL)


def m_arrow(space, u, v) -> MonotoneMap:
    """Residuation u <- v inside the space: the least w with v <= u join w.

    Built through the sublevel-ideal family whose member at t collects the
    g such that v(h) <= u(h) join t for every h below g, then evaluated via
    the infimum formula; requires a distributive target.  The result equals
    the pointwise formula g -> sup of heyting_arrow(u(h), v(h)) over h <= g.
    """
    l = space.target
    if not classify(l).is_distributive:
        raise PosetError("the target must be distributive")
    joins, sel = _arrow_tables(l)
    uvals = space.maps[u] if isinstance(u, int) else tuple(u)
    vvals = space.maps[v] if isinstance(v, int) else tuple(v)
    e = space.source
    family = []
    for t in range(l.n):
        fits = frozenset(h for h in range(e.n)
                         if l.leq(vvals[h], joins[uvals[h]][t]))
        family.append(frozenset(g for g in range(e.n) if e.down(g) <= fits))
    fam = IdealFamily(e, l, tuple(family))
    arrow = from_ideal_family(fam, sel)
    space.index_of(arrow.values)
    return arrow
