"""Filter selections on a poset, the way-above relation, and continuity.

A selection materializes the family of distinguished upper sets of one
poset.  Built-in kinds: principal filters, filtered (codirected) upper
sets, and all upper sets; explicit selections carry user-supplied sets
plus every principal filter, and a recursion kind saying which selection
to apply one level up when testing union-completeness.
"""

import enum
from dataclasses import dataclass

from .poset import FinitePoset


class SelectionError(ValueError):
    """A selection violates the filter-selection conditions."""


class SelectionKind(str, enum.Enum):
    PRINCIPAL = "principal"
    FILTERED = "filtered"
    UPPER = "upper"
    EXPLICIT = "explicit"

    def __str__(self):
        return self.value


BUILTIN_KINDS = (SelectionKind.PRINCIPAL, SelectionKind.FILTERED, SelectionKind.UPPER)


def _inf_allowing_empty(p, subset):
    """Infimum of a possibly-empty subset: the top of p when subset is empty."""
    if subset:
        return p.inf_of(subset)
    return p.top()


@dataclass(frozen=True)
class FilterSelection:
    """The designated family of upper subsets of a poset."""

    poset: FinitePoset
    kind: SelectionKind
    fsets: frozenset
    recursion_kind: SelectionKind = SelectionKind.PRINCIPAL

    def __post_init__(self):
        p = self.poset
        if not self.fsets:
            raise SelectionError("a selection must contain at least one set")
        if not any(self.fsets):
            raise SelectionError("a selection needs at least one nonempty member")
        for f in self.fsets:
            if not p.is_upper_set(f):
                raise SelectionError(f"{sorted(f)} is not an upper set")
        for x in range(p.n):
            if p.up(x) not in self.fsets:
                raise SelectionError(f"principal filter of {x} is missing")

    def __contains__(self, subset):
        return frozenset(subset) in self.fsets

    def sorted_fsets(self):
        return sorted(self.fsets, key=lambda f: (len(f), sorted(f)))


def _iter_kind_sets(p, kind):
    """Stream the sets of a built-in kind; members are upper by construction.

    A finite codirected upper set has a least element, so on a finite poset
    the filtered sets are exactly the principal filters.
    """
    if kind in (SelectionKind.PRINCIPAL, SelectionKind.FILTERED):
        for x in range(p.n):
            yield p.up(x)
    elif kind is SelectionKind.UPPER:
        yield from p.iter_upper_sets()
    else:  # pragma: no cover
        raise SelectionError(f"{kind} has no implicit set family")


def build_selection(p, kind, explicit_sets=None,
                    recursion_kind=SelectionKind.PRINCIPAL) -> FilterSelection:
    """Materialize the selection of the given kind on p."""
    kind = SelectionKind(kind)
    if kind in BUILTIN_KINDS:
        fsets = frozenset(_iter_kind_sets(p, kind))
    elif kind is SelectionKind.EXPLICIT:
        if explicit_sets is None:
            raise SelectionError("explicit selections require explicit_sets")
        given = set()
        for f in explicit_sets:
            f = frozenset(f)
            if not p.is_upper_set(f):
                raise SelectionError(f"explicit set {sorted(f)} is not upper")
            given.add(f)
        given.update(p.up(x) for x in range(p.n))
        fsets = frozenset(given)
    else:  # pragma: no cover
        raise SelectionError(f"unknown kind {kind!r}")
    if kind is not SelectionKind.EXPLICIT:
        recursion_kind = kind
    return FilterSelection(p, kind, fsets, SelectionKind(recursion_kind))


@dataclass(frozen=True)
class WayAboveRelation:
    """The way-above relation induced on a poset by a selection.

    gg[y][x] holds iff every selected set with an infimum below x contains y.
    For the built-in kinds, way-above is contained in the partial order; this
    is asserted at construction and not claimed for explicit selections.
    """

    poset: FinitePoset
    selection: FilterSelection
    gg: tuple

    def __post_init__(self):
        if self.selection.kind in BUILTIN_KINDS:
            for y in range(self.poset.n):
                for x in range(self.poset.n):
                    if self.gg[y][x] and not self.poset.leq(x, y):
                        raise SelectionError(
                            f"way-above escapes the order at ({y}, {x})")

    def way_above(self, y, x):
        return self.gg[y][x]

    def above_set(self, x):
        """Elements way-above x."""
        return frozenset(y for y in range(self.poset.n) if self.gg[y][x])

    def below_set(self, y):
        return frozenset(x for x in range(self.poset.n) if self.gg[y][x])

    def equals_order(self):
        p = self.poset
        return all(self.gg[y][x] == p.leq(x, y)
                   for x in range(p.n) for y in range(p.n))


def way_above(p, sel) -> WayAboveRelation:
    """Compute the way-above relation of p under the selection sel."""
    if sel.poset is not p and sel.poset != p:
        raise SelectionError("selection was built on a different poset")
    n = p.n
    constraints = []
    for f in sel.sorted_fsets():
        m = _inf_allowing_empty(p, f)
        if m is not None:
            constraints.append((m, f))
    columns = []
    for x in range(n):
        allowed = frozenset(range(n))
        for m, f in constraints:
            if p.leq(m, x):
                allowed &= f
        columns.append(allowed)
    gg = tuple(tuple(y in columns[x] for x in range(n)) for y in range(n))
    return WayAboveRelation(p, sel, gg)


@dataclass(frozen=True)
class ContinuityReport:
    """Continuity, domain and interpolation verdicts with failure witnesses."""

    is_continuous: bool
    is_domain: bool
    has_interpolation: bool
    continuity_failures: tuple = ()
    missing_infima: tuple = ()
    interpolation_failures: tuple = ()

    def __post_init__(self):
        if self.is_domain and not self.is_continuous:
            raise SelectionError("a domain must be continuous")


def continuity_report(p, sel) -> ContinuityReport:
    """Check continuity of p under sel, the domain property, and interpolation.

    Continuity requires, for each x, that the set of elements way-above x is
    a selected set whose infimum is x; a domain additionally requires every
    selected set to have an infimum.
    """
    rel = way_above(p, sel)
    continuity_failures = []
    for x in range(p.n):
        above = rel.above_set(x)
        if above not in sel.fsets or _inf_allowing_empty(p, above) != x:
            continuity_failures.append(x)
    missing = tuple(tuple(sorted(f)) for f in sel.sorted_fsets()
                    if _inf_allowing_empty(p, f) is None)
    interp_failures = []
    for x in range(p.n):
        for y in range(p.n):
            if rel.gg[y][x] and not any(rel.gg[y][z] and rel.gg[z][x]
                                        for z in range(p.n)):
                interp_failures.append((y, x))
    is_continuous = not continuity_failures
    return ContinuityReport(
        is_continuous=is_continuous,
        is_domain=is_continuous and not missing,
        has_interpolation=not interp_failures,
        continuity_failures=tuple(continuity_failures),
        missing_infima=missing,
        interpolation_failures=tuple(interp_failures),
    )


def _selection_poset(sel):
    """The family of selected sets as a poset under reverse inclusion."""
    fsets = sel.sorted_fsets()
    rows = tuple(tuple(a >= b for b in fsets) for a in fsets)
    return FinitePoset(rows), fsets


def is_union_complete(sel) -> bool:
    """True iff unions of selected families of selected sets are selected.

    The family of sets is ordered by reverse inclusion and re-selected with
    the same kind (for explicit selections, with the recursion kind); every
    member of that second-level selection must union back into the first.
    """
    level_poset, fsets = _selection_poset(sel)
    kind = sel.kind if sel.kind in BUILTIN_KINDS else sel.recursion_kind
    for v in _iter_kind_sets(level_poset, kind):
        union = frozenset().union(*(fsets[i] for i in v)) if v else frozenset()
        if union not in sel.fsets:
            return False
    return True


def fmap(sel_p, sel_q, f, fset) -> frozenset:
    """Upper closure of the image of a selected set under an order-preserving map.

    f may be a MonotoneMap or a bare sequence of target indices.  For built-in
    kinds the image is checked to be selected in the target, as functoriality
    demands.
    """
    values = tuple(getattr(f, "values", f))
    p, q = sel_p.poset, sel_q.poset
    if len(values) != p.n:
        raise SelectionError("map does not cover the source poset")
    for g in range(p.n):
        for h in range(p.n):
            if p.leq(g, h) and not q.leq(values[g], values[h]):
                raise SelectionError(f"map is not order-preserving on ({g}, {h})")
    fset = frozenset(fset)
    if fset not in sel_p.fsets:
        raise SelectionError(f"{sorted(fset)} is not a selected set of the source")
    image = q.upper_closure(values[g] for g in fset)
    if sel_q.kind in BUILTIN_KINDS and image not in sel_q.fsets:
        raise SelectionError(f"image {sorted(image)} escapes the target selection")
    return image
