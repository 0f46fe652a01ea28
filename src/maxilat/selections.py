"""Filter selections on a poset, the way-above relation, and continuity.

A selection materializes the family of distinguished upper sets of one
poset.  Built-in kinds: principal filters, filtered (codirected) upper
sets, and all upper sets; explicit selections carry user-supplied sets
plus every principal filter, and a recursion kind saying which selection
to apply one level up when testing union-completeness.
"""

import enum
from dataclasses import dataclass

from .poset import (FinitePoset, _bits, _bounding_member, _common, _indices,
                    _union)


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
    """The designated family of upper subsets of a poset.

    The bitmasks of the sets, in the iteration order of fsets, are kept as
    `_masks`; the checks run on them.
    """

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
        masks = []
        for f in self.fsets:
            mask = p._mask(f)
            if _union(p._upm, mask) != mask:
                raise SelectionError(f"{sorted(f)} is not an upper set")
            masks.append(mask)
        selected = set(masks)
        for x in range(p.n):
            if p._upm[x] not in selected:
                raise SelectionError(f"principal filter of {x} is missing")
        object.__setattr__(self, "_masks", tuple(masks))

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
        n = self.poset.n
        _check_within_order(self.poset, self.selection,
                            [_bits(y for y in range(n) if self.gg[y][x])
                             for x in range(n)])

    def way_above(self, y, x):
        return self.gg[y][x]

    def above_set(self, x):
        """Elements way-above x."""
        return frozenset(y for y in range(self.poset.n) if self.gg[y][x])

    def equals_order(self):
        p = self.poset
        return all(self.gg[y][x] == p.leq(x, y)
                   for x in range(p.n) for y in range(p.n))


def _check_within_order(p, sel, cols):
    """For the built-in kinds, y way-above x implies x <= y; cols[x] is the
    bitmask of the y way-above x."""
    if sel.kind in BUILTIN_KINDS:
        for x in range(p.n):
            escaped = cols[x] & ~p._upm[x]
            if escaped:
                y = (escaped & -escaped).bit_length() - 1
                raise SelectionError(f"way-above escapes the order at ({y}, {x})")


def _way_above_columns(p, sel):
    """One pass over the selected sets, as int bitmasks.

    Returns the way-above columns, cols[x] holding the y way-above x, and
    the infimum of each selected set keyed by its bitmask (None if missing;
    the top for the empty set).
    """
    if sel.poset is not p and sel.poset != p:
        raise SelectionError("selection was built on a different poset")
    n = p.n
    down = p._downm
    # at[m]: the intersection of the selected sets whose infimum is m
    at = [(1 << n) - 1] * n
    infs = {}
    for mask in sel._masks:
        m = infs[mask] = _bounding_member(down, _common(down, mask, n))
        if m is not None:
            at[m] &= mask
    return [_common(at, below, n) for below in down], infs


def way_above(p, sel) -> WayAboveRelation:
    """Compute the way-above relation of p under the selection sel."""
    cols = _way_above_columns(p, sel)[0]
    gg = tuple(tuple(bool(cols[x] >> y & 1) for x in range(p.n))
               for y in range(p.n))
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
    selected set to have an infimum.  Interpolation asks for each y way-above
    x some z with y way-above z way-above x.
    """
    cols, infs = _way_above_columns(p, sel)
    _check_within_order(p, sel, cols)
    n = p.n
    continuity_failures = tuple(x for x in range(n) if infs.get(cols[x]) != x)
    missing = tuple(sorted(
        (tuple(_indices(mask)) for mask, m in infs.items() if m is None),
        key=lambda f: (len(f), f)))
    interp_failures = []
    for x, col in enumerate(cols):
        unmet = col & ~_union(cols, col)
        if unmet:
            interp_failures.extend((y, x) for y in _indices(unmet))
    is_continuous = not continuity_failures
    return ContinuityReport(
        is_continuous=is_continuous,
        is_domain=is_continuous and not missing,
        has_interpolation=not interp_failures,
        continuity_failures=continuity_failures,
        missing_infima=missing,
        interpolation_failures=tuple(interp_failures),
    )


def is_union_complete(sel) -> bool:
    """True iff unions of selected families of selected sets are selected.

    The selected sets are ordered by reverse inclusion and re-selected with
    the same kind (for explicit selections, with the recursion kind); every
    member of that second-level selection must union back into the first.
    This is decided by closure, without building the second level:

    - principal or filtered: the principal filter of f one level up is
      {g selected : g inside f}, whose union is f itself, so the check holds;
    - upper: an upper set one level up is a family closed under selected
      subsets, and any family has the same union as the one it generates, so
      every subfamily must union into the selection.  By induction on its
      size, that is: the empty set is selected, and so is the union of any
      two selected sets.
    """
    kind = sel.kind if sel.kind in BUILTIN_KINDS else sel.recursion_kind
    if kind in (SelectionKind.PRINCIPAL, SelectionKind.FILTERED):
        return True
    if kind is not SelectionKind.UPPER:
        raise SelectionError(f"{kind} has no implicit set family")
    masks = sel._masks
    selected = set(masks)
    return 0 in selected and all(a | b in selected
                                 for i, a in enumerate(masks)
                                 for b in masks[i + 1:])


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
