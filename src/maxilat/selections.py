"""Filter selections on a poset, the way-above relation, and continuity.

A selection materializes the family of distinguished upper sets of one
poset.  Built-in kinds: principal filters, filtered (codirected) upper
sets, and all upper sets; explicit selections carry user-supplied sets
plus every principal filter, and a recursion kind saying which selection
to apply one level up when testing union-completeness.

The data are int bitmasks over the poset (bit i for element i): a
selection keeps the masks of its sets and a way-above relation the mask
of the elements way-above each x, and each is constructed from them.  The
frozensets of `fsets` are a view built on first request.
"""

import enum
from dataclasses import dataclass

from .poset import (FinitePoset, _bounding_member, _common, _frozen,
                    _indices, _union)


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


class FilterSelection:
    """The designated family of upper subsets of a poset.

    The data are the bitmasks of the sets, the tuple `_masks` and the set
    `_selected`; the checks and membership tests of the library run on
    them.  `fsets`, the frozenset of the sets, and `_infima`, the infimum
    of each set by its mask, are built on first request.
    The constructor takes the masks of the sets, bit i for element i;
    `build_selection` is the usual way to make one.
    """

    __slots__ = ("poset", "kind", "recursion_kind", "_masks", "_selected",
                 "_fsets", "_infima")

    def __init__(self, poset: FinitePoset, kind: SelectionKind, masks,
                 recursion_kind=SelectionKind.PRINCIPAL):
        # The size checks follow the loop: the families they refuse, none or
        # only empty sets, pass the upper-set test, so a bad input raises
        # what it raised when they came first.
        up, n = poset._upm, poset.n
        kept = []
        for mask in masks:
            if mask >> n:
                raise SelectionError(f"mask {mask} has a bit outside the "
                                     f"{n} elements")
            if _union(up, mask) != mask:
                raise SelectionError(f"{_indices(mask)} is not an upper set")
            kept.append(mask)
        if not kept:
            raise SelectionError("a selection must contain at least one set")
        if not any(kept):
            raise SelectionError("a selection needs at least one nonempty member")
        selected = set(kept)
        for x in range(n):
            if up[x] not in selected:
                raise SelectionError(f"principal filter of {x} is missing")
        self.poset = poset
        self.kind = kind
        self.recursion_kind = recursion_kind
        self._masks = tuple(kept)
        self._selected = selected
        self._fsets = self._infima = None

    @property
    def fsets(self) -> frozenset:
        if self._fsets is None:
            self._fsets = frozenset(map(_frozen, self._masks))
        return self._fsets

    def _infimum_table(self):
        """The infimum of each selected set keyed by its mask, None where
        it is missing; the top for the empty set."""
        if self._infima is None:
            down, n = self.poset._downm, self.poset.n
            self._infima = {mask: _bounding_member(down, _common(down, mask, n))
                            for mask in self._masks}
        return self._infima

    def __eq__(self, other):
        if not isinstance(other, FilterSelection):
            return NotImplemented
        return (self.poset == other.poset and self.kind == other.kind
                and self._selected == other._selected
                and self.recursion_kind == other.recursion_kind)

    def __hash__(self):
        return hash((self.poset, self.kind, frozenset(self._selected),
                     self.recursion_kind))


def build_selection(p, kind, explicit_sets=None,
                    recursion_kind=SelectionKind.PRINCIPAL) -> FilterSelection:
    """Materialize the selection of the given kind on p.

    A finite codirected upper set has a least element, so on a finite poset
    the filtered sets are exactly the principal filters; the upper sets are
    the complements of the lower sets.
    """
    kind = SelectionKind(kind)
    if kind in (SelectionKind.PRINCIPAL, SelectionKind.FILTERED):
        masks = p._upm
    elif kind is SelectionKind.UPPER:
        full = (1 << p.n) - 1
        masks = [full ^ low for low in p._lower_masks()]
    elif kind is SelectionKind.EXPLICIT:
        if explicit_sets is None:
            raise SelectionError("explicit selections require explicit_sets")
        masks = set()
        for f in explicit_sets:
            mask = p._mask(f)
            if _union(p._upm, mask) != mask:
                raise SelectionError(f"explicit set {_indices(mask)} is not upper")
            masks.add(mask)
        masks.update(p._upm)
    else:  # pragma: no cover
        raise SelectionError(f"unknown kind {kind!r}")
    if kind is not SelectionKind.EXPLICIT:
        recursion_kind = kind
    return FilterSelection(p, kind, masks, SelectionKind(recursion_kind))


class WayAboveRelation:
    """The way-above relation induced on a poset by a selection.

    y is way-above x iff every selected set with an infimum below x
    contains y.  The data are the columns as int bitmasks, `_cols[x]`
    holding the y way-above x; the constructor takes them, one per
    element, and `way_above` computes them from the selection.  For the
    built-in kinds, way-above is contained in the partial order; this is
    asserted at construction and not claimed for explicit selections.
    """

    __slots__ = ("poset", "selection", "_cols")

    def __init__(self, poset: FinitePoset, selection: FilterSelection, cols):
        cols = tuple(cols)
        n = poset.n
        if len(cols) != n:
            raise SelectionError(f"expected {n} way-above columns, "
                                 f"got {len(cols)}")
        for x, col in enumerate(cols):
            if col >> n:
                raise SelectionError(f"column {x} has a bit outside the "
                                     f"{n} elements")
        _check_within_order(poset, selection, cols)
        self.poset = poset
        self.selection = selection
        self._cols = cols

    def __eq__(self, other):
        if not isinstance(other, WayAboveRelation):
            return NotImplemented
        return ((self.poset, self.selection, self._cols)
                == (other.poset, other.selection, other._cols))

    def __hash__(self):
        return hash((self.poset, self.selection, self._cols))

    def way_above(self, y, x):
        return bool(self._cols[x] >> y & 1)


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
    the selection's table of infima.
    """
    if sel.poset is not p and sel.poset != p:
        raise SelectionError("selection was built on a different poset")
    n = p.n
    infs = sel._infimum_table()
    # at[m]: the intersection of the selected sets whose infimum is m
    at = [(1 << n) - 1] * n
    for mask, m in infs.items():
        if m is not None:
            at[m] &= mask
    return tuple(_common(at, below, n) for below in p._downm), infs


def way_above(p, sel) -> WayAboveRelation:
    """Compute the way-above relation of p under the selection sel."""
    return WayAboveRelation(p, sel, _way_above_columns(p, sel)[0])


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
    masks, selected = sel._masks, sel._selected
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
