"""Finite posets, their subsets, completions, classification and enumeration.

Elements are dense indices 0..n-1.  The order is kept as int bitmasks of
each element's principal filter and ideal (bit i for element i), built once
at construction; the order axioms, bounds, sups, infs and the set tests run
on those masks.  The boolean relation matrix stays for I/O, equality and
`matrix`.  Subsets passed to the public methods are range-checked as their
mask is built; the library's own masks are not checked again.
Everything here is immutable after construction and safe to share.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_ENUMERATION_CAP = 5
_SUBSET_SCAN_CAP = 16


class PosetError(ValueError):
    """Data fails the partial-order axioms or an indexing/size rule."""


def _bits(elems):
    """The bitmask of an iterable of indices, unchecked."""
    mask = 0
    for i in elems:
        mask |= 1 << i
    return mask


def _indices(mask):
    """The indices set in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=4096)
def _frozen(mask):
    """The frozenset of the indices in mask, one object per mask: posets of
    one size share their few distinct principal filters and ideals."""
    return frozenset(_indices(mask))


# The order core.  masks is a poset's tuple of up-masks or of down-masks and
# mask a subset the library built or already range-checked.


def _union(masks, mask):
    """The union of masks[i] over the i in mask: its upper (lower) closure."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def _common(masks, mask, n):
    """The intersection of masks[i] over the i in mask, all n elements if
    mask is empty: its upper (lower) bounds."""
    out = (1 << n) - 1
    while mask:
        low = mask & -mask
        out &= masks[low.bit_length() - 1]
        mask ^= low
    return out


def _bounding_member(masks, mask):
    """The member m of mask with mask inside masks[m], or None: its least
    (greatest) element."""
    rest = mask
    while rest:
        low = rest & -rest
        m = low.bit_length() - 1
        if not mask & ~masks[m]:
            return m
        rest ^= low
    return None


class FinitePoset:
    """A partial order on {0, ..., n-1}.

    The relation is given as an n x n boolean matrix.  Its up/down bitmasks
    are built once, checked for reflexivity, antisymmetry and transitivity,
    and carry the bounds, sups and infs; the matrix stays for I/O and
    `matrix`.  The frozensets returned by `up` and `down` are shared between
    posets.  Optional labels name elements for I/O; they play no role in
    the order itself.
    """

    __slots__ = ("n", "_rows", "_up", "_down", "_upm", "_downm", "labels",
                 "_label_index", "_top", "_bottom", "_canon", "_hash")

    def __init__(self, leq, labels=None):
        rows = tuple(tuple(map(bool, row)) for row in leq)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise PosetError("relation matrix must be square")
        bits = [1 << i for i in range(n)]
        up = tuple(sum(itertools.compress(bits, row)) for row in rows)
        down = tuple(sum(itertools.compress(bits, col)) for col in zip(*rows))
        for i in range(n):
            if not rows[i][i]:
                raise PosetError(f"relation not reflexive at {i}")
            if up[i] & down[i] == bits[i] and _union(up, up[i]) == up[i]:
                continue
            for j in _indices(up[i]):
                if i != j and rows[j][i]:
                    raise PosetError(f"relation not antisymmetric on ({i}, {j})")
                if up[j] & ~up[i]:
                    k = _indices(up[j] & ~up[i])[0]
                    raise PosetError(f"relation not transitive: {i} <= {j} <= {k}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise PosetError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise PosetError("labels must be distinct")
        self.n = n
        self._rows = rows
        self._upm = up
        self._downm = down
        self._up = tuple(_frozen(m) for m in up)
        self._down = tuple(_frozen(m) for m in down)
        self.labels = labels
        self._label_index = None
        self._top = self._bottom = self._canon = self._hash = None

    # -- basic queries ----------------------------------------------------

    def leq(self, i, j):
        return self._rows[i][j]

    def up(self, i):
        """Principal filter of i (elements above i, inclusive)."""
        return self._up[i]

    def down(self, i):
        """Principal ideal of i (elements below i, inclusive)."""
        return self._down[i]

    @property
    def matrix(self):
        return self._rows

    def index_of(self, label):
        if self.labels is None:
            raise PosetError("poset has no labels")
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return self._label_index[label]
        except KeyError:
            raise PosetError(f"unknown element label {label!r}") from None

    def label_of(self, i):
        return self.labels[i] if self.labels is not None else str(i)

    def _mask(self, a):
        """Bitmask of the subset a, range-checking each index as it is set."""
        n = self.n
        mask = 0
        for i in a:
            if not 0 <= i < n:
                raise PosetError(f"element index {i} out of range for n={n}")
            mask |= 1 << i
        return mask

    # -- closures and bounds ----------------------------------------------

    def upper_closure(self, a):
        """Upper set generated by a: all y with some x in a, x <= y."""
        return frozenset(_indices(_union(self._upm, self._mask(a))))

    def lower_closure(self, a):
        return frozenset(_indices(_union(self._downm, self._mask(a))))

    def is_upper_set(self, a):
        mask = self._mask(a)
        return _union(self._upm, mask) == mask

    def is_lower_set(self, a):
        mask = self._mask(a)
        return _union(self._downm, mask) == mask

    def upper_bounds(self, a):
        return frozenset(_indices(_common(self._upm, self._mask(a), self.n)))

    def lower_bounds(self, a):
        return frozenset(_indices(_common(self._downm, self._mask(a), self.n)))

    def least(self, a):
        """Least element of the subset a, or None."""
        return _bounding_member(self._upm, self._mask(a))

    def greatest(self, a):
        return _bounding_member(self._downm, self._mask(a))

    def sup_of(self, a):
        """Least upper bound of the nonempty subset a, or None if missing."""
        mask = self._mask(a)
        if not mask:
            raise PosetError("supremum of the empty subset is not defined here")
        return _bounding_member(self._upm, _common(self._upm, mask, self.n))

    def inf_of(self, a):
        mask = self._mask(a)
        if not mask:
            raise PosetError("infimum of the empty subset is not defined here")
        return _bounding_member(self._downm, _common(self._downm, mask, self.n))

    def join(self, i, j):
        return self.sup_of((i, j))

    def top(self):
        if self._top is None:
            self._top = (_bounding_member(self._downm, (1 << self.n) - 1),)
        return self._top[0]

    def bottom(self):
        if self._bottom is None:
            self._bottom = (_bounding_member(self._upm, (1 << self.n) - 1),)
        return self._bottom[0]

    # -- ideals -------------------------------------------------------------

    def _iter_sups(self, elems):
        """Yield (members, sup-or-None) for every nonempty subset of elems;
        the exhaustive scan behind OrderExtension's preservation checks."""
        elems = list(elems)
        k = len(elems)
        if k > _SUBSET_SCAN_CAP:
            raise PosetError(f"subset scan over {k} elements exceeds the desk-scale "
                             f"cap of {_SUBSET_SCAN_CAP}")
        bounds = [0] * (1 << k)
        bounds[0] = (1 << self.n) - 1
        members = [frozenset()] * (1 << k)
        for mask in range(1, 1 << k):
            low = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            bounds[mask] = bounds[rest] & self._upm[elems[low]]
            members[mask] = members[rest] | {elems[low]}
            yield members[mask], _bounding_member(self._upm, bounds[mask])

    def is_ideal(self, a):
        """True iff a is empty, or a lower set closed under existing finite sups.

        A nonempty family in a with supremum x outside a lies inside
        a meet down(x), whose supremum is then x too; so a lower set is
        closed iff no x outside it is the supremum of its part below x.
        """
        mask = self._mask(a)
        return (_union(self._downm, mask) == mask
                and self._unclosed_family(mask) is None)

    def _unclosed_family(self, mask):
        """The first mask meet down(x), over x outside the lower set mask in
        index order, whose supremum is x, as a mask; None if mask is closed
        under existing sups.  x bounds that part, so it is its supremum iff
        every upper bound of the part lies above x."""
        up, down, n = self._upm, self._downm, self.n
        for x in range(n):
            if not mask >> x & 1:
                below = mask & down[x]
                if below and not _common(up, below, n) & ~up[x]:
                    return below
        return None

    def _lower_set_masks(self):
        """The masks of all lower sets, each exactly once: those of the rest
        without its last maximal element x, then down(x) joined to those of
        the rest outside down(x)."""
        down = self._downm
        strict_up = tuple(m & ~(1 << i) for i, m in enumerate(self._upm))

        def rec(allowed):
            if not allowed:
                return [0]
            for x in reversed(_indices(allowed)):
                if not strict_up[x] & allowed:
                    break
            dx = down[x] & allowed
            return (rec(allowed & ~(1 << x))
                    + [part | dx for part in rec(allowed & ~dx)])

        return rec((1 << self.n) - 1)

    def iter_lower_sets(self):
        """All lower sets, each exactly once, in a deterministic order."""
        return map(_frozen, self._lower_set_masks())

    def iter_upper_sets(self):
        """The complements of the lower sets, in the same order."""
        full = (1 << self.n) - 1
        for low in self._lower_set_masks():
            yield _frozen(full ^ low)

    def iter_ideals(self):
        for low in self._lower_set_masks():
            if self._unclosed_family(low) is None:
                yield _frozen(low)

    # -- derived posets -----------------------------------------------------

    def restrict(self, elements):
        """Induced subposet on the given elements, reindexed in sorted order."""
        elems = _indices(self._mask(elements))
        rows = tuple(tuple(self._rows[i][j] for j in elems) for i in elems)
        labels = tuple(self.labels[i] for i in elems) if self.labels else None
        return FinitePoset(rows, labels)

    def dual(self):
        rows = tuple(tuple(self._rows[j][i] for j in range(self.n)) for i in range(self.n))
        return FinitePoset(rows, self.labels)

    def covers(self):
        """Covering pairs (i, j): i < j with nothing strictly between."""
        out = []
        for i in range(self.n):
            for j in self._up[i]:
                if i == j:
                    continue
                if not self._upm[i] & self._downm[j] & ~(1 << i | 1 << j):
                    out.append((i, j))
        return out

    def canonical_form(self):
        """Relabeling-invariant key: the least relation matrix over all permutations."""
        if self._canon is None:
            n = self.n
            best = None
            for perm in itertools.permutations(range(n)):
                flat = tuple(self._rows[perm[i]][perm[j]]
                             for i in range(n) for j in range(n))
                if best is None or flat < best:
                    best = flat
            self._canon = (self.n, best)
        return self._canon

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_relation(cls, n, pairs, labels=None):
        """Reflexive-transitive closure of the given pairs, then validation."""
        rows = [[i == j for j in range(n)] for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise PosetError(f"pair ({i}, {j}) out of range for n={n}")
            rows[i][j] = True
        for k in range(n):
            for i in range(n):
                if rows[i][k]:
                    row_i, row_k = rows[i], rows[k]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] and rows[j][i]:
                    cycle = sorted(k for k in range(n) if rows[i][k] and rows[k][i])
                    names = [labels[k] if labels else str(k) for k in cycle]
                    raise PosetError(f"relation not antisymmetric; cycle through "
                                     f"{{{', '.join(names)}}}")
        return cls(rows, labels)

    @classmethod
    def chain(cls, n, labels=None):
        return cls(tuple(tuple(i <= j for j in range(n)) for i in range(n)), labels)

    @classmethod
    def antichain(cls, n, labels=None):
        return cls(tuple(tuple(i == j for j in range(n)) for i in range(n)), labels)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self._rows == other._rows and self.labels == other.labels

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._rows, self.labels))
        return self._hash

    def __repr__(self):
        return f"FinitePoset(n={self.n}, covers={self.covers()})"


@dataclass(frozen=True)
class PosetProfile:
    """Lattice-theoretic classification flags of a finite poset."""

    is_join_semilattice: bool
    is_meet_semilattice: bool
    is_lattice: bool
    is_complete_lattice: bool
    is_distributive: bool
    is_meet_continuous: bool

    def __post_init__(self):
        if self.is_complete_lattice and not self.is_lattice:
            raise PosetError("complete lattice flag requires the lattice flag")
        if self.is_distributive and not self.is_lattice:
            raise PosetError("distributivity flag requires the lattice flag")


@lru_cache(maxsize=256)
def _pair_tables(p):
    """The binary joins and meets of p, None where missing, from one pass
    over the pairs: the least member of up(a) & up(b) and the greatest member
    of down(a) & down(b).  classify and join_table share it."""
    n, up, down = p.n, p._upm, p._downm
    joins = [[None] * n for _ in range(n)]
    meets = [[None] * n for _ in range(n)]
    for a in range(n):
        joins[a][a] = meets[a][a] = a
        for b in range(a + 1, n):
            joins[a][b] = joins[b][a] = _bounding_member(up, up[a] & up[b])
            meets[a][b] = meets[b][a] = _bounding_member(down, down[a] & down[b])
    return tuple(map(tuple, joins)), tuple(map(tuple, meets))


@lru_cache(maxsize=32768)
def classify(p: FinitePoset) -> PosetProfile:
    """Classify p from its join and meet tables.

    On a finite poset, completeness is equivalent to being a lattice with a
    top and a bottom; the exhaustive all-subsets characterization is kept as
    a test oracle.  Distributivity and meet-continuity are only meaningful
    for lattices and default to False otherwise.

    Distributivity is checked by one law, x meet (y join z) =
    (x meet y) join (x meet z), since in a lattice it implies the other:
    (x join y) meet (x join z)
      = ((x join y) meet x) join ((x join y) meet z)   [the law]
      = x join ((x meet z) join (y meet z))            [absorption, the law]
      = x join (y meet z)                              [absorption],
    and the dual argument gives the converse.

    Every finite lattice is meet-continuous, so that flag is the lattice
    flag.  A nonempty ideal I is closed under binary joins, so it holds
    s = sup I and equals down(s); the part of I below x is then
    down(x meet s), whose supremum is x meet s.  The lower-set scan of the
    definition is the test oracle.
    """
    joins, meets = _pair_tables(p)
    is_join = not any(None in row for row in joins)
    is_meet = not any(None in row for row in meets)
    is_lattice = is_join and is_meet
    is_complete = (is_lattice and p.n > 0
                   and p.top() is not None and p.bottom() is not None)
    is_distributive = is_lattice and all(
        meet_x[join_y[z]] == joins[meet_x[y]][meet_x[z]]
        for meet_x in meets
        for y, join_y in enumerate(joins)
        for z in range(y + 1, p.n))
    return PosetProfile(is_join, is_meet, is_lattice, is_complete,
                        is_distributive, is_lattice)


def join_table(p: FinitePoset):
    """The binary joins of p, None where missing."""
    return _pair_tables(p)[0]


def _ensure_complete_lattice(p):
    if p.n == 0:
        raise PosetError("a complete lattice must be nonempty")
    if p.top() is None or p.bottom() is None:
        raise PosetError("poset lacks a top or a bottom")
    for i, j in itertools.combinations(range(p.n), 2):
        if p.sup_of((i, j)) is None or p.inf_of((i, j)) is None:
            raise PosetError(f"elements {i}, {j} lack a join or a meet")


@dataclass(frozen=True)
class OrderExtension:
    """An embedding of a poset into a complete lattice preserving existing
    suprema and infima of subsets of the base."""

    base: FinitePoset
    complete: FinitePoset
    embed: tuple

    def __post_init__(self):
        base, big = self.base, self.complete
        embed = tuple(self.embed)
        object.__setattr__(self, "embed", embed)
        if len(embed) != base.n:
            raise PosetError("embedding must cover every base element")
        if len(set(embed)) != base.n:
            raise PosetError("embedding must be injective")
        for x in embed:
            if not 0 <= x < big.n:
                raise PosetError(f"embedded index {x} out of range")
        _ensure_complete_lattice(big)
        for i in range(base.n):
            for j in range(base.n):
                if base.leq(i, j) != big.leq(embed[i], embed[j]):
                    raise PosetError(f"embedding does not preserve order on ({i}, {j})")
        if base.n > _SUBSET_SCAN_CAP:
            raise PosetError("base too large for exhaustive extension checks")
        for members, sup in base._iter_sups(range(base.n)):
            if sup is not None:
                image_sup = big.sup_of([embed[g] for g in members])
                if image_sup != embed[sup]:
                    raise PosetError(f"supremum of {sorted(members)} not preserved")
        dual_base, dual_big = base.dual(), big.dual()
        for members, inf in dual_base._iter_sups(range(base.n)):
            if inf is not None:
                image_inf = dual_big.sup_of([embed[g] for g in members])
                if image_inf != embed[inf]:
                    raise PosetError(f"infimum of {sorted(members)} not preserved")

    @classmethod
    def identity(cls, p):
        return cls(p, p, tuple(range(p.n)))

    def image(self):
        return frozenset(self.embed)

    def up_in_base(self, a):
        """Base elements whose image lies above a (the paper's up-a meet E)."""
        return frozenset(g for g in range(self.base.n)
                         if self.complete.leq(a, self.embed[g]))

    def down_in_base(self, a):
        return frozenset(g for g in range(self.base.n)
                         if self.complete.leq(self.embed[g], a))

    def is_principal_ideal(self, a):
        """True iff the ideal a of the base equals down(abar) meet E for some abar."""
        a = frozenset(a)
        if not self.base.is_ideal(a):
            raise PosetError(f"{sorted(a)} is not an ideal of the base poset")
        return any(self.down_in_base(abar) == a for abar in range(self.complete.n))


def dm_completion(p: FinitePoset) -> OrderExtension:
    """Dedekind-MacNeille completion of p with its canonical embedding.

    Cuts are computed as lower-bound sets of the intersection closure of the
    principal filters, which enumerates exactly the sets A with A = (A^u)^l.
    """
    n = p.n
    full = frozenset(range(n))
    filters = {full}
    queue = [full]
    while queue:
        u = queue.pop()
        for x in range(n):
            u2 = u & p.up(x)
            if u2 not in filters:
                filters.add(u2)
                queue.append(u2)
    cuts = set()
    for u in filters:
        cut = full
        for x in u:
            cut &= p.down(x)
        cuts.add(cut)
    ordered = sorted(cuts, key=lambda c: (len(c), sorted(c)))
    index = {cut: k for k, cut in enumerate(ordered)}
    rows = tuple(tuple(a <= b for b in ordered) for a in ordered)
    labels = tuple("{" + ",".join(p.label_of(i) for i in sorted(c)) + "}"
                   for c in ordered)
    completion = FinitePoset(rows, labels)
    embed = tuple(index[p.down(x)] for x in range(n))
    return OrderExtension(p, completion, embed)


def enumerate_posets(n_max, *, dedup=False, size_cap=DEFAULT_ENUMERATION_CAP):
    """Yield every labeled partial order on 1..n_max points, each exactly once.

    Posets of size k are grown from posets of size k-1 by attaching element
    k-1 with a chosen strict down-set D (a lower set) and strict up-set U (an
    upper set, disjoint from D, with D x U inside the existing order); every
    labeled poset arises from exactly one such triple.  With dedup=True only
    one representative per isomorphism class is yielded.
    """
    if n_max > size_cap:
        raise PosetError(f"n_max={n_max} exceeds the enumeration cap {size_cap}")
    if n_max < 1:
        return

    def emit(level):
        if not dedup:
            yield from level
            return
        seen = set()
        for q in level:
            key = q.canonical_form()
            if key not in seen:
                seen.add(key)
                yield q

    level = [FinitePoset(((True,),))]
    yield from emit(level)
    for size in range(2, n_max + 1):
        e = size - 1
        nxt = []
        for parent in level:
            lows = sorted(parent.iter_lower_sets(), key=lambda s: (len(s), sorted(s)))
            ups = sorted(parent.iter_upper_sets(), key=lambda s: (len(s), sorted(s)))
            for dset in lows:
                for uset in ups:
                    if dset & uset:
                        continue
                    if not all(dset <= parent.down(u) for u in uset):
                        continue
                    rows = [list(parent.matrix[i]) + [i in dset]
                            for i in range(e)]
                    rows.append([j in uset for j in range(e)] + [True])
                    nxt.append(FinitePoset(rows))
        level = nxt
        yield from emit(level)
