"""Finite posets, their subsets, completions, classification and enumeration.

Elements are dense indices 0..n-1.  The data of a poset are int bitmasks
of each element's principal filter and ideal (bit i for element i); the
order axioms, bounds, sups, infs and the set tests run on them, and
both enumerators and `dm_completion` build their posets from them.  The
boolean relation matrix (for I/O, equality and `matrix`) and the
frozensets of `up` and `down` are views of the masks, shared between
posets.  Subsets passed to the public methods are range-checked as their
mask is built; the library's own masks are not checked again.
Everything here is immutable after construction and safe to share.

Two generators enumerate posets up to DEFAULT_ENUMERATION_CAP points:
`enumerate_posets` yields every labeled poset, and
`enumerate_unlabeled_posets` one poset per isomorphism class, grown by a
new maximal element and kept by `canonical_form`.

The kernels that walk the set bits of a mask (`_indices`, `_union`,
`_common`, `_bounding_member` and the transpose in `FinitePoset._set_order`)
read the ascending indices of a mask below 2^8 from the import-time table
`_BITS`, one tuple per mask: every mask over a poset of at most 8 elements.
Wider masks, of larger posets or of map spaces, fall back to `_indices`
peeling off the lowest set bit, in the same ascending order.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_ENUMERATION_CAP = 5
_CLOSURE_MEMO_CAP = 2048


class PosetError(ValueError):
    """Data fails the partial-order axioms or an indexing/size rule."""


def _bits(elems):
    """The bitmask of an iterable of indices, unchecked."""
    mask = 0
    for i in elems:
        mask |= 1 << i
    return mask


# the ascending indices of each mask below _BITS_LIMIT = 2^_BITS_WIDTH,
# doubled once per bit k: the masks from 2^k to 2^(k+1) - 1 are those below
# 2^k with k added
_BITS_WIDTH = 8
_BITS_LIMIT = 1 << _BITS_WIDTH
_BITS = ((),)
for _k in range(_BITS_WIDTH):
    _BITS += tuple(bits + (_k,) for bits in _BITS)
del _k


def _indices(mask):
    """The indices set in mask, ascending."""
    if mask < _BITS_LIMIT:
        return list(_BITS[mask])
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _size_then_indices(mask):
    """The sort key (size, sorted indices) of the subset mask."""
    return bin(mask).count("1"), _indices(mask)


def _ranks(keys):
    """Each key's rank among the distinct keys in ascending order."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


@lru_cache(maxsize=1024)
def _row(mask, n):
    """The relation-matrix row of the up-mask mask on n elements."""
    return tuple(bool(mask >> j & 1) for j in range(n))


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
    for i in _BITS[mask] if mask < _BITS_LIMIT else _indices(mask):
        out |= masks[i]
    return out


def _common(masks, mask, n):
    """The intersection of masks[i] over the i in mask, all n elements if
    mask is empty: its upper (lower) bounds."""
    out = (1 << n) - 1
    for i in _BITS[mask] if mask < _BITS_LIMIT else _indices(mask):
        out &= masks[i]
    return out


def _bounding_member(masks, mask):
    """The first member m of mask, in index order, with mask inside
    masks[m], or None: its least (greatest) element."""
    for m in _BITS[mask] if mask < _BITS_LIMIT else _indices(mask):
        if not mask & ~masks[m]:
            return m
    return None


class FinitePoset:
    """A partial order on {0, ..., n-1}.

    The public constructor takes the relation as an n x n boolean matrix;
    the library builds posets from up-masks with `_from_up_masks`.  Either
    way the up-masks are checked for reflexivity, antisymmetry and
    transitivity, the down-masks are their transpose, and the masks carry
    the bounds, sups and infs.  The matrix rows and the frozensets returned
    by `up` and `down` are derived from the masks and shared between posets.
    Optional labels name elements for I/O; they play no role in the order
    itself.
    """

    __slots__ = ("n", "_rows", "_upm", "_downm", "labels", "_label_index",
                 "_top", "_bottom", "_canon", "_hash")

    def __init__(self, leq, labels=None):
        rows = tuple(tuple(map(bool, row)) for row in leq)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise PosetError("relation matrix must be square")
        bits = [1 << i for i in range(n)]
        self._set_order(tuple(sum(itertools.compress(bits, row)) for row in rows),
                        labels)

    @classmethod
    def _from_up_masks(cls, up, labels=None):
        """The poset whose principal filters have the masks up, validated as
        the matrix constructor validates its rows."""
        p = cls.__new__(cls)
        p._set_order(tuple(up), labels)
        return p

    def _set_order(self, up, labels):
        """Derive the down-masks, by transposing, and the rows from the
        up-masks, and check the order axioms on the masks: up(i) must hold
        i, meet down(i) in i alone and hold the up-masks of its members.
        The per-pair scan runs only to name a violation."""
        n = len(up)
        down = [0] * n
        unclosed = 0
        for i, mask in enumerate(up):
            bit, reach = 1 << i, 0
            for j in _BITS[mask] if mask < _BITS_LIMIT else _indices(mask):
                down[j] |= bit
                reach |= up[j]
            if reach != mask:
                unclosed |= bit
        for i in range(n):
            if not up[i] >> i & 1:
                raise PosetError(f"relation not reflexive at {i}")
            if up[i] & down[i] == 1 << i and not unclosed >> i & 1:
                continue
            for j in _indices(up[i]):
                if i != j and up[j] >> i & 1:
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
        self._rows = tuple(_row(mask, n) for mask in up)
        self._upm = up
        self._downm = tuple(down)
        self.labels = labels
        self._label_index = None
        self._top = self._bottom = self._canon = self._hash = None

    # -- basic queries ----------------------------------------------------

    def leq(self, i, j):
        return self._rows[i][j]

    def up(self, i):
        """Principal filter of i (elements above i, inclusive)."""
        return _frozen(self._upm[i])

    def down(self, i):
        """Principal ideal of i (elements below i, inclusive)."""
        return _frozen(self._downm[i])

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

    def top(self):
        if self._top is None:
            self._top = (_bounding_member(self._downm, (1 << self.n) - 1),)
        return self._top[0]

    def bottom(self):
        if self._bottom is None:
            self._bottom = (_bounding_member(self._upm, (1 << self.n) - 1),)
        return self._bottom[0]

    # -- ideals -------------------------------------------------------------

    def _unclosed_family(self, mask):
        """The first mask meet down(x), over x outside the lower set mask in
        index order, whose supremum is x, as a mask; None if mask is closed
        under existing sups, an ideal.  A nonempty family in the lower set
        with supremum x outside it lies inside mask meet down(x), whose
        supremum is then x too.  x bounds that part, so it is its supremum
        iff every upper bound of the part lies above x."""
        up, down, n = self._upm, self._downm, self.n
        for x in range(n):
            if not mask >> x & 1:
                below = mask & down[x]
                if below and not _common(up, below, n) & ~up[x]:
                    return below
        return None

    def _lower_masks(self):
        """The masks of all lower sets, each exactly once: those of the rest
        without its last maximal element x, then down(x) joined to those of
        the rest outside down(x)."""
        down = self._downm
        strict_up = tuple(m & ~(1 << i) for i, m in enumerate(self._upm))

        def rec(allowed):
            if not allowed:
                return [0]
            for x in reversed(_BITS[allowed] if allowed < _BITS_LIMIT
                              else _indices(allowed)):
                if not strict_up[x] & allowed:
                    break
            dx = down[x] & allowed
            return (rec(allowed & ~(1 << x))
                    + [part | dx for part in rec(allowed & ~dx)])

        return rec((1 << self.n) - 1)

    # -- derived posets -----------------------------------------------------

    def restrict(self, elements):
        """Induced subposet on the given elements, reindexed in sorted order."""
        elems = _indices(self._mask(elements))
        rows = tuple(tuple(self._rows[i][j] for j in elems) for i in elems)
        labels = tuple(self.labels[i] for i in elems) if self.labels else None
        return FinitePoset(rows, labels)

    def dual(self):
        return FinitePoset._from_up_masks(self._downm, self.labels)

    def covers(self):
        """Covering pairs (i, j): i < j with nothing strictly between."""
        out = []
        for i in range(self.n):
            for j in _indices(self._upm[i]):
                if i == j:
                    continue
                if not self._upm[i] & self._downm[j] & ~(1 << i | 1 << j):
                    out.append((i, j))
        return out

    def _arrangements(self):
        """The element orders that canonical_form tries, each a list.

        Each element gets a colour: first the sizes of its strict down- and
        up-set, then, round by round, its colour with the sorted colours of
        the elements strictly below and strictly above it, each round's
        colours ranked by their sorted distinct values, until a round adds
        no class.  Twins, elements with equal strict down- and up-masks,
        share every colour.  An arrangement lists the classes by colour;
        within a class the twin groups stand in any order, and a group's
        members stand together in index order.
        """
        n = self.n
        strict = [(d & ~(1 << i), u & ~(1 << i))
                  for i, (d, u) in enumerate(zip(self._downm, self._upm))]
        below = [_indices(d) for d, _ in strict]
        above = [_indices(u) for _, u in strict]
        colour = _ranks([(len(b), len(a)) for b, a in zip(below, above)])
        classes = len(set(colour))
        while classes < n:
            refined = _ranks([(c, tuple(sorted([colour[j] for j in b])),
                               tuple(sorted([colour[j] for j in a])))
                              for c, b, a in zip(colour, below, above)])
            count = len(set(refined))
            if count == classes:
                break
            colour, classes = refined, count
        cells = [[] for _ in range(classes)]
        groups = {}
        for i, twin in enumerate(strict):
            group = groups.get(twin)
            if group is None:
                group = groups[twin] = []
                cells[colour[i]].append(group)
            group.append(i)
        for choice in itertools.product(*map(itertools.permutations, cells)):
            yield [i for cell in choice for group in cell for i in group]

    def canonical_form(self):
        """Relabeling-invariant key: (n, the up-masks of p relabeled by an
        arrangement, in arrangement order), least over `_arrangements`.

        The key is exact.  If two posets have equal keys, each is
        isomorphic to the poset the key spells, so they are isomorphic.
        Conversely let s be an isomorphism from p onto q.  The colours are
        computed from the order alone and ranked by value, so x in p and
        s(x) in q get the same colour, and s maps the twin groups of p onto
        those of q.  So s maps each arrangement of p to an order of q that
        lists its classes by colour with each twin group together, which
        becomes an arrangement of q once each group is put back in index
        order.  Exchanging two twins is an automorphism, so that reordering
        leaves the relabeled masks as they were.  Hence every key candidate
        of p is one of q, the same holds from q to p, and the least
        candidates agree.  Only one order among twins is tried, so the
        antichain and the chain each take one arrangement; the worst case is
        the product over the classes of the factorial of their number of
        twin groups.
        """
        if self._canon is None:
            up, best = self._upm, None
            for order in self._arrangements():
                pos = [0] * self.n
                for k, i in enumerate(order):
                    pos[i] = 1 << k
                key = tuple([_union(pos, up[i]) for i in order])
                if best is None or key < best:
                    best = key
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


@lru_cache(maxsize=256)
def _cover_pairs(p):
    """p.covers() as a tuple, computed once per poset."""
    return tuple(p.covers())


class _ClosureMemo(dict):
    """A poset's `_unclosed_family`, keyed by the mask of a lower set and
    filled lazily as lower sets are asked about; its keys are lower sets
    only.  It is emptied when it reaches _CLOSURE_MEMO_CAP entries, so no
    table of all lower sets is built (a 16-element antichain has 65,536 of
    them), and `_closure_memo` keeps the memos of at most 64 posets."""

    __slots__ = ("poset",)

    def __init__(self, p):
        super().__init__()
        self.poset = p

    def __missing__(self, mask):
        if len(self) >= _CLOSURE_MEMO_CAP:
            self.clear()
        family = self[mask] = self.poset._unclosed_family(mask)
        return family


@lru_cache(maxsize=64)
def _closure_memo(p):
    """The closure memo of p, shared by every map out of p."""
    return _ClosureMemo(p)


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
    joins, meets = _pair_tables(p)
    for i, j in itertools.combinations(range(p.n), 2):
        if joins[i][j] is None or meets[i][j] is None:
            raise PosetError(f"elements {i}, {j} lack a join or a meet")


@dataclass(frozen=True)
class OrderExtension:
    """An embedding e of a poset E into a complete lattice preserving the
    existing suprema and infima of nonempty subsets of the base.

    The traces of each completion element a on the base, the down-trace
    D_a = {g : e(g) <= a} and the up-trace U_a = {g : a <= e(g)}, are built
    once as bitmasks, `_down_traces` and `_up_traces`; the checks and the
    readers run on them.

    e preserves every existing sup iff each D_a is closed under existing
    sups, the test of `_unclosed_family`.  If e preserves them, a family F
    inside D_a with sup s has e(s) = sup e[F] <= a, so s is in D_a.
    Conversely, for a family F with sup s put a = sup e[F]: a <= e(s), as
    e(s) bounds e[F], and equality fails iff F lies inside D_a but s does
    not.  So a failure is named by the family D_a meet down(x) that the
    test finds, whose sup in the base is x.  Infima are the dual statement,
    on the up-traces and the dual of the base.
    """

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
        down, up = [0] * big.n, [0] * big.n
        for g, x in enumerate(embed):
            for a in _indices(big._upm[x]):
                down[a] |= 1 << g
            for a in _indices(big._downm[x]):
                up[a] |= 1 << g
        for i, x in enumerate(embed):
            wrong = up[x] ^ base._upm[i]
            if wrong:
                j = (wrong & -wrong).bit_length() - 1
                raise PosetError(f"embedding does not preserve order on ({i}, {j})")
        for trace in down:
            family = base._unclosed_family(trace)
            if family is not None:
                raise PosetError(f"supremum of {_indices(family)} not preserved")
        dual = base.dual()
        for trace in up:
            family = dual._unclosed_family(trace)
            if family is not None:
                raise PosetError(f"infimum of {_indices(family)} not preserved")
        object.__setattr__(self, "_down_traces", tuple(down))
        object.__setattr__(self, "_up_traces", tuple(up))

    def image(self):
        return frozenset(self.embed)

    def up_in_base(self, a):
        """Base elements whose image lies above a (the paper's up-a meet E)."""
        return _frozen(self._up_traces[a])

    def down_in_base(self, a):
        return _frozen(self._down_traces[a])


def dm_completion(p: FinitePoset) -> OrderExtension:
    """Dedekind-MacNeille completion of p with its canonical embedding.

    Cuts are computed as lower-bound sets of the intersection closure of the
    principal filters, which enumerates exactly the sets A with A = (A^u)^l.
    They are kept as masks, ordered by size and then by their elements, and
    the completion is built from the mask of the cuts containing each cut.
    """
    n, up, down = p.n, p._upm, p._downm
    full = (1 << n) - 1
    filters = {full}
    queue = [full]
    while queue:
        u = queue.pop()
        for m in up:
            u2 = u & m
            if u2 not in filters:
                filters.add(u2)
                queue.append(u2)
    ordered = sorted({_common(down, u, n) for u in filters},
                     key=_size_then_indices)
    index = {cut: k for k, cut in enumerate(ordered)}
    above = [_bits(k for k, b in enumerate(ordered) if not a & ~b)
             for a in ordered]
    labels = tuple("{" + ",".join(p.label_of(i) for i in _indices(c)) + "}"
                   for c in ordered)
    completion = FinitePoset._from_up_masks(above, labels)
    return OrderExtension(p, completion, tuple(index[m] for m in down))


def _check_enumeration_cap(n_max):
    """Refuse sizes above DEFAULT_ENUMERATION_CAP, read at call time."""
    if n_max > DEFAULT_ENUMERATION_CAP:
        raise PosetError(f"n_max={n_max} exceeds the enumeration cap "
                         f"{DEFAULT_ENUMERATION_CAP}")


def enumerate_posets(n_max):
    """Yield every labeled partial order on 1..n_max points, each exactly once.

    Posets of size k are grown from posets of size k-1 by attaching element
    k-1 with a chosen strict down-set D (a lower set) and strict up-set U (an
    upper set, disjoint from D, with D x U inside the existing order); every
    labeled poset arises from exactly one such triple.  D and U are taken
    in order of size, then of their sorted elements.  A child is built from
    masks: the parent's up-masks gain bit k-1 on D, and up(k-1) is U plus
    k-1.
    """
    _check_enumeration_cap(n_max)
    if n_max < 1:
        return
    level = [FinitePoset._from_up_masks((1,))]
    yield from level
    for size in range(2, n_max + 1):
        e = size - 1
        bit, full = 1 << e, (1 << e) - 1
        nxt = []
        for parent in level:
            pup, pdown = parent._upm, parent._downm
            lows = sorted(parent._lower_masks(), key=_size_then_indices)
            # the children with strict down-set dset: the parent's up-masks
            # gain e on dset, and up(e) is uset plus e
            grown = [(dset, tuple(m | bit if dset >> i & 1 else m
                                  for i, m in enumerate(pup)))
                     for dset in lows]
            # dset fits uset iff it misses uset and lies below all of uset
            fits = [(uset | bit, _common(pdown, uset, e) & ~uset)
                    for uset in sorted((full ^ low for low in lows),
                                       key=_size_then_indices)]
            for dset, up in grown:
                for up_e, below in fits:
                    if not dset & ~below:
                        nxt.append(FinitePoset._from_up_masks(up + (up_e,)))
        level = nxt
        yield from level


def enumerate_unlabeled_posets(n_max):
    """Yield one poset per isomorphism class on 1..n_max points, sizes in
    turn.

    The posets of size k are grown from the representatives of size k-1:
    each representative r gets a new maximal element k-1 over each lower
    set D of r, in order of size, then of their sorted elements (its
    up-masks gain bit k-1 on D, and up(k-1) is k-1 alone), and the first
    child of each `canonical_form` is yielded.

    No class is missed, by induction on k.  A poset q of size k has a
    maximal element x.  Removing x leaves a poset of size k-1, isomorphic
    by some s to a representative r, and the strict down-set of x is a
    lower set of it, so s maps it to a lower set D of r.  The child of r
    over D is isomorphic to q, by s extended with x -> k-1.  The key is
    exact, so no class is yielded twice.
    """
    _check_enumeration_cap(n_max)
    if n_max < 1:
        return
    level = [FinitePoset._from_up_masks((1,))]
    yield from level
    for size in range(2, n_max + 1):
        bit = 1 << (size - 1)
        nxt = {}
        for parent in level:
            pup = parent._upm
            for low in sorted(parent._lower_masks(),
                              key=_size_then_indices):
                q = FinitePoset._from_up_masks(
                    tuple(m | bit if low >> i & 1 else m
                          for i, m in enumerate(pup)) + (bit,))
                key = q.canonical_form()
                if key not in nxt:
                    nxt[key] = q
                    yield q
        level = list(nxt.values())
