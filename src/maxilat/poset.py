"""Finite posets, their subsets, completions, classification and enumeration.

Elements are dense indices 0..n-1.  The data of a poset are int bitmasks
of each element's principal filter and ideal (bit i for element i); the
order axioms, bounds, sups, infs and the set tests run on them, and
every constructor but the public matrix one builds its poset from them.
Equality and hashing compare the up-masks and labels; the boolean
relation matrix of `matrix` is built from the up-masks on request, and
the frozensets of `up` and `down` are views of the masks, shared between
posets.  Subsets passed to the public methods are range-checked as their
mask is built; the library's own masks are not checked again.
Everything here is immutable after construction and safe to share.

Two generators enumerate posets up to DEFAULT_ENUMERATION_CAP points:
`enumerate_posets` yields every labeled poset, and
`enumerate_unlabeled_posets` one poset per isomorphism class, grown by a
new maximal element and kept by `canonical_form`.  Both grow each size
from the posets of the size before, hold that one level of parents, and
yield the posets of the largest size as they are built.

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

    The up-masks are the order: bit j of `_upm[i]` is set iff i <= j.  The
    public constructor reads the rows of an n x n boolean matrix as
    up-masks; `from_relation`, `chain`, `antichain`, `restrict` and the
    rest of the library build up-masks for `_from_up_masks`.  Either way
    they are checked for reflexivity, antisymmetry and transitivity; only
    the generators build their children unchecked, by `_from_masks`.  The
    down-masks are the transpose of the up-masks, and the masks carry the
    bounds, sups and infs.  Equality and hashing compare the up-masks and
    labels; `matrix` is built on request, and the frozensets returned by
    `up` and `down` are shared between posets.
    Optional labels name elements for I/O; they play no role in the order
    itself.
    """

    __slots__ = ("n", "_upm", "_downm", "labels", "_label_index",
                 "_top", "_bottom", "_canon", "_aut", "_hash")

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

    @classmethod
    def _from_masks(cls, up, down):
        """The unlabeled poset with the up-mask tuple up and its transpose,
        the down-mask tuple down, unchecked.  Only the generators call it,
        on children whose order their docstrings prove."""
        p = cls.__new__(cls)
        p._assign(up, down, None)
        return p

    def _set_order(self, up, labels):
        """Derive the down-masks, by transposing the up-masks, and check the
        order axioms on the masks: up(i) must meet down(i) in exactly i
        (reflexivity and antisymmetry) and hold the up-masks of its members
        (transitivity).  The per-pair scan runs only at the elements that
        fail, in index order, to name the first violation."""
        n = len(up)
        down = [0] * n
        flagged = 0
        for i, mask in enumerate(up):
            bit, reach = 1 << i, 0
            for j in _BITS[mask] if mask < _BITS_LIMIT else _indices(mask):
                down[j] |= bit
                reach |= up[j]
            if reach != mask:
                flagged |= bit
        for i, mask in enumerate(up):
            if mask & down[i] != 1 << i:
                flagged |= 1 << i
        for i in _indices(flagged):
            if not up[i] >> i & 1:
                raise PosetError(f"relation not reflexive at {i}")
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
        self._assign(up, tuple(down), labels)

    def _assign(self, up, down, labels):
        """Store the mask tuples and labels, with every cache empty."""
        self.n = len(up)
        self._upm = up
        self._downm = down
        self.labels = labels
        self._label_index = None
        self._top = self._bottom = self._canon = self._aut = self._hash = None

    # -- basic queries ----------------------------------------------------

    def leq(self, i, j):
        """Whether i <= j; IndexError for an index outside 0..n-1."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"element pair ({i}, {j}) out of range")
        return bool(self._upm[i] >> j & 1)

    def up(self, i):
        """Principal filter of i (elements above i, inclusive)."""
        return _frozen(self._upm[i])

    def down(self, i):
        """Principal ideal of i (elements below i, inclusive)."""
        return _frozen(self._downm[i])

    @property
    def matrix(self):
        """The relation as a tuple of n rows of bools, row i holding i <= j.
        The library does not read it; perfbench/check_expected.py does."""
        n = self.n
        return tuple(tuple(bool(mask >> j & 1) for j in range(n))
                     for mask in self._upm)

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

    # -- bounds -------------------------------------------------------------

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
        """The masks of all lower sets, each exactly once, in one pass over
        a linear extension: the elements in the order of their down-masks
        as integers, which extends the order, as a proper subset has the
        smaller mask.  After element x the list holds every lower set inside
        the elements taken so far: those before it, which miss x, then x
        joined to each of them that holds x's strict down-set, in their
        order.  So a lower set comes after every lower set inside it, and
        the empty set comes first."""
        down = self._downm
        lows = [0]
        for x in sorted(range(self.n), key=down.__getitem__):
            bit = 1 << x
            below = down[x] ^ bit
            lows += [low | bit for low in lows if not below & ~low]
        return lows

    # -- derived posets -----------------------------------------------------

    def restrict(self, elements):
        """Induced subposet on the given elements, reindexed in sorted order."""
        elems = _indices(self._mask(elements))
        up = [_bits(k for k, j in enumerate(elems) if self._upm[i] >> j & 1)
              for i in elems]
        labels = tuple(self.labels[i] for i in elems) if self.labels else None
        return FinitePoset._from_up_masks(up, labels)

    def dual(self):
        return FinitePoset._from_up_masks(self._downm, self.labels)

    def covers(self):
        """Covering pairs (i, j): i < j with nothing strictly between, the
        minimal elements j of the strict up-set of i, both ascending."""
        down, out = self._downm, []
        for i, mask in enumerate(self._upm):
            above = mask ^ 1 << i
            for j in _BITS[above] if above < _BITS_LIMIT else _indices(above):
                if down[j] & above == 1 << j:
                    out.append((i, j))
        return out

    def _colours(self):
        """Each element's colour, a rank from 0, with the number of colours
        and each element's (strict down-mask, strict up-mask).

        The colour is first the sizes of the strict down- and up-set, then,
        round by round, the colour with the sorted colours of the elements
        strictly below and strictly above, each round's colours ranked by
        their sorted distinct values, until a round adds no class.  It is
        computed from the order alone, so an isomorphism keeps it.
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
        return colour, classes, strict

    def _arrangements(self):
        """The element orders that canonical_form tries, each a list.

        Twins, elements with equal strict down- and up-masks, share every
        colour of `_colours`.  An arrangement lists the classes by colour;
        within a class the twin groups stand in any order, and a group's
        members stand together in index order.
        """
        colour, classes, strict = self._colours()
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

    def automorphisms(self):
        """The automorphism group, as a tuple of permutations, each a tuple
        with entry i the image of i, identity first; computed once per
        poset.

        An automorphism keeps every colour of `_colours`, so the search
        tries only the permutations within each colour class, and keeps
        those that map each principal filter onto the principal filter of
        the image.  The scan of all n! permutations is the test oracle.
        """
        if self._aut is None:
            n, up = self.n, self._upm
            colour, classes, _ = self._colours()
            cells = [[i for i in range(n) if colour[i] == c]
                     for c in range(classes)]
            found = []
            perm, pos = [0] * n, [0] * n
            for images in itertools.product(*map(itertools.permutations,
                                                 cells)):
                for cell, image in zip(cells, images):
                    for i, j in zip(cell, image):
                        perm[i], pos[i] = j, 1 << j
                if all(_union(pos, up[i]) == up[perm[i]] for i in range(n)):
                    found.append(tuple(perm))
            self._aut = tuple(found)
        return self._aut

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_relation(cls, n, pairs, labels=None):
        """Reflexive-transitive closure of the given pairs, on up-masks in
        Warshall's order, then validation."""
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise PosetError(f"pair ({i}, {j}) out of range for n={n}")
            up[i] |= 1 << j
        if labels is not None and len(labels) != n:
            raise PosetError(f"expected {n} labels, got {len(labels)}")
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        for i in range(n):
            cycle = [k for k in _indices(up[i]) if up[k] >> i & 1]
            if len(cycle) > 1:
                names = [labels[k] if labels else str(k) for k in cycle]
                raise PosetError(f"relation not antisymmetric; cycle through "
                                 f"{{{', '.join(names)}}}")
        return cls._from_up_masks(up, labels)

    @classmethod
    def chain(cls, n, labels=None):
        full = (1 << n) - 1
        return cls._from_up_masks([full >> i << i for i in range(n)], labels)

    @classmethod
    def antichain(cls, n, labels=None):
        return cls._from_up_masks([1 << i for i in range(n)], labels)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self._upm == other._upm and self.labels == other.labels

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._upm, self.labels))
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


def _levels(n_max, grow):
    """The posets of sizes 1 to n_max, size by size: the one-point poset,
    then grow(level) of the list of each size's posets, in turn.  Only one
    level is held, as the parents of the next: the posets of size n_max are
    yielded as they are built and are not kept."""
    _check_enumeration_cap(n_max)
    if n_max < 1:
        return
    level = [FinitePoset._from_up_masks((1,))]
    yield from level
    for size in range(2, n_max + 1):
        keep = size < n_max
        nxt = []
        for child in grow(level):
            if keep:
                nxt.append(child)
            yield child
        level = nxt


def _labeled_children(level):
    """Every child of each parent in level, the parents in turn: the parent
    of size e with a new element e over a strict down-set D below a strict
    up-set U, both in order of size, then of their sorted elements, D in the
    outer loop.

    The child's up-masks are the parent's, with bit e added on D, and
    up(e) = U + e; its down-masks are the parent's, with bit e added on U,
    and down(e) = D + e.  The up-masks are built once per D and the
    down-masks once per U.  The pair fits when D is a lower set, U an upper
    set, and D lies below every element of U and misses U (the lower bounds
    of U outside U); the child is then an order, and it is built unchecked.
    With the parent an order, by induction from the one-point poset:
    reflexivity holds at e, and antisymmetry, since i <= e <= i would put i
    in both D and U.  Transitivity through e: i <= j <= e puts j, so i, in
    the lower set D; e <= i <= j puts i, so j, in the upper set U; and
    i <= e <= j has i in D and j in U, so i <= j.  The down-masks are the
    transpose of the up-masks by construction.
    """
    for parent in level:
        e = parent.n
        bit, full = 1 << e, (1 << e) - 1
        pup, pdown = parent._upm, parent._downm
        lows = sorted(parent._lower_masks(), key=_size_then_indices)
        fits = [(uset | bit, _common(pdown, uset, e) & ~uset,
                 tuple([m | bit if uset >> i & 1 else m
                        for i, m in enumerate(pdown)]))
                for uset in sorted((full ^ low for low in lows),
                                   key=_size_then_indices)]
        for dset in lows:
            up = tuple([m | bit if dset >> i & 1 else m
                        for i, m in enumerate(pup)])
            down_e = dset | bit
            for up_e, below, down in fits:
                if not dset & ~below:
                    yield FinitePoset._from_masks(up + (up_e,),
                                                  down + (down_e,))


def enumerate_posets(n_max):
    """Yield every labeled partial order on 1..n_max points, each exactly
    once, sizes in turn.

    Posets of size k are grown from posets of size k-1 by attaching element
    k-1 with a chosen strict down-set D (a lower set) and strict up-set U (an
    upper set, disjoint from D, with D x U inside the existing order); every
    labeled poset arises from exactly one such triple.  `_labeled_children`
    builds each child from its parent's masks and proves it an order.  One
    level of parents is held at a time, and the posets of size n_max are
    yielded as they are built: 219 parents, not the 4,231 posets of size
    5, are held while the last level streams.
    """
    return _levels(n_max, _labeled_children)


def _unlabeled_children(level):
    """The first child of each `canonical_form` among the children of the
    representatives in level, in turn: each representative r of size e gets
    a new maximal element e over each lower set D of r, in order of size,
    then of their sorted elements.  r's up-masks gain bit e on D and
    up(e) = {e}; r's down-masks are kept and down(e) = D + e.  This is the
    child of `_labeled_children` with U empty, so it is an order.  Of the
    children it holds only the keys seen so far."""
    seen = set()
    for parent in level:
        e = parent.n
        bit = 1 << e
        pup, down = parent._upm, parent._downm
        for low in sorted(parent._lower_masks(), key=_size_then_indices):
            q = FinitePoset._from_masks(
                tuple([m | bit if low >> i & 1 else m
                       for i, m in enumerate(pup)]) + (bit,),
                down + (low | bit,))
            key = q.canonical_form()
            if key not in seen:
                seen.add(key)
                yield q


def enumerate_unlabeled_posets(n_max):
    """Yield one poset per isomorphism class on 1..n_max points, sizes in
    turn.

    The posets of size k are the first child of each class among the
    children of the representatives of size k-1 (`_unlabeled_children`),
    each grown by a new maximal element.  The representatives of one size
    are held as parents, and the canonical keys of the size being built;
    the posets of size n_max are yielded as they are built.

    No class is missed, by induction on k.  A poset q of size k has a
    maximal element x.  Removing x leaves a poset of size k-1, isomorphic
    by some s to a representative r, and the strict down-set of x is a
    lower set of it, so s maps it to a lower set D of r.  The child of r
    over D is isomorphic to q, by s extended with x -> k-1.  The key is
    exact, so no class is yielded twice.
    """
    return _levels(n_max, _unlabeled_children)
