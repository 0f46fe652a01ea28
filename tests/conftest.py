import functools
import itertools
from types import SimpleNamespace

import pytest

from maxilat import (ContinuityReport, FinitePoset, IdealFamily, MapError,
                     PosetError, PosetProfile, SelectionError, SelectionKind,
                     build_selection, classify, from_ideal_family,
                     pointwise_inf, way_above)
from maxilat.catalog import antichain, chain, diamond, m3, n5, seven_element
from maxilat.harness import run_suite, summarize


@pytest.fixture
def chain3():
    return chain(3)


@pytest.fixture
def two_antichain():
    return antichain(2)


@pytest.fixture
def b2():
    return diamond()


@pytest.fixture
def pentagon():
    return n5()


@pytest.fixture
def m3_lattice():
    return m3()


@pytest.fixture
def seven():
    return seven_element()


@pytest.fixture
def three_atoms_under_top():
    """The map space that is not a frame: E = three atoms a, b, c under a
    top t, L = the 2-chain.  The space has 5 maps and is shaped like M3.  At
    u = (1, 1, 0, 1), v = (1, 1, 1, 1) the admissible w have no least
    element, and m_arrow raises MapError."""
    source = FinitePoset.from_relation(4, [(0, 3), (1, 3), (2, 3)],
                                       ("a", "b", "c", "t"))
    return SimpleNamespace(source=source, target=chain(2),
                           u=(1, 1, 0, 1), v=(1, 1, 1, 1))


# -- test-local oracles, independent of the library internals ----------------


def brute_force_posets(n):
    """Every labeled partial order on n points, by filtering all relations."""
    out = []
    strict_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.product((False, True), repeat=len(strict_pairs)):
        rows = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), on in zip(strict_pairs, chosen):
            if on:
                rows[i][j] = True
        if _is_partial_order(rows):
            out.append(tuple(tuple(r) for r in rows))
    return out


def _is_partial_order(rows):
    n = len(rows)
    for i in range(n):
        if not rows[i][i]:
            return False
        for j in range(n):
            if i != j and rows[i][j] and rows[j][i]:
                return False
            for k in range(n):
                if rows[i][j] and rows[j][k] and not rows[i][k]:
                    return False
    return True


def oracle_sup(p, subset):
    """Least upper bound by definition: scan bounds, then scan for a least."""
    bounds = [u for u in range(p.n) if all(p.leq(x, u) for x in subset)]
    for m in bounds:
        if all(p.leq(m, u) for u in bounds):
            return m
    return None


def oracle_inf(p, subset):
    bounds = [u for u in range(p.n) if all(p.leq(u, x) for x in subset)]
    for m in bounds:
        if all(p.leq(u, m) for u in bounds):
            return m
    return None


@functools.lru_cache(maxsize=None)
def oracle_sups(p):
    """Every nonempty subset of p that has a supremum, with that supremum."""
    out = []
    for r in range(1, p.n + 1):
        for family in itertools.combinations(range(p.n), r):
            sup = oracle_sup(p, family)
            if sup is not None:
                out.append((family, sup))
    return tuple(out)


class FrozensetBounds:
    """The frozenset implementations that the bitmask core of FinitePoset
    replaced, kept as oracles: each method takes a frozenset of indices."""

    def __init__(self, p):
        self.p = p
        self.full = frozenset(range(p.n))

    def upper_bounds(self, a):
        bounds = self.full
        for i in a:
            bounds &= self.p.up(i)
        return bounds

    def lower_bounds(self, a):
        bounds = self.full
        for i in a:
            bounds &= self.p.down(i)
        return bounds

    def least(self, a):
        for m in a:
            if a <= self.p.up(m):
                return m
        return None

    def greatest(self, a):
        for m in a:
            if a <= self.p.down(m):
                return m
        return None

    def sup_of(self, a):
        return self.least(self.upper_bounds(a))

    def inf_of(self, a):
        return self.greatest(self.lower_bounds(a))

    def is_upper_set(self, a):
        return all(self.p.up(i) <= a for i in a)

    def is_lower_set(self, a):
        return all(self.p.down(i) <= a for i in a)

    def unclosed_family(self, a):
        """The first a meet down(x), x outside a, whose supremum is x."""
        for x in range(self.p.n):
            if x not in a:
                below = a & self.p.down(x)
                if below and self.sup_of(below) == x:
                    return below
        return None


def oracle_classify(p):
    """classify by pairwise sup_of/inf_of and a scan of both distributive
    laws, the implementation that the shared join/meet tables replaced."""
    n = p.n
    pairs = list(itertools.combinations(range(n), 2))
    join = {}
    meet = {}
    is_join = True
    is_meet = True
    for i, j in pairs:
        join[i, j] = p.sup_of((i, j))
        meet[i, j] = p.inf_of((i, j))
        if join[i, j] is None:
            is_join = False
        if meet[i, j] is None:
            is_meet = False
    is_lattice = is_join and is_meet
    is_complete = (is_lattice and n > 0
                   and p.top() is not None and p.bottom() is not None)

    def jn(i, j):
        return i if i == j else join[min(i, j), max(i, j)]

    def mt(i, j):
        return i if i == j else meet[min(i, j), max(i, j)]

    is_distributive = is_lattice
    if is_lattice:
        for x, y, z in itertools.product(range(n), repeat=3):
            if mt(x, jn(y, z)) != jn(mt(x, y), mt(x, z)):
                is_distributive = False
                break
            if jn(x, mt(y, z)) != mt(jn(x, y), jn(x, z)):
                is_distributive = False
                break
    return PosetProfile(is_join, is_meet, is_lattice, is_complete,
                        is_distributive, is_lattice)


def oracle_lower_sets(p):
    """The lower sets of p by the frozenset recursion that the mask
    recursion replaced, in the order it yields them."""
    strict_up = tuple(p.up(i) - {i} for i in range(p.n))

    def rec(allowed):
        if not allowed:
            yield frozenset()
            return
        x = max(i for i in allowed if not (strict_up[i] & allowed))
        yield from rec(allowed - {x})
        dx = p.down(x) & allowed
        for part in rec(allowed - dx):
            yield part | dx

    return list(rec(frozenset(range(p.n))))


def buffered_harness_payload(claim, **bounds):
    """The `harness run --out` document as it was built before streaming:
    every record collected first, then one dict."""
    records = list(run_suite(claim, **bounds))
    return {"claim": claim, "summary": summarize(records),
            "records": [r.to_dict() for r in records]}


def oracle_is_meet_continuous(p):
    """Meet-continuity by its definition, False off lattices: for every ideal
    I (a nonempty lower set closed under binary joins) and every x, the part
    of I below x has supremum x meet sup I."""
    pairs = list(itertools.combinations(range(p.n), 2))
    if any(oracle_sup(p, pair) is None or oracle_inf(p, pair) is None
           for pair in pairs):
        return False
    for low in p.iter_lower_sets():
        if not low or any(oracle_sup(p, pair) not in low
                          for pair in itertools.combinations(sorted(low), 2)):
            continue
        s = oracle_sup(p, low)
        for x in range(p.n):
            below = [y for y in low if p.leq(y, x)]
            rhs = oracle_sup(p, below) if below else None
            if oracle_inf(p, (x, s)) != rhs:
                return False
    return True


def oracle_is_maxitive(v):
    """Direct quantifier over nonempty subsets, written against definitions."""
    for family, sup in oracle_sups(v.source):
        value_join = oracle_sup(v.target, set(v.values[g] for g in family))
        if value_join is None or value_join != v.values[sup]:
            return False
    return True


def oracle_is_ideal(p, a):
    """Empty, or a lower set holding the supremum of each of its nonempty
    subsets that has one: the subset scan of the definition."""
    a = frozenset(a)
    if any(p.leq(y, x) and y not in a for x in a for y in range(p.n)):
        return False
    return all(sup in a for family, sup in oracle_sups(p)
               if set(family) <= a)


def oracle_cone_is_maxitive(v):
    """A cone map is maxitive iff each nonempty family with a supremum s in
    the source has its largest value at s."""
    return all(v.values[sup] == max(v.values[g] for g in family)
               for family, sup in oracle_sups(v.source))


def oracle_monotone_maps(e, l):
    for values in itertools.product(range(l.n), repeat=e.n):
        if all(l.leq(values[g], values[h])
               for g in range(e.n) for h in range(e.n) if e.leq(g, h)):
            yield values


def oracle_filtered_sets(p):
    """Nonempty upper sets in which every two members have a common lower
    bound inside the set: the filtered selection, by its definition."""
    out = set()
    for r in range(1, p.n + 1):
        for subset in itertools.combinations(range(p.n), r):
            s = frozenset(subset)
            if (all(y in s for x in s for y in range(p.n) if p.leq(x, y))
                    and all(any(p.leq(z, x) and p.leq(z, y) for z in s)
                            for x in s for y in s)):
                out.add(s)
    return out


def _sorted_sets(sets):
    return sorted(sets, key=lambda f: (len(f), sorted(f)))


def _inf_or_top(p, subset):
    return p.inf_of(subset) if subset else p.top()


def oracle_is_union_complete(sel):
    """Union-completeness by enumeration: order the selected sets by reverse
    inclusion, select one level up with the same kind (the recursion kind
    for explicit selections), and require every member's union to be
    selected.  Finite codirected upper sets are principal, so the filtered
    kind one level up is its principal filters."""
    fsets = _sorted_sets(sel.fsets)
    level = FinitePoset(tuple(tuple(a >= b for b in fsets) for a in fsets))
    kind = sel.recursion_kind if sel.kind is SelectionKind.EXPLICIT else sel.kind
    if kind is SelectionKind.UPPER:
        members = level.iter_upper_sets()
    else:
        members = (level.up(i) for i in range(level.n))
    return all(frozenset().union(*(fsets[i] for i in v)) in sel.fsets
               for v in members)


def oracle_way_above(p, sel):
    """gg[y][x]: every selected set whose infimum is below x contains y."""
    constraints = [(m, f) for f in _sorted_sets(sel.fsets)
                   for m in (_inf_or_top(p, f),) if m is not None]
    columns = []
    for x in range(p.n):
        allowed = frozenset(range(p.n))
        for m, f in constraints:
            if p.leq(m, x):
                allowed &= f
        columns.append(allowed)
    return tuple(tuple(y in columns[x] for x in range(p.n))
                 for y in range(p.n))


def oracle_continuity_report(p, sel):
    """Continuity, domain and interpolation on the frozenset relation."""
    gg = oracle_way_above(p, sel)
    failures = []
    for x in range(p.n):
        above = frozenset(y for y in range(p.n) if gg[y][x])
        if above not in sel.fsets or _inf_or_top(p, above) != x:
            failures.append(x)
    missing = tuple(tuple(sorted(f)) for f in _sorted_sets(sel.fsets)
                    if _inf_or_top(p, f) is None)
    interpolation = tuple((y, x) for x in range(p.n) for y in range(p.n)
                          if gg[y][x] and not any(gg[y][z] and gg[z][x]
                                                  for z in range(p.n)))
    return ContinuityReport(
        is_continuous=not failures,
        is_domain=not failures and not missing,
        has_interpolation=not interpolation,
        continuity_failures=tuple(failures),
        missing_infima=missing,
        interpolation_failures=interpolation,
    )


class WholeBaseTraces:
    """An order extension whose upper and lower traces are the whole base.

    Deliberately wrong: the star and lower-star extensions built on it no
    longer restrict to the map, so their invariant checks must fire.
    """

    def __init__(self, ext):
        self._ext = ext

    def __getattr__(self, name):
        return getattr(self._ext, name)

    def up_in_base(self, a):
        return frozenset(range(self._ext.base.n))

    def down_in_base(self, a):
        return frozenset(range(self._ext.base.n))


# -- map-space oracles: the poset and selection route that the pointwise
# masks of MaxMapSpace replaced ----------------------------------------------


@functools.lru_cache(maxsize=16)
def oracle_space_poset(space):
    """The space's pointwise order as a FinitePoset on its map indices,
    labeled by value tuples."""
    target, n = space.target, space.source.n
    rows = tuple(tuple(all(target.leq(a[g], b[g]) for g in range(n))
                       for b in space.maps) for a in space.maps)
    labels = tuple("(" + ",".join(target.label_of(t) for t in m) + ")"
                   for m in space.maps)
    return FinitePoset(rows, labels)


def oracle_way_above_in_space(space):
    """Way-above on the space's poset under the filtered selection."""
    poset = oracle_space_poset(space)
    return way_above(poset, build_selection(poset, SelectionKind.FILTERED))


def oracle_pointwise_inf(space, family, sel):
    """pointwise_inf of a family that must be a nonempty selected set of sel,
    a selection on the space's poset."""
    family = frozenset(family)
    if sel.poset != oracle_space_poset(space):
        raise SelectionError("selection was built on a different space")
    if not family:
        raise SelectionError("the empty family has no pointwise infimum here")
    if family not in sel.fsets:
        raise SelectionError("family is not a selected set of the space")
    return pointwise_inf(space, family)


def oracle_m_arrow(space, u, v):
    """The residuation u <- v through the sublevel-ideal family whose member
    at t collects the g with v(h) <= u(h) join t for every h below g,
    evaluated by from_ideal_family under the principal selection of the
    target; MapError when the family or its map leaves the space."""
    e, l = space.source, space.target
    if not classify(l).is_distributive:
        raise PosetError("the target must be distributive")
    uvals, vvals = space.maps[u], space.maps[v]
    family = []
    for t in range(l.n):
        fits = frozenset(h for h in range(e.n)
                         if l.leq(vvals[h], l.sup_of((uvals[h], t))))
        family.append(frozenset(g for g in range(e.n) if e.down(g) <= fits))
    arrow = from_ideal_family(IdealFamily(e, l, tuple(family)),
                              build_selection(l, SelectionKind.PRINCIPAL))
    space.index_of(arrow.values)
    return arrow


def oracle_adjunction_violations(poset, join, arrow):
    """The N^3 scan of the frame adjunction on a poset: each (u, v, w) at
    which v <= u join w and arrow(u, v) <= w disagree, with a MapError from
    the arrow as a violation at (u, v)."""
    for u in range(poset.n):
        for v in range(poset.n):
            try:
                a = arrow(u, v)
            except MapError as exc:
                yield {"u": u, "v": v, "error": str(exc)}
                continue
            for w in range(poset.n):
                if poset.leq(v, join(u, w)) != poset.leq(a, w):
                    yield {"u": u, "v": v, "w": w}
