import functools
import itertools
import json
from types import SimpleNamespace

import pytest

from maxilat import (ContinuityReport, FinitePoset, IdealFamily,
                     MapError, PosetError, PosetProfile, SelectionError,
                     SelectionKind, Theorem54Verdict, build_selection,
                     classify, from_ideal_family, maxitivity_witness,
                     pointwise_inf, way_above)
from maxilat.catalog import antichain, chain, diamond, m3, n5, seven_element
from maxilat.harness import run_suite, summarize
from maxilat.io import map_to_dict, poset_to_dict
from maxilat.poset import _frozen


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


def oracle_indices(mask):
    """The indices set in mask, ascending, by peeling off the lowest set bit:
    the scan that the index table of the mask kernels replaced."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def oracle_union(masks, mask):
    out = 0
    for i in oracle_indices(mask):
        out |= masks[i]
    return out


def oracle_common(masks, mask, n):
    out = (1 << n) - 1
    for i in oracle_indices(mask):
        out &= masks[i]
    return out


def oracle_bounding_member(masks, mask):
    for m in oracle_indices(mask):
        if not mask & ~masks[m]:
            return m
    return None


def oracle_covers(p):
    """The pairs i < j with no k strictly between, by definition, with i
    and then j ascending."""
    return [(i, j) for i in range(p.n) for j in range(p.n)
            if i != j and p.leq(i, j)
            and not any(p.leq(i, k) and p.leq(k, j)
                        for k in range(p.n) if k not in (i, j))]


def oracle_lower_sets(p):
    """The lower sets of p as frozensets, in the order of the mask pass: the
    elements are taken in the order of the sums of 2^j over their principal
    ideals, and each is joined to every lower set listed before it that
    holds its strict down-set."""
    lows = [frozenset()]
    for x in sorted(range(p.n), key=lambda i: sum(2 ** j for j in p.down(i))):
        below = p.down(x) - {x}
        lows += [low | {x} for low in lows if below <= low]
    return lows


def oracle_upper_sets(p):
    """The complements of oracle_lower_sets, in the same order."""
    full = frozenset(range(p.n))
    return [full - low for low in oracle_lower_sets(p)]


def oracle_order_error(rows):
    """The PosetError text of the order axioms on a square matrix by the
    per-pair scan: for each i, reflexivity, then for each j above i,
    antisymmetry and the first k breaking transitivity; None if the matrix
    is a partial order."""
    n = len(rows)
    for i in range(n):
        if not rows[i][i]:
            return f"relation not reflexive at {i}"
        for j in range(n):
            if not rows[i][j]:
                continue
            if i != j and rows[j][i]:
                return f"relation not antisymmetric on ({i}, {j})"
            for k in range(n):
                if rows[j][k] and not rows[i][k]:
                    return f"relation not transitive: {i} <= {j} <= {k}"
    return None


def oracle_from_relation(n, pairs, labels=None):
    """FinitePoset.from_relation by Warshall's closure on a list of bool
    rows, the code the up-mask closure replaced: the relation matrix, or
    the PosetError text of an out-of-range pair or of the cycle through
    the first pair i < j related both ways."""
    rows = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            return f"pair ({i}, {j}) out of range for n={n}"
        rows[i][j] = True
    for k in range(n):
        for i in range(n):
            if rows[i][k]:
                for j in range(n):
                    if rows[k][j]:
                        rows[i][j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] and rows[j][i]:
                cycle = sorted(k for k in range(n) if rows[i][k] and rows[k][i])
                names = [labels[k] if labels else str(k) for k in cycle]
                return (f"relation not antisymmetric; cycle through "
                        f"{{{', '.join(names)}}}")
    return tuple(map(tuple, rows))


def oracle_canonical_form(p):
    """The relabeling-invariant key that canonical_form replaced: the least
    flattened relation matrix over all n! permutations."""
    n = p.n
    return n, min(tuple(p.leq(perm[i], perm[j])
                        for i in range(n) for j in range(n))
                  for perm in itertools.permutations(range(n)))


def oracle_enumerate_posets(n_max, dedup=False):
    """enumerate_posets by the frozenset loop that the mask growth replaced:
    the lower and upper sets of each parent sorted as frozensets, and each
    child built as a relation matrix.  With dedup, the first poset of each
    n! class in scan order: the representatives that the unlabeled claims
    used before enumerate_unlabeled_posets."""

    def emit(level):
        if not dedup:
            yield from level
            return
        seen = set()
        for q in level:
            key = oracle_canonical_form(q)
            if key not in seen:
                seen.add(key)
                yield q

    level = [FinitePoset(((True,),))]
    yield from emit(level)
    for size in range(2, n_max + 1):
        e = size - 1
        nxt = []
        for parent in level:
            lows = sorted(oracle_lower_sets(parent),
                          key=lambda s: (len(s), sorted(s)))
            ups = sorted(oracle_upper_sets(parent),
                         key=lambda s: (len(s), sorted(s)))
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


def oracle_enumerate_unlabeled_posets(n_max):
    """enumerate_unlabeled_posets by relation matrices: each representative
    grows a new maximal element over each of its lower sets, sorted as
    frozensets, and the first child of each n! key is kept."""
    level = [FinitePoset(((True,),))]
    yield from level
    for size in range(2, n_max + 1):
        e = size - 1
        seen = {}
        for parent in level:
            for dset in sorted(oracle_lower_sets(parent),
                               key=lambda s: (len(s), sorted(s))):
                rows = [list(parent.matrix[i]) + [i in dset]
                        for i in range(e)]
                rows.append([False] * e + [True])
                q = FinitePoset(rows)
                key = oracle_canonical_form(q)
                if key not in seen:
                    seen[key] = q
                    yield q
        level = list(seen.values())


def oracle_dm_completion(p):
    """The completion of dm_completion by its frozenset construction, as
    (relation matrix, labels, embedding)."""
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
    return rows, labels, tuple(index[p.down(x)] for x in range(n))


def oracle_ensure_complete_lattice(p):
    """The PosetError text of _ensure_complete_lattice by its pairwise
    sup_of/inf_of scan, None if p is a complete lattice."""
    if p.n == 0:
        return "a complete lattice must be nonempty"
    if p.top() is None or p.bottom() is None:
        return "poset lacks a top or a bottom"
    for i, j in itertools.combinations(range(p.n), 2):
        if p.sup_of((i, j)) is None or p.inf_of((i, j)) is None:
            return f"elements {i}, {j} lack a join or a meet"
    return None


def write_poset(p, path):
    """Write p as a poset document for the CLI."""
    path.write_text(json.dumps(poset_to_dict(p)))


def write_map(v, path):
    """Write v as a map document for the CLI."""
    path.write_text(json.dumps(map_to_dict(v)))


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
    for low in oracle_lower_sets(p):
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


def is_sup_map(v):
    """Complete maxitivity with the empty family included.

    The empty family's supremum is the bottom of the source, and its value
    join is the bottom of the target; a bottomed source therefore forces the
    bottom to land on a bottom.  This stronger variant is what the
    residuated/completely-maxitive equivalence needs.
    """
    b = v.source.bottom()
    return (maxitivity_witness(v) is None
            and (b is None or v.values[b] == v.target.bottom()))


def oracle_is_ideal(p, a):
    """Empty, or a lower set holding the supremum of each of its nonempty
    subsets that has one: the subset scan of the definition."""
    a = frozenset(a)
    if any(p.leq(y, x) and y not in a for x in a for y in range(p.n)):
        return False
    return all(sup in a for family, sup in oracle_sups(p)
               if set(family) <= a)


def delta(v, g, gs):
    """Iterated Choquet difference of the cone v at g along the list gs, by
    the recursion of its definition through the source's joins."""
    gs = tuple(gs)
    if not gs:
        return v.values[g]
    head, rest = gs[0], gs[1:]
    return delta(v, v._joins[g][head], rest) - delta(v, g, rest)


def oracle_cone_is_maxitive(v):
    """A cone map is maxitive iff each nonempty family with a supremum s in
    the source has its largest value at s."""
    return all(v.values[sup] == max(v.values[g] for g in family)
               for family, sup in oracle_sups(v.source))


def oracle_iter_monotone_values(e, l):
    """iter_monotone_values by the recursion of nested generators that the
    loop over a stack of candidate iterators replaced."""
    n = e.n
    up, down = l._upm, l._downm
    below = [[h for h in range(g) if e.leq(h, g)] for g in range(n)]
    above = [[h for h in range(g) if e.leq(g, h)] for g in range(n)]
    values = [0] * n

    def rec(g):
        if g == n:
            yield tuple(values)
            return
        allowed = (1 << l.n) - 1
        for h in below[g]:
            allowed &= up[values[h]]
        for h in above[g]:
            allowed &= down[values[h]]
        for t in range(l.n):
            if allowed >> t & 1:
                values[g] = t
                yield from rec(g + 1)

    yield from rec(0)


def oracle_cone_pairwise(v):
    """RationalConeMap.is_maxitive as it was: the pairwise law on every
    ordered pair (g, h), diagonal included."""
    return all(v._scaled[v._joins[g][h]] == max(v._scaled[g], v._scaled[h])
               for g in range(v.source.n) for h in range(v.source.n))


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
        members = oracle_upper_sets(level)
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
    """An order extension whose upper and lower trace masks are the whole
    base.

    Deliberately wrong: the star and lower-star extensions built on it no
    longer restrict to the map, so their invariant checks must fire.
    """

    def __init__(self, ext):
        self._ext = ext
        full = (1 << ext.base.n) - 1
        self._up_traces = self._down_traces = (full,) * ext.complete.n

    def __getattr__(self, name):
        return getattr(self._ext, name)


def up_in_base(ext, a):
    """The frozenset view of the up-trace mask of a: the base elements whose
    image lies above a (the paper's up-a meet E)."""
    return _frozen(ext._up_traces[a])


def down_in_base(ext, a):
    """The frozenset view of the down-trace mask of a: the base elements
    whose image lies below a."""
    return _frozen(ext._down_traces[a])


# -- order-extension oracles: the subset scan and the frozenset traces that
# OrderExtension's trace masks replaced -------------------------------------


def order_embeddings(base, big):
    """Every injective map of base into big that preserves and reflects the
    order, as a tuple of big's indices, in lexicographic order."""
    for embed in itertools.permutations(range(big.n), base.n):
        if all(base.leq(i, j) == big.leq(embed[i], embed[j])
               for i in range(base.n) for j in range(base.n)):
            yield embed


def oracle_order_extension(base, complete, embed):
    """The preservation checks of OrderExtension by the exhaustive scan:
    every nonempty subset of the base, sups first, then infs, in the order
    of the subsets' bitmasks.  Returns None, or ("supremum" or "infimum",
    the members) of the first subset whose bound in the base the embedding
    does not preserve."""
    for kind, bound in (("supremum", oracle_sup), ("infimum", oracle_inf)):
        for mask in range(1, 1 << base.n):
            members = [g for g in range(base.n) if mask >> g & 1]
            b = bound(base, members)
            if b is not None and bound(
                    complete, [embed[g] for g in members]) != embed[b]:
                return kind, members
    return None


def oracle_traces(ext):
    """The down-traces {g : e(g) <= a} and up-traces {g : a <= e(g)} of
    every completion element a, as frozensets, from the relation."""
    big, base = ext.complete, range(ext.base.n)
    down = [frozenset(g for g in base if big.leq(ext.embed[g], a))
            for a in range(big.n)]
    up = [frozenset(g for g in base if big.leq(a, ext.embed[g]))
          for a in range(big.n)]
    return down, up


def oracle_is_meet_continuous_over(ext):
    """is_meet_continuous_over by its definition: for every nonempty ideal I
    of the base and every x of the completion, x meet sup I is the sup of
    the images of the part of I below x (the bottom if that part is
    empty), each from sup_of/inf_of and big.leq one element at a time."""
    big = ext.complete
    for ideal in oracle_lower_sets(ext.base):
        if not ideal or not oracle_is_ideal(ext.base, ideal):
            continue
        s = big.sup_of([ext.embed[g] for g in ideal])
        for x in range(big.n):
            sub = [ext.embed[h] for h in ideal if big.leq(ext.embed[h], x)]
            rhs = big.sup_of(sub) if sub else big.bottom()
            if big.inf_of((x, s)) != rhs:
                return False
    return True


def oracle_is_residuated(v, ext):
    """Every sublevel set of v is the down-trace of some completion element."""
    down = oracle_traces(ext)[0]
    return all(level in down for level in oracle_sublevel_family(v))


def oracle_extend_star_values(v, ext, star, sel_l):
    """extend_star's values on the star elements by frozensets: the infimum
    of the upper closure of the values on each up-trace, the top for the
    empty set."""
    l, up = v.target, oracle_traces(ext)[1]
    values = []
    for a in star:
        image = l.upper_closure(v.values[g] for g in up[a])
        if image not in sel_l.fsets:
            raise MapError(f"value trace of {a} escapes the target selection")
        m = _inf_or_top(l, image)
        if m is None:
            raise MapError(f"value trace of {a} has no infimum")
        values.append(m)
    return tuple(values)


def oracle_e_lower_star(ext):
    """The completion elements whose meet with each image element lies in
    the image, by the definitional infimum."""
    big, image = ext.complete, ext.image()
    return frozenset(a for a in range(big.n)
                     if all(oracle_inf(big, (x, a)) in image
                            for x in ext.embed))


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
    arrow = from_ideal_family(IdealFamily(e, l, map(e._mask, family)),
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


# -- map-space oracles: the per-call generator, representation and frame
# routes that the per-space tables of MaxMapSpace replaced ------------------


def oracle_generator_values(space, gen):
    """The values of the map of the pair gen = (h, s), built from leq on
    every call."""
    h, s = gen
    top = space.target.top()
    if top is None:
        raise MapError("the target needs a top for generator maps")
    return tuple(s if space.source.leq(g, h) else top
                 for g in range(space.source.n))


def oracle_representation(space, values, sel_l=None):
    """The generator pairs of a map, by way_above on every call."""
    if sel_l is None:
        sel_l = build_selection(space.target, SelectionKind.FILTERED)
    rel = way_above(space.target, sel_l)
    return tuple((h, s) for h in range(space.source.n)
                 for s in range(space.target.n)
                 if rel.way_above(s, values[h]))


def oracle_reconstruction(space, gens):
    """The pointwise inf_of of the generators' maps, each built anew."""
    l = space.target
    columns = tuple(zip(*(oracle_generator_values(space, gen)
                          for gen in gens)))
    values = []
    for g in range(space.source.n):
        m = l.inf_of(frozenset(columns[g])) if columns else l.top()
        if m is None:
            raise MapError(f"generator infimum missing at {g}")
        values.append(m)
    return tuple(values)


def oracle_lemma_witnesses(space):
    """The witness lists of the generator, representation and corollary
    lemmas by the per-call routes, with way-above read off the order of
    oracle_space_poset."""
    poset = oracle_space_poset(space)
    above = [frozenset(poset.up(k)) for k in range(len(space))]
    found = {"generator": [], "representation": [], "corollary": []}
    floors = []
    for k, values in enumerate(space.maps):
        gens = oracle_representation(space, values)
        for h, s in gens:
            g = space.index.get(oracle_generator_values(space, (h, s)))
            if g not in above[k]:
                found["generator"].append(
                    {"map": list(values), "h": h, "s": s})
        floors.append(oracle_reconstruction(space, gens))
        if floors[k] != values:
            found["representation"].append({"map": list(values)})
    l = space.target
    for w, v in sorted(
            (w, v) for v, floor in enumerate(floors)
            for w, values in enumerate(space.maps)
            if all(map(l.leq, floor, values)) != (w in above[v])):
        found["corollary"].append({"w": list(space.maps[w]),
                                   "v": list(space.maps[v])})
    return found


def oracle_frame_violations(space):
    """The frame lemma's witnesses by the per-pair loop: both masks built
    with |E| ANDs for every pair, the arrow by looking up the target's
    tables for every pair, at the join-irreducibles and the bottom map
    first and over every pair when that finds a violation."""
    from maxilat import harness, mspace
    from maxilat.poset import _union, join_table
    l, e, maps = space.target, space.source, space.maps
    table = harness._admissible_table(l)
    valued_in = [[[_union(column, ts) for ts in row] for row in table]
                 for column in space.at_least]
    arrows, joins = mspace._heyting_table(l), join_table(l)
    order = mspace._lower_covers(e)

    def admissible(u, v):
        mask = (1 << len(space)) - 1
        for masks, r, s in zip(valued_in, maps[u], maps[v]):
            mask &= masks[r][s]
        return mask

    def arrow(u, v):
        values = [arrows[a][b] for a, b in zip(maps[u], maps[v])]
        for g, covers in order:
            for c in covers:
                values[g] = joins[values[g]][values[c]]
        return space.index_of(tuple(values))

    def at(u, v):
        try:
            a = arrow(u, v)
        except MapError as exc:
            return [{"u": u, "v": v, "error": str(exc)}]
        diff = admissible(u, v) ^ space.above(maps[a])
        return [{"u": u, "v": v, "w": w} for w in range(len(space))
                if diff >> w & 1]

    found = []
    broken = mspace._heyting_join_failure(l)
    if broken is None:
        generators = [space.index_of((l.bottom(),) * e.n),
                      *mspace.join_irreducibles(space)]
        if not any(at(u, v) for u in range(len(space)) for v in generators):
            return found
    else:
        r, s, t = broken
        found.append({"r": r, "s": s, "t": t,
                      "error": "heyting_arrow(r, -) does not preserve the "
                               "join of s and t"})
    for u in range(len(space)):
        for v in range(len(space)):
            found += [{k: x if k == "error" else list(maps[x])
                       for k, x in bad.items()} for bad in at(u, v)]
    return found


# -- map oracles: the scans and frozenset routes that the per-source tables
# of maxitive replaced ---------------------------------------------------------


def oracle_monotone_map(source, target, values):
    """MonotoneMap's checks by the scan of every pair g <= h, raising the
    same MapError texts; returns the values as a tuple."""
    values = tuple(values)
    if len(values) != source.n:
        raise MapError(f"expected {source.n} values, got {len(values)}")
    for t in values:
        if isinstance(t, bool) or not 0 <= t < target.n:
            raise MapError(f"value {t} out of range for the target poset")
    for g in range(source.n):
        for h in source.up(g):
            if not target.leq(values[g], values[h]):
                raise MapError(f"not order-preserving on ({g}, {h})")
    return values


def oracle_ideal_family(source, target, family):
    """IdealFamily's checks on frozensets, with the definitional ideal test
    and subset tests, raising the same MapError texts; returns the family
    as a tuple."""
    family = tuple(frozenset(i) for i in family)
    if len(family) != target.n:
        raise MapError("the family must index every target element")
    for t, ideal in enumerate(family):
        if not oracle_is_ideal(source, ideal):
            raise MapError(f"member at {t} is not an ideal of the source")
    for s in range(target.n):
        for t in target.up(s):
            if not family[s] <= family[t]:
                raise MapError(f"family decreases from {s} to {t}")
    return family


def members(fam):
    """The members of an IdealFamily as frozensets, read off its masks."""
    return tuple(map(_frozen, fam._masks))


def way_above_matrix(rel):
    """gg[y][x]: whether y is way-above x under the relation rel."""
    n = rel.poset.n
    return tuple(tuple(rel.way_above(y, x) for x in range(n))
                 for y in range(n))


def oracle_sublevel_family(v):
    """The sublevel sets {g : v(g) <= t} of a map, t in index order."""
    return tuple(frozenset(g for g in range(v.source.n)
                           if v.target.leq(v.values[g], t))
                 for t in range(v.target.n))


def oracle_from_ideal_family(fam, sel_l):
    """from_ideal_family's values by frozenset membership sets, looked up in
    fsets, with the infimum of the empty set the top."""
    if sel_l.poset != fam.target:
        raise MapError("selection was built on a different target poset")
    values = []
    for g in range(fam.source.n):
        ts = frozenset(t for t, member in enumerate(members(fam))
                       if g in member)
        if ts not in sel_l.fsets:
            raise MapError(f"membership set of {g} is not a selected set")
        m = _inf_or_top(fam.target, ts)
        if m is None:
            raise MapError(f"membership set of {g} has no infimum")
        values.append(m)
    return tuple(values)


def oracle_is_right_continuous(fam, rel):
    """Each member is the intersection of the members way-above it, read
    off rel.way_above as frozensets."""
    n, family = fam.target.n, members(fam)
    everything = frozenset(range(fam.source.n))
    for t in range(n):
        inter = everything
        for s in range(n):
            if rel.way_above(s, t):
                inter &= family[s]
        if inter != family[t]:
            return False
    return True


def oracle_alternating_witness(v, depth):
    """alternating_witness by the per-cone scan: every length's differences
    from the previous length's on the scaled ints, first negative signed
    difference by length, then gs, then g."""
    n = v.source.n
    level = {(): list(v._scaled)}
    joins = v._joins
    for length in range(1, depth + 1):
        sign = 1 if length % 2 == 1 else -1
        shorter, level = level, {}
        for gs in itertools.combinations_with_replacement(range(n), length):
            rest, joined = shorter[gs[1:]], joins[gs[0]]
            diffs = level[gs] = [rest[joined[g]] - rest[g] for g in range(n)]
            for g, x in enumerate(diffs):
                if sign * x < 0:
                    return g, gs
    return None


# -- symmetry orbits of maps -------------------------------------------------


def oracle_automorphisms(p):
    """The automorphisms of p by the scan of all n! permutations, as the set
    of tuples perm with perm[i] the image of i."""
    n = p.n
    return {perm for perm in itertools.permutations(range(n))
            if all(p.leq(i, j) == p.leq(perm[i], perm[j])
                   for i in range(n) for j in range(n))}


def automorphism_mismatches(posets):
    """The posets whose automorphisms differ from the n! scan, with the
    permutations found by one side only."""
    out = []
    for p in posets:
        found = set(p.automorphisms())
        expected = oracle_automorphisms(p)
        if found != expected:
            out.append((p, sorted(found ^ expected)))
    return out


def oracle_orbits(e, l, group):
    """The orbits of the monotone maps e -> l under the pairs (alpha, beta)
    of group, each as (its least tuple, its size), sorted: every image
    beta . v . alpha^-1 of every map, by brute force."""
    seen, out = set(), []
    for values in oracle_iter_monotone_values(e, l):
        if values in seen:
            continue
        orbit = set()
        for alpha, beta in group:
            image = [None] * e.n
            for g, t in enumerate(values):
                image[alpha[g]] = beta[t]
            orbit.add(tuple(image))
        seen |= orbit
        out.append((min(orbit), len(orbit)))
    return sorted(out)


def oracle_multichains(p, length):
    """The multichains x_1 <= ... <= x_length of the ideals of p, the subsets
    that pass oracle_is_ideal, counted by extending each one element at a
    time.  The maxitive maps into the k-chain are the multichains of length
    k - 1, by their sublevel sets below the top."""
    ideals = [a for r in range(p.n + 1)
              for a in map(frozenset, itertools.combinations(range(p.n), r))
              if oracle_is_ideal(p, a)]
    if not length:
        return 1
    # counts[k]: the multichains so far whose last member is ideals[k]
    counts = [1] * len(ideals)
    for _ in range(length - 1):
        counts = [sum(c for below, c in zip(ideals, counts) if below <= a)
                  for a in ideals]
    return sum(counts)


@functools.lru_cache(maxsize=256)
def _oracle_extension_facts(ext):
    """The parts of oracle_theorem_5_4 that depend on the extension alone:
    whether the base is a complete lattice, and whether the completion is
    meet-continuous, plainly and over the base."""
    return (oracle_classify(ext.base).is_complete_lattice,
            oracle_is_meet_continuous(ext.complete),
            oracle_is_meet_continuous_over(ext))


def oracle_theorem_5_4(v, ext):
    """theorem_5_4 from the definitions: residuation by the sublevel
    frozensets among the down-traces, complete maxitivity by the subset
    scan, the sup-map test of is_sup_map with that scan, the hypotheses
    from oracle_classify and the definition of meet-continuity over the
    base, and the forward hypothesis, e keeps the bottom, read off the
    completion's order."""
    e, big = v.source, ext.complete
    resid = oracle_is_residuated(v, ext)
    cmax = oracle_is_maxitive(v)
    b = e.bottom()
    sup_map = cmax and (b is None or v.values[b] == v.target.bottom())
    forward = b is None or all(big.leq(ext.embed[b], a)
                               for a in range(big.n))
    source_complete, mc_plain, mc_over = _oracle_extension_facts(ext)
    applicable = source_complete or mc_over
    return Theorem54Verdict(
        residuated=resid, completely_maxitive=cmax, sup_map=sup_map,
        source_complete=source_complete,
        completion_meet_continuous=mc_plain,
        completion_meet_continuous_over_base=mc_over,
        forward_applicable=forward,
        forward_holds=not forward or not resid or sup_map,
        converse_applicable=applicable,
        converse_holds=not applicable or not sup_map or resid)
