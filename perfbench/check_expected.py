"""Re-derive the numbers in expected.json that have a source independent of
the library, and check them against the file.

Run from the repository root (it needs ``tests/conftest.py`` for the
definitional oracles and does not import ``maxilat``'s algorithms):

    python3 perfbench/check_expected.py

Brute-forcing every relation on 5 points takes about ten seconds.
"""

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")]

from conftest import (brute_force_posets, oracle_inf, oracle_is_maxitive,  # noqa: E402
                      oracle_monotone_maps, oracle_sup)
from maxilat import FinitePoset, MonotoneMap  # noqa: E402  (containers only)


def canonical(rows):
    n = len(rows)
    return min(tuple(rows[p[i]][p[j]] for i in range(n) for j in range(n))
               for p in itertools.permutations(range(n)))


def pairwise(p, oracle):
    return all(oracle(p, (i, j)) is not None
               for i, j in itertools.combinations(range(p.n), 2))


def space_size(e_covers, e_n, l_covers, l_n):
    e = FinitePoset.from_relation(e_n, e_covers)
    l = FinitePoset.from_relation(l_n, l_covers)
    return sum(oracle_is_maxitive(MonotoneMap(e, l, values))
               for values in oracle_monotone_maps(e, l))


def derive():
    labeled = {n: [FinitePoset(r) for r in brute_force_posets(n)]
               for n in range(1, 6)}

    def upto(k):
        return [p for n in range(1, k + 1) for p in labeled[n]]

    def unlabeled(k):
        return list({canonical(p.matrix): p for p in upto(k)}.values())

    lattices5 = [p for p in upto(5)
                 if pairwise(p, oracle_sup) and pairwise(p, oracle_inf)]
    joins4 = [p for p in upto(4) if pairwise(p, oracle_sup)]
    complete3 = [p for p in unlabeled(3)
                 if pairwise(p, oracle_sup) and pairwise(p, oracle_inf)]
    return {
        "labeled_posets_le5": len(upto(5)),
        "labeled_lattices_le5": len(lattices5),
        "labeled_lattices_le3": sum(1 for p in lattices5 if p.n <= 3),
        "labeled_join_semilattices_le4": len(joins4),
        "unlabeled_posets_le4": len(unlabeled(4)),
        "unlabeled_posets_le3": len(unlabeled(3)),
        "unlabeled_complete_lattices_le3": len(complete3),
        "space_a5_c4": space_size([], 5, [(0, 1), (1, 2), (2, 3)], 4),
        "space_a3_c4": space_size([], 3, [(0, 1), (1, 2), (2, 3)], 4),
        "space_t3_c2": space_size([(0, 3), (1, 3), (2, 3)], 4, [(0, 1)], 2),
    }


def main():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["derived"]
    derived = derive()
    bad = 0
    for key, value in derived.items():
        ok = recorded.get(key) == value
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {key}: derived {value}, "
              f"recorded {recorded.get(key)}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
