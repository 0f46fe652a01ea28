"""The benchmark's three workloads: fixed lists of ``maxilat`` CLI operations.

Each operation has a stable id (the key into ``expected.json``) and an argv
template.  ``{name}`` refers to an input poset written by ``write_inputs``;
``{out}`` stays in the argv and is replaced by a fresh ``--out`` path on each
pass.  The claim suites are exhaustive,
so the seed cannot change what they enumerate: it renames the elements of
every ``mspace`` input poset and shuffles the order of the operations.  See
README.md for why each workload exists.
"""

import json
import os
import random

# Input posets of the ``mspace`` operations as (elements, covering pairs).
POSETS = {
    "a5": (5, []),                                # antichain of 5
    "a3": (3, []),                                # antichain of 3
    "c4": (4, [(0, 1), (1, 2), (2, 3)]),          # 4-chain
    "c2": (2, [(0, 1)]),                          # 2-chain
    "t3": (4, [(0, 3), (1, 3), (2, 3)]),          # three atoms under a top
}

WORKLOADS = {
    "poset-sweep": [
        ("interpolation",
         "harness run interpolation --max-size 5 --out {out}"),
        ("singleton-collapse",
         "harness run singleton-collapse --max-size 5 --out {out}"),
        ("supercontinuity-distributivity",
         "harness run supercontinuity-distributivity --max-size 5 --out {out}"),
    ],
    "map-sweep": [
        ("ideal-round-trip",
         "harness run ideal-round-trip --max-size 4 --out {out}"),
        ("thm-5-4", "harness run thm-5-4 --max-size 4 --out {out}"),
        ("extension-extremality",
         "harness run extension-extremality --max-size 4 --out {out}"),
        ("alternating",
         "harness run alternating --max-size 4 --depth 4 --out {out}"),
    ],
    "map-space": [
        ("frame-adjunction",
         "harness run frame-adjunction --max-size 3 --out {out}"),
        ("representation",
         "harness run representation --max-size 3 --out {out}"),
        ("build-a5-c4", "mspace build {a5} {c4} --out {out}"),
        ("frame-a3-c4", "mspace verify {a3} {c4} --lemma frame --out {out}"),
        ("corollary-a3-c4",
         "mspace verify {a3} {c4} --lemma corollary --out {out}"),
        ("frame-t3-c2", "mspace verify {t3} {c2} --lemma frame --out {out}"),
    ],
}


def relabeled_poset(n, covers, rng):
    """A poset document for the given order with random element names and
    covering pairs in random order.

    The elements stay listed in their fixed order, so their indices do not
    change with the seed: the cost of ``mspace verify --lemma corollary``
    depends on that order (4 s with the 4-chain listed bottom first, 30 s
    with one shuffled order), and a seed must not change the work measured.
    """
    names = [f"x{k}" for k in rng.sample(range(100), n)]
    edges = [[names[a], names[b]] for a, b in covers]
    rng.shuffle(edges)
    return {"elements": names, "covers": edges}


def write_inputs(workload, seed, work):
    """Write the seeded input posets and return the operations in seeded
    order as (op_id, argv) pairs."""
    rng = random.Random(seed)
    os.makedirs(work, exist_ok=True)
    paths = {}
    for name, (n, covers) in POSETS.items():
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(relabeled_poset(n, covers, rng), fh)
    ops = [(op_id, [part.format(out="{out}", **paths)
                    for part in template.split()])
           for op_id, template in WORKLOADS[workload]]
    rng.shuffle(ops)
    return ops
