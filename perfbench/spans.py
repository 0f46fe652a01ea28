"""In-memory span recorder and the self-time arithmetic.

A span is one call of a traced function: a name, a start, an end and the
span that was open when it began (its parent).  Spans are appended to flat
arrays while the traced code runs and are only summarised and written out at
the end.  A
span's self time is its duration minus the durations of its direct children.

Run this file to execute the self-test on a synthetic nested span tree.
"""

import io
import sys
import time
from array import array
from collections import Counter


class SpanRecorder:
    """Records nested spans on one thread, plus plain event counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(len(self.start) - 1)

    def close(self):
        self.end[self._stack.pop()] = self.clock()

    def __len__(self):
        return len(self.start)

    def write(self, fh):
        """Write every span as one tab-separated line: id, parent id (-1 for
        a root), name, start and end in seconds after the first span began."""
        t0 = self.start[0] if len(self) else 0.0
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for i in range(len(self)):
            fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                     f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def summarize(rec):
    """Per-name totals of a finished recording.

    Returns ``(self_s, total_s)``: ``self_s[name]`` sums the self times of the
    spans with that name; ``total_s[name]`` sums their durations, counting
    only spans with no ancestor of the same name, so recursion is not counted
    twice.
    """
    if rec._stack:
        raise ValueError(f"{len(rec._stack)} spans are still open")
    n = len(rec)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    self_s = Counter()
    total_s = Counter()
    for i in range(n):
        name = rec.name[i]
        self_s[rec.names[name]] += dur[i] - child[i]
        p = rec.parent[i]
        while p >= 0 and rec.name[p] != name:
            p = rec.parent[p]
        if p < 0:
            total_s[rec.names[name]] += dur[i]
    return dict(self_s), dict(total_s)


def by_layer(self_s):
    """Sum self times by layer, the part of a span name before the first dot."""
    layers = Counter()
    for name, seconds in self_s.items():
        layers[name.split(".", 1)[0]] += seconds
    return dict(layers)


def selftest():
    """Check the recorder and the arithmetic on a synthetic span tree.

    Tree (start, end on a fake clock):
        cli.main        0..20
          harness.x     1..11
            poset.a     2..5
              poset.a   3..4     nested in itself
            poset.b     6..10
          poset.a       12..18
            maxitive.w  13..14
            maxitive.w  15..17
    """
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15, 17, 18, 20, 21])
    rec = SpanRecorder(clock=lambda: next(ticks))
    script = ["cli.main", "harness.x", "poset.a", "poset.a", None, None,
              "poset.b", None, None, "poset.a", "maxitive.w", None,
              "maxitive.w", None, None, None]
    for step in script:
        rec.open(step) if step else rec.close()
    self_s, total_s = summarize(rec)
    want_self = {"cli.main": 20 - 10 - 6, "harness.x": 10 - 3 - 4,
                 "poset.a": (3 - 1) + 1 + (6 - 3), "poset.b": 4,
                 "maxitive.w": 1 + 2}
    want_total = {"cli.main": 20, "harness.x": 10, "poset.a": 3 + 6,
                  "poset.b": 4, "maxitive.w": 3}
    layers = by_layer(self_s)
    problems = []
    if self_s != want_self:
        problems.append(f"self times {self_s} != {want_self}")
    if total_s != want_total:
        problems.append(f"totals {total_s} != {want_total}")
    if sum(layers.values()) != 20:
        problems.append(f"layer self times sum to {sum(layers.values())}, "
                        f"not the root's 20")
    if layers != {"cli": 4, "harness": 3, "poset": 10, "maxitive": 3}:
        problems.append(f"layers {layers}")
    if list(rec.parent) != [-1, 0, 1, 2, 1, 0, 5, 5]:
        problems.append(f"parents {list(rec.parent)}")
    out = io.StringIO()
    rec.write(out)
    lines = out.getvalue().splitlines()
    if len(lines) != 9 or lines[-1] != "7\t5\tmaxitive.w\t15.000000000\t17.000000000":
        problems.append(f"written spans end with {lines[-1]!r}")
    rec.open("open")
    try:
        summarize(rec)
        problems.append("summarize accepted an open span")
    except ValueError:
        pass
    return problems


if __name__ == "__main__":
    failures = selftest()
    for line in failures:
        print("span self-test:", line, file=sys.stderr)
    print("span self-test:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)
