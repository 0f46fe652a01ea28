"""Layer tracing for maxilat, installed from outside the library.

Each traced function is replaced by a wrapper that records a span named
``<layer>.<what>`` in a ``SpanRecorder``; the layer is the ``src/maxilat``
module the function lives in.  A module-level function is replaced in every
``maxilat`` module that binds it (so calls through ``harness``, ``mspace`` and
``cli`` imports are caught, and so are calls inside its own module); a method
is replaced on its class.  ``FinitePoset.sup_of``/``inf_of`` and
``MaxMapSpace.join`` are counted, not timed: they are called too often for a
span each.  Generators get one span per item they produce, so their span
time is the time spent producing items, not the consumer's.

``cli._write_out``, the writer behind every ``--out`` flag, is booked to the
``io`` layer: it is the JSON serialization and file output of the CLI.
"""

import functools
import sys

from spans import SpanRecorder, by_layer, summarize
from workloads import WORKLOADS

CLAIMS_RUN = [template.split()[2] for ops in WORKLOADS.values()
              for _, template in ops if template.startswith("harness run")]

# Per-layer metrics in report order: names ending in _s are seconds, the
# COUNTERS are counts, the rest ratios.
LAYER_METRICS = (
    ["poset.self_s", "poset.enumerate_s", "poset.enumerate_dedup_s",
     "poset.posets", "poset.sup_calls", "poset.inf_calls",
     "selections.self_s", "selections.build_selection_s",
     "selections.selected_sets", "selections.union_complete_s",
     "selections.way_above_s", "selections.continuity_s",
     "maxitive.self_s", "maxitive.candidates", "maxitive.survivors",
     "maxitive.survivor_ratio", "maxitive.witness_s",
     "maxitive.ideal_family_s", "maxitive.alternating_s", "maxitive.extend_s",
     "residuation.self_s", "residuation.thm_5_4_s",
     "residuation.heyting_arrow_s",
     "mspace.self_s", "mspace.build_space_s", "mspace.maps_built",
     "mspace.join_calls", "mspace.way_above_s", "mspace.m_arrow_s",
     "mspace.representation_s",
     "harness.self_s"]
    + [f"harness.{claim}_s" for claim in CLAIMS_RUN]
    + ["harness.records", "cli.self_s", "io.self_s"])

COUNTERS = ("poset.posets", "poset.sup_calls", "poset.inf_calls",
            "selections.selected_sets", "maxitive.candidates",
            "maxitive.survivors", "mspace.maps_built", "mspace.join_calls",
            "harness.records")

LAYERS = [key.split(".")[0] for key in LAYER_METRICS if key.endswith(".self_s")]


def _span(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if after is not None:
            after(result)
        return result
    return wrapper


def _span_gen(rec, name_of, count, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = name_of(args, kwargs)
        inner = fn(*args, **kwargs)
        while True:
            rec.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.close()
            rec.counts[count] += 1
            yield item
    return wrapper


def _counted(rec, name, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class Tracer:
    """Installs and removes the wrappers around one ``SpanRecorder``."""

    def __init__(self):
        self.rec = SpanRecorder()
        self._undo = []

    def _replace_function(self, module, attr, wrapper_of):
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("maxilat")
                    and mod.__dict__.get(attr) is original):
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self):
        from maxilat import (cli, harness, io, maxitive, mspace, poset,
                             residuation, selections)
        rec = self.rec
        counts = rec.counts

        def maxitive_check(found_maxitive):
            def after(result):
                counts["maxitive.candidates"] += 1
                counts["maxitive.survivors"] += found_maxitive(result)
            return after

        def selected(sel):
            counts["selections.selected_sets"] += len(sel.fsets)

        def built(space):
            counts["mspace.maps_built"] += len(space)

        timed = [
            (poset, "classify", "poset.classify", None),
            (poset, "dm_completion", "poset.dm_completion", None),
            (selections, "build_selection", "selections.build_selection",
             selected),
            (selections, "is_union_complete", "selections.union_complete",
             None),
            (selections, "way_above", "selections.way_above", None),
            (selections, "continuity_report", "selections.continuity", None),
            (maxitive, "maxitivity_witness", "maxitive.witness",
             maxitive_check(lambda r: r is None)),
            (maxitive, "ideal_family_of", "maxitive.ideal_family", None),
            (maxitive, "from_ideal_family", "maxitive.ideal_family", None),
            (maxitive, "alternating_witness", "maxitive.alternating", None),
            (maxitive, "extend_star", "maxitive.extend", None),
            (maxitive, "extend_lower_star", "maxitive.extend", None),
            (residuation, "theorem_5_4", "residuation.thm_5_4", None),
            (residuation, "heyting_arrow", "residuation.heyting_arrow", None),
            (mspace, "build_space", "mspace.build_space", built),
            (mspace, "way_above_in_space", "mspace.way_above", None),
            (mspace, "m_arrow", "mspace.m_arrow", None),
            (mspace, "representation", "mspace.representation", None),
            (cli, "main", "cli.main", None),
            (cli, "_write_out", "io.write_out", None),
            (io, "load_poset", "io.load_poset", None),
            (io, "load_map", "io.load_map", None),
            (io, "fixture_map", "io.fixture", None),
            (io, "fixture_poset", "io.fixture", None),
        ]
        for module, attr, name, after in timed:
            self._replace_function(
                module, attr,
                lambda fn, name=name, after=after: _span(rec, name, fn, after))
        self._replace_method(
            maxitive.RationalConeMap, "is_maxitive",
            lambda fn: _span(rec, "maxitive.witness", fn,
                             maxitive_check(bool)))
        self._replace_function(
            poset, "enumerate_posets",
            lambda fn: _span_gen(
                rec, lambda a, k: ("poset.enumerate_dedup" if k.get("dedup")
                                   else "poset.enumerate"),
                "poset.posets", fn))
        self._replace_function(
            harness, "run_suite",
            lambda fn: _span_gen(rec, lambda a, k: f"harness.{a[0]}",
                                 "harness.records", fn))
        for cls, attr, name in ((poset.FinitePoset, "sup_of", "poset.sup_calls"),
                                (poset.FinitePoset, "inf_of", "poset.inf_calls"),
                                (mspace.MaxMapSpace, "join", "mspace.join_calls")):
            self._replace_method(cls, attr,
                                 lambda fn, name=name: _counted(rec, name, fn))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Every per-layer metric of the recording, by name."""
        self_s, total_s = summarize(self.rec)
        layers = by_layer(self_s)
        counts = self.rec.counts
        out = {}
        for key in LAYER_METRICS:
            stem = key[:-2] if key.endswith("_s") else None
            if stem and stem.split(".", 1)[1] == "self":
                out[key] = layers.get(stem.split(".", 1)[0], 0.0)
            elif stem:
                out[key] = total_s.get(stem, 0.0)
            elif key == "maxitive.survivor_ratio":
                cand = counts["maxitive.candidates"]
                out[key] = counts["maxitive.survivors"] / cand if cand else 0.0
            else:
                out[key] = counts[key]
        out["layer_self_sum_s"] = sum(layers.values())
        return out
