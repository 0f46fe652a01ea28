"""JSON round-tripping for posets, maps, selections and verdict records.

Poset files carry element names and covering pairs; the reflexive and
transitive closure is rebuilt on load and antisymmetry violations are
reported with the offending cycle.  Maps and selections refer to elements
by label.
"""

import json
import os

from .poset import FinitePoset, PosetError
from .selections import FilterSelection, SelectionKind, build_selection
from .maxitive import MonotoneMap, RationalConeMap


class FormatError(ValueError):
    """A file or document does not match the expected schema."""


def _require(doc, key, kind, where):
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise FormatError(f"{where}: field {key!r} must be a {kind.__name__}")
    return value


# -- posets -----------------------------------------------------------------


def poset_from_dict(doc, where="poset") -> FinitePoset:
    elements = _require(doc, "elements", list, where)
    if not all(isinstance(x, str) for x in elements):
        raise FormatError(f"{where}: element names must be strings")
    if len(set(elements)) != len(elements):
        raise FormatError(f"{where}: element names must be distinct")
    index = {name: i for i, name in enumerate(elements)}
    covers = _require(doc, "covers", list, where)
    pairs = []
    for k, edge in enumerate(covers):
        if not (isinstance(edge, list) and len(edge) == 2):
            raise FormatError(f"{where}: covers[{k}] must be a pair")
        a, b = edge
        for name in (a, b):
            if name not in index:
                raise FormatError(f"{where}: covers[{k}] uses unknown element "
                                  f"{name!r}")
        pairs.append((index[a], index[b]))
    try:
        return FinitePoset.from_relation(len(elements), pairs, tuple(elements))
    except PosetError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def poset_to_dict(p) -> dict:
    """Each element is named by label_of, an unlabeled poset's by its index."""
    labels = [p.label_of(i) for i in range(p.n)]
    return {"elements": labels,
            "covers": [[labels[i], labels[j]] for i, j in p.covers()]}


def load_poset(path) -> FinitePoset:
    with open(path, encoding="utf-8") as fh:
        return poset_from_dict(json.load(fh), where=str(path))


# -- maps ---------------------------------------------------------------------


def map_from_dict(doc, where="map"):
    """A MonotoneMap, or a RationalConeMap when no target poset is given.

    Cone values are JSON numbers or strings that Fraction reads, such as
    "1/3"; NaN, the infinities and the JSON booleans are not rational and
    are rejected.
    """
    source = poset_from_dict(_require(doc, "source", dict, where),
                             where=f"{where}.source")
    values_doc = _require(doc, "values", dict, where)
    values = []
    for g in range(source.n):
        name = source.labels[g]
        if name not in values_doc:
            raise FormatError(f"{where}: no value for element {name!r}")
    for name in values_doc:
        if name not in source.labels:
            raise FormatError(f"{where}: value for unknown element {name!r}")
    if "target" in doc:
        target = poset_from_dict(_require(doc, "target", dict, where),
                                 where=f"{where}.target")
        for g in range(source.n):
            raw = values_doc[source.labels[g]]
            if not isinstance(raw, str):
                raise FormatError(f"{where}: values must name target elements")
            try:
                values.append(target.index_of(raw))
            except PosetError as exc:
                raise FormatError(f"{where}: {exc}") from exc
        try:
            return MonotoneMap(source, target, tuple(values))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    # imported here, so that a process without cone maps does not load
    # fractions and its decimal stack
    from fractions import Fraction
    for g in range(source.n):
        raw = values_doc[source.labels[g]]
        try:
            if isinstance(raw, bool):
                raise TypeError("a JSON boolean is not a number")
            values.append(Fraction(raw))
        except (ValueError, TypeError, OverflowError) as exc:
            raise FormatError(f"{where}: value for {source.labels[g]!r} is not "
                              f"rational") from exc
    try:
        return RationalConeMap(source, tuple(values))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def map_to_dict(v) -> dict:
    """The map document of v, which map_from_dict reads back."""
    doc = {"source": poset_to_dict(v.source)}
    name = v.source.label_of
    if isinstance(v, MonotoneMap):
        doc["target"] = poset_to_dict(v.target)
        doc["values"] = {name(g): v.target.label_of(t)
                         for g, t in enumerate(v.values)}
    else:
        doc["values"] = {name(g): str(x) for g, x in enumerate(v.values)}
    return doc


def load_map(path):
    with open(path, encoding="utf-8") as fh:
        return map_from_dict(json.load(fh), where=str(path))


# -- selections -----------------------------------------------------------------


def parse_selection_spec(p, spec) -> FilterSelection:
    """Build a selection from a CLI spec: a kind name or explicit:<file>."""
    if spec.startswith("explicit:"):
        path = spec.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return selection_from_dict(p, doc, where=path)
    if spec == SelectionKind.EXPLICIT:
        raise FormatError("explicit selections need a file: explicit:<path>")
    return build_selection(p, spec)


def selection_from_dict(p, doc, where="selection") -> FilterSelection:
    sets_doc = _require(doc, "fsets", list, where)
    recursion = doc.get("recursion", "principal")
    fsets = []
    for k, names in enumerate(sets_doc):
        if not isinstance(names, list):
            raise FormatError(f"{where}: fsets[{k}] must be a list of labels")
        try:
            fsets.append(frozenset(p.index_of(name) for name in names))
        except PosetError as exc:
            raise FormatError(f"{where}: fsets[{k}]: {exc}") from exc
    try:
        return build_selection(p, SelectionKind.EXPLICIT, explicit_sets=fsets,
                               recursion_kind=SelectionKind(recursion))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


# -- bundled fixtures ----------------------------------------------------------


def fixture(name):
    """Parsed JSON of a bundled fixture file, data/<name> beside this
    module."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fixture_poset(name) -> FinitePoset:
    return poset_from_dict(fixture(name), where=name)


def fixture_map(name):
    return map_from_dict(fixture(name), where=name)
