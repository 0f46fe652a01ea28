"""Command-line front end: poset and map checks, extensions, arrows, map
spaces, and the theorem-verification harness.

Exit codes: 0 all checks passed, 1 some verdict failed, 2 usage or parse
error.
"""

import argparse
import collections
import json
import os
import sys
from collections.abc import Iterator

from .poset import PosetError, classify, dm_completion
from .selections import SelectionError, continuity_report, is_union_complete
from .maxitive import (MapError, MonotoneMap, alternating_witness,
                       e_lower_star, e_star, extend_lower_star, extend_star,
                       is_pairwise_maxitive, maxitivity_witness)
from .residuation import adjoint_of, heyting_arrow, is_residuated
from .mspace import build_space, m_arrow
from . import harness, io


# json.dumps with its default settings, without the check for reference
# cycles: the streamed items are fresh trees, and a cycle still fails, on
# the recursion limit
_encode = json.JSONEncoder(check_circular=False).encode


def _write_out(args, payload):
    """Write the dict payload to --out as a JSON object, when --out is given.

    The values are encoded in turn, each with the bytes of json.dumps.  A
    list is encoded one item at a time: one json.dumps call holds a
    fragment per token of the whole value until it joins them, 0.75 MB of
    peak RSS on the 1,024 maps of `mspace build A5 C4`.  A value given as
    an iterator is consumed even without --out; with --out it is written
    as a list, one item per line as each arrives, and the values after it
    are encoded once it is spent, so they may total what it produced.  If
    writing fails, no file is left at --out.
    """
    out = getattr(args, "out", None)
    if not out:
        for value in payload.values():
            if isinstance(value, Iterator):
                collections.deque(value, maxlen=0)
    else:
        fh = open(out, "w", encoding="utf-8")
        try:
            with fh:
                fh.write("{")
                sep = ""
                for key, value in payload.items():
                    fh.write(f"{sep}{json.dumps(key)}: ")
                    if isinstance(value, Iterator):
                        fh.write("[")
                        item_sep = "\n"
                        for item in value:
                            fh.write(item_sep + _encode(item))
                            item_sep = ",\n"
                        fh.write("\n]")
                    elif isinstance(value, list):
                        fh.write("[")
                        item_sep = ""
                        for item in value:
                            fh.write(item_sep + _encode(item))
                            item_sep = ", "
                        fh.write("]")
                    else:
                        fh.write(json.dumps(value))
                    sep = ", "
                fh.write("}\n")
        except BaseException:
            os.remove(out)
            raise


def _load_extension(map_source, spec):
    if spec == "dm":
        return dm_completion(map_source)
    big = io.load_poset(spec)
    try:
        embed = tuple(big.index_of(lab) for lab in map_source.labels)
    except PosetError as exc:
        raise io.FormatError(f"completion does not cover the base: {exc}") from exc
    from .poset import OrderExtension
    return OrderExtension(map_source, big, embed)


def cmd_poset_check(args):
    p = io.load_poset(args.file)
    profile = classify(p)
    print(f"poset: {p.n} elements, {len(p.covers())} covering pairs")
    for name in ("is_join_semilattice", "is_meet_semilattice", "is_lattice",
                 "is_complete_lattice", "is_distributive",
                 "is_meet_continuous"):
        print(f"  {name}: {getattr(profile, name)}")
    payload = {"profile": {k: getattr(profile, k) for k in profile.__dataclass_fields__}}
    if args.selection:
        sel = io.parse_selection_spec(p, args.selection)
        report = continuity_report(p, sel)
        uc = is_union_complete(sel)
        print(f"selection {args.selection}: {len(sel.fsets)} sets, "
              f"union-complete: {uc}")
        print(f"  continuous: {report.is_continuous}")
        print(f"  domain: {report.is_domain}")
        print(f"  interpolation: {report.has_interpolation}")
        payload["selection"] = {
            "kind": args.selection, "sets": len(sel.fsets),
            "union_complete": uc,
            "continuous": report.is_continuous,
            "domain": report.is_domain,
            "interpolation": report.has_interpolation,
            "continuity_failures": [p.label_of(x)
                                    for x in report.continuity_failures],
        }
    _write_out(args, payload)
    return 0


def cmd_map_check(args):
    """Maxitivity, with the pairwise law for a poset-valued map or the
    alternating property for a rational-valued one; the flag of the other
    kind would be ignored, so it is refused."""
    v = io.load_map(args.file)
    poset_valued = isinstance(v, MonotoneMap)
    if poset_valued and args.alternating is not None:
        raise MapError("--alternating applies only to rational-valued maps")
    if not poset_valued and args.pairwise:
        raise MapError("--pairwise applies only to poset-valued maps")
    payload = {}
    code = 0
    if poset_valued:
        witness = maxitivity_witness(v)
        payload["maxitive"] = witness is None
        print(f"maxitive: {witness is None}")
        if witness is not None:
            family = sorted(v.source.label_of(g) for g in witness)
            payload["witness"] = family
            print(f"  offending family: {family}")
            code = 1
        if args.pairwise:
            pw = is_pairwise_maxitive(v)
            payload["pairwise_maxitive"] = pw
            print(f"pairwise maxitive: {pw}")
            if not pw:
                code = 1
    else:
        payload["maxitive"] = v.is_maxitive()
        print(f"maxitive: {payload['maxitive']}")
        if not payload["maxitive"]:
            code = 1
        if args.alternating is not None:
            bad = alternating_witness(v, args.alternating)
            payload["alternating"] = bad is None
            print(f"alternating (depth {args.alternating}): {bad is None}")
            if bad is not None:
                g, gs = bad
                payload["witness"] = {"at": v.source.label_of(g),
                                      "along": [v.source.label_of(x) for x in gs]}
                print(f"  witness: at {v.source.label_of(g)} along "
                      f"{[v.source.label_of(x) for x in gs]}")
                code = 1
    _write_out(args, payload)
    return code


def cmd_map_extend(args):
    v = io.load_map(args.file)
    if not isinstance(v, MonotoneMap):
        raise MapError("extension needs a poset-valued map")
    ext = _load_extension(v.source, args.ext)
    from .selections import build_selection
    sel_e = build_selection(v.source, args.selection)
    sel_l = build_selection(v.target, args.selection)
    if args.mode == "star":
        region = sorted(e_star(ext, sel_e))
        extended = extend_star(v, ext, sel_e, sel_l)
    else:
        region = sorted(e_lower_star(ext))
        extended = extend_lower_star(v, ext)
    print(f"{args.mode} region: "
          f"{[ext.complete.label_of(a) for a in region]}")
    values = {ext.complete.label_of(a): v.target.label_of(extended.values[k])
              for k, a in enumerate(region)}
    for name, val in values.items():
        print(f"  {name} -> {val}")
    _write_out(args, {"region": [ext.complete.label_of(a) for a in region],
                      "values": values})
    return 0


def cmd_map_residuated(args):
    v = io.load_map(args.file)
    if not isinstance(v, MonotoneMap):
        raise MapError("residuation needs a poset-valued map")
    ext = _load_extension(v.source, args.ext)
    resid = is_residuated(v, ext)
    print(f"residuated: {resid}")
    payload = {"residuated": resid}
    if resid:
        adj = adjoint_of(v, ext)
        payload["adjoint"] = {v.target.label_of(t):
                              ext.complete.label_of(adj(t))
                              for t in range(v.target.n)}
        for t in range(v.target.n):
            print(f"  w({v.target.label_of(t)}) = "
                  f"{ext.complete.label_of(adj(t))}")
    _write_out(args, payload)
    return 0


def cmd_map_adjoint(args):
    v = io.load_map(args.file)
    if not isinstance(v, MonotoneMap):
        raise MapError("residuation needs a poset-valued map")
    ext = _load_extension(v.source, args.ext)
    adj = adjoint_of(v, ext)
    payload = {v.target.label_of(t): ext.complete.label_of(adj(t))
               for t in range(v.target.n)}
    for name, val in payload.items():
        print(f"w({name}) = {val}")
    _write_out(args, {"adjoint": payload})
    return 0


def cmd_lattice_arrow(args):
    l = io.load_poset(args.file)
    r, s = l.index_of(args.r), l.index_of(args.s)
    arrow = heyting_arrow(l, r, s)
    print(f"({args.r} <- {args.s}) = {l.label_of(arrow)}")
    _write_out(args, {"arrow": l.label_of(arrow)})
    return 0


def cmd_mspace_build(args):
    e = io.load_poset(args.source)
    l = io.load_poset(args.target)
    space = build_space(e, l, cap=args.cap)
    print(f"maxitive maps: {len(space)}")
    names = [e.label_of(g) for g in range(e.n)]
    labels = [l.label_of(t) for t in range(l.n)]
    listing = [{name: labels[t] for name, t in zip(names, values)}
               for values in space.maps]
    sys.stdout.write("".join(
        "  " + ", ".join(f"{k}->{v}" for k, v in row.items()) + "\n"
        for row in listing))
    _write_out(args, {"count": len(space), "maps": listing})
    return 0


def cmd_mspace_arrow(args):
    u = io.load_map(args.u)
    v = io.load_map(args.v)
    if not (isinstance(u, MonotoneMap) and isinstance(v, MonotoneMap)):
        raise MapError("the arrow needs poset-valued maps")
    if u.source != v.source or u.target != v.target:
        raise MapError("the two maps must share source and target")
    space = build_space(u.source, u.target, cap=args.cap)
    arrow = m_arrow(space, space.index_of(u.values), space.index_of(v.values))
    payload = {u.source.label_of(g): u.target.label_of(arrow.values[g])
               for g in range(u.source.n)}
    for name, val in payload.items():
        print(f"(u <- v)({name}) = {val}")
    _write_out(args, {"arrow": payload})
    return 0


def cmd_mspace_verify(args):
    e = io.load_poset(args.source)
    l = io.load_poset(args.target)
    space = build_space(e, l, cap=args.cap)
    failures = list(harness.LEMMAS[args.lemma](space))
    print(f"lemma {args.lemma}: {'ok' if not failures else 'FAILED'} "
          f"({len(failures)} violations, space size {len(space)})")
    doc = {"lemma": args.lemma, "space": len(space)}
    if args.lemma == "frame":
        doc.update(harness.frame_hypothesis(e))
        print(f"I(E): {doc['ideals']} ideals, "
              f"{'' if doc['ideal_lattice_distributive'] else 'not '}"
              f"distributive")
    doc["violations"] = failures
    _write_out(args, doc)
    return 0 if not failures else 1


def cmd_harness_run(args):
    """Stream the verdict records: a failing one is printed, and each is
    counted and written as it arrives, none kept."""
    counts = harness.summarize(())

    def records():
        for rec in harness.run_suite(args.claim, max_size=args.max_size,
                                     selections=args.selections,
                                     depth=args.depth):
            counts[rec.verdict] += 1
            if rec.verdict == harness.FAIL:
                print(f"FAIL {rec.claim}: {rec.instance}")
                print(f"     witness: {rec.witness}")
            yield rec.to_dict()

    _write_out(args, {"claim": args.claim, "records": records(),
                      "summary": counts})
    print(f"{args.claim}: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['hypothesis-not-met']} hypothesis-not-met "
          f"({sum(counts.values())} instances)")
    return 0 if counts[harness.FAIL] == 0 else 1


def _command_table():
    """Every command as group -> (help, leaves), with leaves as
    leaf -> (help, handler, arguments) and each argument as (flags,
    options) for add_argument, in help order."""
    out = (("--out",), {})
    cap = (("--cap",), {"type": int, "default": 10 ** 6})
    ext = (("--ext",), {"default": "dm"})
    return {
        "poset": ("poset operations", {
            "check": ("validate and classify", cmd_poset_check, [
                (("file",), {}),
                (("--selection",),
                 {"help": "principal|filtered|upper|explicit:<file>"}),
                out]),
        }),
        "map": ("map operations", {
            "check": ("maxitivity checks", cmd_map_check, [
                (("file",), {}),
                (("--pairwise",), {"action": "store_true"}),
                (("--alternating",), {"type": int, "metavar": "DEPTH"}),
                out]),
            "extend": ("extend to the completion", cmd_map_extend, [
                (("file",), {}),
                (("--mode",), {"choices": ("star", "lower-star"),
                               "required": True}),
                (("--ext",), {"default": "dm",
                              "help": "completion: dm or a poset file"}),
                (("--selection",), {"default": "principal"}),
                out]),
            "residuated": ("residuation check", cmd_map_residuated,
                           [(("file",), {}), ext, out]),
            "adjoint": ("compute the adjoint", cmd_map_adjoint,
                        [(("file",), {}), ext, out]),
        }),
        "lattice": ("lattice operations", {
            "arrow": ("Heyting arrow r <- s", cmd_lattice_arrow, [
                (("file",), {}),
                (("--r",), {"required": True}),
                (("--s",), {"required": True}),
                out]),
        }),
        "mspace": ("spaces of maxitive maps", {
            "build": ("materialize the space", cmd_mspace_build,
                      [(("source",), {}), (("target",), {}), cap, out]),
            "arrow": ("residuation u <- v in the space", cmd_mspace_arrow, [
                (("--u",), {"required": True}),
                (("--v",), {"required": True}),
                cap, out]),
            "verify": ("verify a structural lemma", cmd_mspace_verify, [
                (("source",), {}),
                (("target",), {}),
                (("--lemma",), {"required": True,
                                "choices": sorted(harness.LEMMAS)}),
                cap, out]),
        }),
        "harness": ("theorem-verification suites", {
            "run": ("run one claim suite", cmd_harness_run, [
                (("claim",), {"choices": sorted(harness.CLAIMS)}),
                (("--max-size",), {"type": int, "dest": "max_size"}),
                (("--selections",), {"nargs": "+"}),
                (("--depth",), {"type": int}),
                out]),
        }),
    }


def build_parser(command=()):
    """The parser of the command table.

    When command is a (group, leaf) pair that names a command, only the
    chain root -> group -> leaf is built.  Its subcommand metavars spell
    out every name of the full tree, so its usage lines and errors read as
    the full parser's; any other command builds the full tree.
    """
    table = _command_table()
    group, leaf = (tuple(command) + (None, None))[:2]
    chain = group in table and leaf in table[group][1]

    def names(words):
        return "{" + ",".join(words) + "}" if chain else None
    parser = argparse.ArgumentParser(
        prog="maxilat",
        description="Finite-poset engine for way-above relations, maxitive "
                    "maps, extensions, residuation and map spaces.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=names(table))
    for group_name, (group_help, leaves) in table.items():
        if chain and group_name != group:
            continue
        group_parser = sub.add_parser(group_name, help=group_help)
        group_sub = group_parser.add_subparsers(
            dest="subcommand", required=True, metavar=names(leaves))
        for leaf_name, (leaf_help, fn, arguments) in leaves.items():
            if chain and leaf_name != leaf:
                continue
            leaf_parser = group_sub.add_parser(leaf_name, help=leaf_help)
            for flags, options in arguments:
                leaf_parser.add_argument(*flags, **options)
            leaf_parser.set_defaults(fn=fn)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[:2]).parse_args(argv)
    try:
        return args.fn(args)
    except (io.FormatError, PosetError, SelectionError, MapError,
            harness.HarnessError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
