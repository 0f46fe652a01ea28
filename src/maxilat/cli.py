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


def _write_out(args, payload):
    """Write the dict payload to --out as JSON, when --out is given.

    A value given as an iterator is consumed even without --out.  With
    --out it is written as a list, one item per line as each arrives, and
    the values after it are encoded once it is spent, so they may total
    what it produced.  If that fails, no file is left at --out.
    """
    out = getattr(args, "out", None)
    streams = [v for v in payload.values() if isinstance(v, Iterator)]
    if not out:
        for stream in streams:
            collections.deque(stream, maxlen=0)
    elif not streams:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        fh = open(out, "w", encoding="utf-8")
        try:
            with fh:
                sep = "{"
                for key, value in payload.items():
                    fh.write(f"{sep}{json.dumps(key)}: ")
                    if isinstance(value, Iterator):
                        fh.write("[")
                        item_sep = "\n"
                        for item in value:
                            fh.write(item_sep + json.dumps(item))
                            item_sep = ",\n"
                        fh.write("\n]")
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
    v = io.load_map(args.file)
    payload = {}
    code = 0
    if isinstance(v, MonotoneMap):
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
        if args.alternating:
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
    listing = []
    for values in space.maps:
        row = {e.label_of(g): l.label_of(values[g]) for g in range(e.n)}
        listing.append(row)
        print("  " + ", ".join(f"{k}->{v}" for k, v in row.items()))
    _write_out(args, {"count": len(space), "maps": listing})
    return 0


def cmd_mspace_arrow(args):
    u = io.load_map(args.u)
    v = io.load_map(args.v)
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
    _write_out(args, {"lemma": args.lemma, "space": len(space),
                      "violations": failures})
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxilat",
        description="Finite-poset engine for way-above relations, maxitive "
                    "maps, extensions, residuation and map spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    poset = sub.add_parser("poset", help="poset operations")
    poset_sub = poset.add_subparsers(dest="subcommand", required=True)
    p_check = poset_sub.add_parser("check", help="validate and classify")
    p_check.add_argument("file")
    p_check.add_argument("--selection", help="principal|filtered|upper|explicit:<file>")
    p_check.add_argument("--out")
    p_check.set_defaults(fn=cmd_poset_check)

    mp = sub.add_parser("map", help="map operations")
    mp_sub = mp.add_subparsers(dest="subcommand", required=True)
    m_check = mp_sub.add_parser("check", help="maxitivity checks")
    m_check.add_argument("file")
    m_check.add_argument("--pairwise", action="store_true")
    m_check.add_argument("--alternating", type=int, metavar="DEPTH")
    m_check.add_argument("--out")
    m_check.set_defaults(fn=cmd_map_check)
    m_ext = mp_sub.add_parser("extend", help="extend to the completion")
    m_ext.add_argument("file")
    m_ext.add_argument("--mode", choices=("star", "lower-star"), required=True)
    m_ext.add_argument("--ext", default="dm", help="completion: dm or a poset file")
    m_ext.add_argument("--selection", default="principal")
    m_ext.add_argument("--out")
    m_ext.set_defaults(fn=cmd_map_extend)
    m_res = mp_sub.add_parser("residuated", help="residuation check")
    m_res.add_argument("file")
    m_res.add_argument("--ext", default="dm")
    m_res.add_argument("--out")
    m_res.set_defaults(fn=cmd_map_residuated)
    m_adj = mp_sub.add_parser("adjoint", help="compute the adjoint")
    m_adj.add_argument("file")
    m_adj.add_argument("--ext", default="dm")
    m_adj.add_argument("--out")
    m_adj.set_defaults(fn=cmd_map_adjoint)

    lat = sub.add_parser("lattice", help="lattice operations")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    l_arrow = lat_sub.add_parser("arrow", help="Heyting arrow r <- s")
    l_arrow.add_argument("file")
    l_arrow.add_argument("--r", required=True)
    l_arrow.add_argument("--s", required=True)
    l_arrow.add_argument("--out")
    l_arrow.set_defaults(fn=cmd_lattice_arrow)

    msp = sub.add_parser("mspace", help="spaces of maxitive maps")
    msp_sub = msp.add_subparsers(dest="subcommand", required=True)
    s_build = msp_sub.add_parser("build", help="materialize the space")
    s_build.add_argument("source")
    s_build.add_argument("target")
    s_build.add_argument("--cap", type=int, default=10 ** 6)
    s_build.add_argument("--out")
    s_build.set_defaults(fn=cmd_mspace_build)
    s_arrow = msp_sub.add_parser("arrow", help="residuation u <- v in the space")
    s_arrow.add_argument("--u", required=True)
    s_arrow.add_argument("--v", required=True)
    s_arrow.add_argument("--cap", type=int, default=10 ** 6)
    s_arrow.add_argument("--out")
    s_arrow.set_defaults(fn=cmd_mspace_arrow)
    s_verify = msp_sub.add_parser("verify", help="verify a structural lemma")
    s_verify.add_argument("source")
    s_verify.add_argument("target")
    s_verify.add_argument("--lemma", required=True,
                          choices=sorted(harness.LEMMAS))
    s_verify.add_argument("--cap", type=int, default=10 ** 6)
    s_verify.add_argument("--out")
    s_verify.set_defaults(fn=cmd_mspace_verify)

    har = sub.add_parser("harness", help="theorem-verification suites")
    har_sub = har.add_subparsers(dest="subcommand", required=True)
    h_run = har_sub.add_parser("run", help="run one claim suite")
    h_run.add_argument("claim", choices=sorted(harness.CLAIMS))
    h_run.add_argument("--max-size", type=int, dest="max_size")
    h_run.add_argument("--selections", nargs="+")
    h_run.add_argument("--depth", type=int)
    h_run.add_argument("--out")
    h_run.set_defaults(fn=cmd_harness_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (io.FormatError, PosetError, SelectionError, MapError,
            harness.HarnessError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
