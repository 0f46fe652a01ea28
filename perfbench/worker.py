"""One benchmark run of one workload, in a fresh process started by run.py.

Modes:
  setup   import maxilat, write the seeded inputs, report when done, exit;
  timed   the same set-up, then passes over the operations for --seconds;
  trace   the same set-up, one untraced pass, then two traced passes, each
          writing its spans to spans-traced<k>.tsv in the work directory.

Every operation is one ``maxilat.cli.main(argv)`` call.  Between operations
the library's function caches are cleared and garbage is collected, outside
the timed region, so each operation starts from the state a fresh ``maxilat``
process would have; without this the second pass would reuse the first one's
cached ``classify`` results.  The last line of standard output is a JSON
object for run.py.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time


def import_maxilat(root):
    """Import maxilat from the checkout's own src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import maxilat
    from maxilat import cli
    if not os.path.abspath(maxilat.__file__).startswith(src + os.sep):
        raise SystemExit(f"maxilat was imported from {maxilat.__file__}, "
                         f"not from {src}")
    caches = [obj for name, mod in sorted(sys.modules.items())
              if name.startswith("maxilat")
              for obj in vars(mod).values() if hasattr(obj, "cache_clear")]
    return cli, caches


def run_pass(cli, caches, ops, work, tag):
    """Run every operation once; return per-operation results and the pass's
    wall time, the sum of the operations' own times.  Each operation writes
    its --out file under a name of its own, for run.py to check."""
    results = []
    for op_id, template in ops:
        out = os.path.join(work, f"{op_id}.{tag}.out.json")
        argv = [out if part == "{out}" else part for part in template]
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        for cached in caches:
            cached.cache_clear()
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        results.append({"op": op_id, "argv": argv, "out": out,
                        "seconds": seconds, "exit": code,
                        "stderr": stderr.getvalue().strip()})
    return {"wall_s": sum(r["seconds"] for r in results), "ops": results}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    cli, caches = import_maxilat(args.root)
    import workloads
    ops = workloads.write_inputs(args.workload, args.seed, args.work)
    report = {"setup_done": time.monotonic()}

    if args.mode == "timed":
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(cli, caches, ops, args.work,
                                   f"pass{len(passes)}"))
            elapsed = time.perf_counter() - start
            # stop when another pass would end further past --seconds than
            # stopping now falls short of it
            if elapsed + passes[-1]["wall_s"] / 2 >= args.seconds:
                break
        report["passes"] = passes
    elif args.mode == "trace":
        import layertrace
        report["untraced"] = run_pass(cli, caches, ops, args.work, "untraced")
        report["traced"] = []
        for k in range(2):
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                result = run_pass(cli, caches, ops, args.work, f"traced{k}")
            finally:
                tracer.remove()
            result["layers"] = tracer.metrics()
            with open(os.path.join(args.work, f"spans-traced{k}.tsv"), "w",
                      encoding="utf-8") as fh:
                tracer.rec.write(fh)
            report["traced"].append(result)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
