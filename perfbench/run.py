"""maxilat benchmark driver.

    python3 perfbench/run.py --workload poset-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) in fresh child processes
from the root of a checkout, checks every operation's output against
expected.json, prints one line per operation, the machine, a summary, and as
its last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced run reports the per-layer ones.

Exit codes: 0 result printed and correct; 1 some output differs from the
expected answer (the result is printed with ``correct: false``); 2 no
checkout to benchmark here; 3 the benchmark itself is broken (span self-test,
counter drift); 4 a child process failed or ran out of time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7          # set-ups per timed run; setup_s is their median
DEADLINE_S = 170           # every run ends well inside 180 s


class BenchError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def machine_info(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu or "unknown", "seed": seed}


def run_worker(args, mode, work, started):
    """Run one child process to completion; return its report and its
    set-up time, measured from just before the process was started."""
    cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds), "--work", work]
    left = DEADLINE_S - (time.monotonic() - started)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(4, f"{mode} child ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(4, f"{mode} child exited {proc.returncode}:\n"
                            f"{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["setup_done"] - t0


def facts_of(out):
    """The checkable facts of an operation's --out document, which is then
    deleted; {} when the operation wrote none."""
    try:
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    os.remove(out)
    if "records" in doc:
        return dict(doc["summary"], records=len(doc["records"]),
                    claim=doc["claim"])
    if "maps" in doc:
        return {"space": doc["count"], "maps": len(doc["maps"]),
                "distinct_maps": len({json.dumps(m, sort_keys=True)
                                      for m in doc["maps"]})}
    return {"space": doc["space"], "violations": len(doc["violations"])}


def judge(expected, res):
    """'ok' when the outcome is the expected answer, 'known-failure' when it
    reproduces a recorded known defect, else 'WRONG'."""
    exp = expected["ops"][res["op"]]
    got = dict(res["facts"], exit=res["exit"])
    if all(got.get(k) == v["value"] for k, v in exp["answer"].items()):
        return "ok"
    known = exp.get("known_failure")
    if known and all(got.get(k) == v["value"] for k, v in known.items()):
        return "known-failure"
    return "WRONG"


def check_passes(expected, passes):
    """Judge every operation of every pass; return (attempted, failed, wrong,
    per-op rows in run order)."""
    attempted = failed = wrong = 0
    rows = {}
    for p in passes:
        for res in p["ops"]:
            res["facts"] = facts_of(res["out"])
            verdict = judge(expected, res)
            attempted += 1
            failed += verdict != "ok"
            wrong += verdict == "WRONG"
            row = rows.setdefault(res["op"], {"argv": res["argv"],
                                              "seconds": [], "verdicts": set(),
                                              "exits": set(), "res": res})
            row["seconds"].append(res["seconds"])
            row["verdicts"].add(verdict)
            row["exits"].add(res["exit"])
            if verdict == "WRONG":
                row["res"] = res
    return attempted, failed, wrong, rows


def print_breakdown(rows):
    for op_id, row in rows.items():
        argv = " ".join(os.path.relpath(a, ROOT) if os.path.isabs(a) else a
                        for a in row["argv"])
        times = " ".join(f"{s:.3f}" for s in row["seconds"])
        print(f"op {op_id:32s} {statistics.median(row['seconds']):8.3f} s  "
              f"exit {'/'.join(map(str, sorted(row['exits'])))}  "
              f"{'/'.join(sorted(row['verdicts'])):14s} [{times}]  "
              f"maxilat {argv}")
        if "WRONG" in row["verdicts"]:
            res = row["res"]
            print(f"   got exit {res['exit']} facts {res['facts']} "
                  f"stderr {res['stderr']!r}")


def timed(args, expected, work, started):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker(args, "setup", work, started)[1])
    report, setup = run_worker(args, "timed", work, started)
    setups.append(setup)
    passes = report["passes"]
    attempted, failed, wrong, rows = check_passes(expected, passes)
    print_breakdown(rows)
    walls = [p["wall_s"] for p in passes]
    print(f"passes: {len(passes)}, wall_s each: "
          f"{' '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"failed_share: {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} operations differ from the right answer)")
    return attempted, failed, wrong, metrics, rows


def traced(args, expected, work, started):
    report, _ = run_worker(args, "trace", work, started)
    passes = [report["untraced"]] + report["traced"]
    attempted, failed, wrong, rows = check_passes(expected, passes)
    print_breakdown(rows)
    layers = [p["layers"] for p in report["traced"]]
    drift = {k: [m[k] for m in layers] for k in layertrace.COUNTERS
             if len({m[k] for m in layers}) > 1}
    if drift:
        raise BenchError(3, f"counters differ between traced passes: {drift}")
    metrics = {}
    for key in layertrace.LAYER_METRICS:
        values = [m[key] for m in layers]
        if key in layertrace.COUNTERS:
            metrics[key] = (values[0], "count")
        elif key.endswith("_s"):
            metrics[key] = (statistics.median(values), "s")
        else:
            metrics[key] = (statistics.median(values), "ratio")
    traced_wall = statistics.median(p["wall_s"] for p in report["traced"])
    untraced_wall = report["untraced"]["wall_s"]
    self_sum = statistics.median(m["layer_self_sum_s"] for m in layers)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.coverage"] = (self_sum / traced_wall, "ratio")
    for layer in layertrace.LAYERS:
        print(f"layer {layer:12s} self {metrics[layer + '.self_s'][0]:8.3f} s")
    print(f"traced wall_s {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
          f"layer self times sum to {self_sum:.3f} s")
    return attempted, failed, wrong, metrics, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "maxilat", "__init__.py")):
            raise BenchError(2, f"no maxilat checkout at {ROOT}: src/maxilat "
                                f"is missing")
        problems = spans.selftest()
        if problems:
            raise BenchError(3, "span self-test failed: " + "; ".join(problems))
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        work = os.path.join(ROOT, ".bench_work", args.workload)
        run = traced if args.trace else timed
        attempted, failed, wrong, metrics, rows = run(args, expected, work,
                                                      started)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return exc.code
    info = machine_info(args.seed)
    print("machine: " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    os.makedirs(os.path.join(ROOT, ".bench_work", "results"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_work", "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}"
                           ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, machine=info, workload=args.workload,
                       trace=args.trace,
                       op_seconds={op: row["seconds"]
                                   for op, row in rows.items()}), fh, indent=1)
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
