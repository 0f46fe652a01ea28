"""Summarise the results that run.py saved under .bench_work/results/.

    python3 perfbench/baseline.py > perfbench/baseline.json

For each workload and each metric: the median and the quartiles over the
saved runs (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median), the number of runs and their seeds, plus the
machine the runs were made on.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(results):
    out = {}
    for res in results:
        kind = "per_layer" if res["trace"] else "end_to_end"
        wl = out.setdefault(res["workload"], {}).setdefault(
            kind, {"runs": 0, "seeds": [], "metrics": {}})
        wl["runs"] += 1
        wl["seeds"].append(res["machine"]["seed"])
        for name, metric in res["metrics"].items():
            entry = wl["metrics"].setdefault(name, {"unit": metric["unit"],
                                                   "values": []})
            entry["values"].append(metric["value"])
    for wl in out.values():
        for block in wl.values():
            block["seeds"].sort()
            for entry in block["metrics"].values():
                values = entry.pop("values")
                med = statistics.median(values)
                entry["median"] = med
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    entry["q1"], entry["q3"] = q1, q3
                    entry["spread"] = (q3 - q1) / med if med else 0.0
    return out


def main():
    results = []
    for path in sorted(glob.glob(os.path.join(ROOT, ".bench_work", "results",
                                              "*.json"))):
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    if not results:
        sys.exit("no results under .bench_work/results/")
    machines = {json.dumps({k: v for k, v in r["machine"].items()
                            if k != "seed"}, sort_keys=True) for r in results}
    json.dump({"machine": [json.loads(m) for m in sorted(machines)],
               "workloads": summarize(results)}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
