#!/usr/bin/env python3
"""Spread of every end-to-end metric over seeds, the way the PR driver judges it.

Runs each workload once per seed (untraced) and prints, per metric, the
median and the interquartile range as a share of the median, next to the
bound of BENCHMARK.json. With two result files it also prints by how much
the second median is worse than the first.

    benchmark/spread.py run 1-10 benchmark/out/spread-a.json
    benchmark/spread.py show benchmark/out/spread-a.json [benchmark/out/spread-b.json]
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(seeds, out):
    results = {}
    for w in (w["name"] for w in SPEC["workloads"]):
        for seed in seeds:
            cmd = SPEC["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            results.setdefault(w, []).append(json.loads(done.stdout.splitlines()[-1]))
            print(f"{w} seed {seed}: failed {results[w][-1]['failed']}", flush=True)
    Path(out).write_text(json.dumps(results))


def summary(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q[2] - q[0]) / median


def show(first, second=None):
    for w, runs in first.items():
        print(f"== {w}: {len(runs)} runs, {sum(r['failed'] for r in runs)} failed ops")
        for m in SPEC["end_to_end"]:
            median, spread = summary(runs, m["name"])
            line = f"  {m['name']:<18} bound {m['bound']:<5} median {median:>14.5f}  spread {spread:.4f}"
            if second:
                median2, spread2 = summary(second[w], m["name"])
                worse = (median2 - median) / median * (1 if m["better"] == "lower" else -1)
                line += f"  | second: median {median2:>14.5f}  spread {spread2:.4f}  worse by {worse:+.4f}"
            print(line)


if __name__ == "__main__":
    if sys.argv[1] == "run":
        lo, hi = (int(x) for x in sys.argv[2].split("-"))
        run(range(lo, hi + 1), sys.argv[3])
        show(json.loads(Path(sys.argv[3]).read_text()))
    else:
        show(*(json.loads(Path(p).read_text()) for p in sys.argv[2:4]))
