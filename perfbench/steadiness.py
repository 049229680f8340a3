"""Steadiness check of the benchmark against its own bounds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2] [--sets 1]

Runs ``run.py`` (untraced) once per workload and seed, ``--sets`` times
over, and compares the end-to-end metrics with the bounds in
``BENCHMARK.json``:

* the spread of a metric is the distance between the first and third
  quartile of its values over the seeds (``statistics.quantiles(n=4)``),
  as a share of their median; with two seeds it is their difference as a
  share of their mean.  Every metric but ``setup_s`` must have a spread
  within its bound, and should stay below a third of it;
* with two or more sets, the median of each later set may not be worse
  than the first set's median by more than the bound.

Every metric that breaks a rule is named.  The exit status is 1 if any did.
All values are written to ``.perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    if len(values) == 2:
        return abs(values[0] - values[1]) / statistics.fmean(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, later: float, better: str) -> float:
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    record, problems = {}, []
    for workload in args.workloads.split(","):
        sets = [
            [run_once(workload, seed, args.seconds) for seed in seeds]
            for _ in range(args.sets)
        ]
        record[workload] = sets
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for index, runs in enumerate(sets):
                values = [run[name] for run in runs]
                s = spread(values)
                status = "ok" if s < bound / 3 else "within bound" if s <= bound else "UNSTEADY"
                if s > bound and name != "setup_s":
                    problems.append(f"{workload} {name}: spread {s:.3f} > bound {bound}")
                print(
                    f"{workload:14} set {index} {name:12} median {statistics.median(values):<12.6g}"
                    f" spread {s:.4f} bound {bound} {status}"
                )
            first = statistics.median(run[name] for run in sets[0])
            for index, runs in enumerate(sets[1:], start=1):
                later = statistics.median(run[name] for run in runs)
                worse = worsening(first, later, metric["better"])
                if worse > bound:
                    problems.append(
                        f"{workload} {name}: set {index} median worse by {worse:.3f} > bound {bound}"
                    )
                print(f"{workload:14} set {index} {name:12} worse than set 0 by {worse:+.4f}")

    out = ROOT / ".perfbench" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "runs": record, "problems": problems}, indent=1))
    for line in problems:
        print(f"not steady: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
