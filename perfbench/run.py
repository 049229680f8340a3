"""Benchmark of the eicalg command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``BENCHMARK.json`` or ``all``.  The run
makes its inputs from the seed, measures how long ``import eicalg.cli``
takes in fresh interpreters, then drives ``eicalg.cli.main`` in one fresh
worker interpreter, one call at a time, for S seconds.  Every output is
checked independently.  With ``--trace 0`` the end-to-end metrics are
reported, scaled to a reference machine speed (see ``end_to_end``).  With ``--trace 1`` the worker runs a fixed number of rounds
twice, untraced and then under the span recorder, and the per-layer metrics
and the tracing overhead are reported.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit status is 0
when every output passed its check, 1 when one did not, and 2 when the
checkout holds no ``src/eicalg`` to measure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, ROOT_LABEL, TRACED
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
# one worker.calibrate() chunk, in seconds, on the machine the bounds were
# set on (2-vCPU Intel Xeon, Python 3.11) at a quiet moment
REFERENCE_CALIBRATION_S = 0.052
MIN_ROUNDS = 3
DEADLINE_S = 170

class NoProgram(Exception):
    """The checkout has no program to measure."""


def environment_stamp() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the run exceeded its time budget")
    return left


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(import seconds, calibration seconds) of `import eicalg.cli` in fresh
    interpreters; the first, uncounted probe also writes bytecode caches."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(PROBE)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=remaining(deadline), check=True,
        )
        if probe:
            times.append(tuple(json.loads(out.stdout)))
    return times


def run_worker(job: dict, workdir: Path, tag: str, deadline: float) -> dict:
    job_path, result_path = workdir / f"job-{tag}.json", workdir / f"result-{tag}.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(WORKER), "run", str(job_path), str(result_path)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(result_path.read_text())


def check_calls(workload, calls) -> list[str]:
    failures = []
    for call in calls:
        try:
            reason = workload.check(call)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failures.append(f"call {call['arg']} in round {call['round']}: {reason}")
    return failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(job, result, setup) -> dict:
    """Timings scaled to the reference speed of the machine.

    On a shared machine other tenants change how fast this one runs, by
    tens of percent and for tens of seconds at a time.  worker.calibrate()
    runs between rounds, for a tenth of the measuring time, and after each
    probe import.  The run's speed is REFERENCE_CALIBRATION_S over the
    median time of those calibration chunks, and each
    median timing is scaled by it to what it would be at the reference
    speed.  The raw medians are kept for the printout.
    """
    speed = REFERENCE_CALIBRATION_S / statistics.median(result["calibrations"])
    setup_speed = REFERENCE_CALIBRATION_S / statistics.median(c for _, c in setup)
    raw_setup_s = statistics.median(s for s, _ in setup)
    raw_round_s = statistics.median(result["round_seconds"])
    latencies_ms = [1000 * call["seconds"] for call in result["calls"]]
    raw_p50_ms = percentile(latencies_ms, 50)
    return {
        "setup_s": raw_setup_s * setup_speed,
        "peak_rss_mb": result["peak_rss_mb"],
        "work_per_s": job["work_per_round"] / (raw_round_s * speed),
        "op_p50_ms": raw_p50_ms * speed,
        "speed": speed,
        "raw_setup_s": raw_setup_s,
        "raw_work_per_s": job["work_per_round"] / raw_round_s,
        "raw_op_p50_ms": raw_p50_ms,
        "raw_op_p90_ms": percentile(latencies_ms, 90),
    }


def per_layer(untraced, traced) -> dict:
    values = {}
    for _, _, label, _ in TRACED:
        values[f"{label}.self_s"] = 0.0
        values[f"{label}.calls"] = 0
    values.update(dict.fromkeys(COUNTERS, 0))
    values.update({f"{label}.self_s": s for label, s in traced["self_s"].items()})
    values.update(traced["counters"])
    replicates = values["mc.replicates"]
    kept = traced["counters"].get("mc.kept_support_sum", 0)
    values["mc.kept_support_mean"] = kept / replicates if replicates else 0.0
    values["cli.import_s"] = traced["import_s"]
    untraced_wall = sum(untraced["round_seconds"])
    traced_wall = sum(traced["round_seconds"])
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = traced["spans"]
    return values


def layer_shares(traced) -> dict:
    """Share of the traced wall time in each module's self time."""
    wall = sum(traced["round_seconds"])
    shares = {}
    for label, seconds in traced["self_s"].items():
        module = "cli" if label == ROOT_LABEL else label.split(".")[0]
        shares[module] = shares.get(module, 0.0) + seconds / wall
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def select(values: dict, specs: list) -> dict:
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise KeyError(f"no value for metrics {missing}")
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK_DIR / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir, ROOT)
    job = workload.job()
    job.update(trace=False, seconds=seconds, min_rounds=MIN_ROUNDS, spans_path=None)
    stamp = environment_stamp()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  " + json.dumps(stamp))

    if not trace:
        setup = measure_setup(deadline)
        result = run_worker(job, workdir, "untraced", deadline)
        calls = result["calls"]
        values = end_to_end(job, result, setup)
        metrics = select(values, spec["end_to_end"])
        report_end_to_end(workload, job, result, values, setup)
    else:
        job.update(seconds=None, rounds=job["rounds"][: workload.trace_rounds])
        untraced = run_worker(job, workdir, "untraced", deadline)
        job.update(trace=True, spans_path=str(workdir / "spans.jsonl"))
        traced = run_worker(job, workdir, "traced", deadline)
        calls = untraced["calls"] + traced["calls"]
        values = per_layer(untraced, traced)
        metrics = select(values, spec["per_layer"])
        report_per_layer(metrics, values, traced)

    failures = check_calls(workload, calls)
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(f"  failed_share {len(failures) / len(calls):.6g} ratio ({len(failures)}/{len(calls)})")
    summary = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": metrics,
    }
    (workdir / "summary.json").write_text(
        json.dumps({"stamp": stamp, "failures": failures, **summary}, indent=1)
    )
    return summary


def report_end_to_end(workload, job, result, values, setup) -> None:
    unit = workload.unit
    # work_per_s under its per-workload name, e.g. estimate_rows_per_s
    throughput = f"{workload.name.split('-')[0]}_{unit}_per_s"
    rounds = len(result["round_seconds"])
    samples = len(result["calls"])
    beyond = samples - -(-samples * 9 // 10)
    print(
        f"  machine speed {values['speed']:.3f} of reference; metrics below at"
        " reference speed, raw medians in brackets"
    )
    print(
        f"  setup_s {values['setup_s']:.6g} s [{values['raw_setup_s']:.6g}]"
        f" (median of {len(setup)} fresh imports)"
    )
    print(f"  peak_rss_mb {values['peak_rss_mb']:.6g} MB")
    print(
        f"  {throughput} {values['work_per_s']:.6g} {unit}/s"
        f" [{values['raw_work_per_s']:.6g}] as work_per_s"
        f" (median of {rounds} rounds of {job['work_per_round']} {unit})"
    )
    print(
        f"  op_p50_ms {values['op_p50_ms']:.6g} ms [{values['raw_op_p50_ms']:.6g}]"
        f" ({samples} calls)"
    )
    # printed only: most workloads make too few calls for a steady p90
    note = "" if beyond >= 10 else "; fewer than 10 samples beyond it"
    print(f"  op_p90_ms [{values['raw_op_p90_ms']:.6g}] ms ({beyond} calls beyond{note})")


def report_per_layer(metrics, values, traced) -> None:
    for metric, entry in metrics.items():
        print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    wall = values["trace.traced_wall_s"]
    overhead = values["trace.overhead_s"] / values["trace.untraced_wall_s"]
    print(f"  tracing overhead {values['trace.overhead_s']:.4g} s ({overhead:.1%} of untraced)")
    shares = ", ".join(f"{m} {s:.1%}" for m, s in layer_shares(traced).items())
    print(f"  self time by module, share of {wall:.4g} s traced: {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if not (ROOT / "src" / "eicalg" / "cli.py").is_file():
            raise NoProgram(f"no src/eicalg/cli.py under {ROOT}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (NoProgram, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")

    selected = names if args.workload == "all" else [args.workload]
    summaries = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        for name in selected
    }
    if args.workload == "all":
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, s in summaries.items()
                for metric, entry in s["metrics"].items()
            },
        }
    else:
        summary = summaries[args.workload]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
