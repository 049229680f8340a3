"""Record the reference outputs that the benchmark checks against.

Usage, from the root of a checkout of the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/derive_corpus.json``: for each corpus
expression, whether the program decided it within the per-call limit, its
exit code, the SHA-256 of its structured document and of its error text, and
the median of three call times.  Writes ``perfbench/reference/mc_grid.json``:
the float fields of the ``simulate`` document for each seed of the table.
The exact truth and bound are not recorded; the benchmark checks those
against closed forms.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads as w  # noqa: E402


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def record_derive(main) -> list[dict]:
    entries = []
    for expression in w.derive_corpus():
        argv = w.derive_argv(expression)
        runs = [worker._call(main, argv, w.DERIVE_LIMIT_S) for _ in range(3)]
        if any(run[1:] != runs[0][1:] for run in runs):
            raise RuntimeError(f"outputs differ between calls: {expression!r}")
        code = runs[0][1]
        if code is None:
            entries.append({"expression": expression, "status": "timeout"})
            continue
        call = worker._record("derive", None, None, *runs[0])
        entries.append(
            {
                "expression": expression,
                "status": "decided" if code in (0, 1) else "error",
                "code": code,
                "stdout_sha256": call["stdout_sha256"],
                "stderr_sha256": call["stderr_sha256"],
                "seed_ms": 1000 * statistics.median(run[0] for run in runs),
            }
        )
    return entries


def record_mc(main) -> dict:
    results = {}
    for mc_seed in range(w.MC_TABLE_SIZE):
        _, code, stdout, stderr = worker._call(main, w.mc_argv(mc_seed), None)
        if code != 0:
            raise RuntimeError(f"simulate --seed {mc_seed} exited {code}: {stderr}")
        result = json.loads(stdout)["results"][0]
        del result["truth_exact"], result["bound_exact"]
        results[str(mc_seed)] = result
    return results


def main() -> int:
    cli, _ = worker.import_cli()
    signal.signal(signal.SIGALRM, worker._on_alarm)
    source = {"commit": commit(), "stamp_python": sys.version.split()[0]}
    corpus = record_derive(cli.main)
    decided = [e for e in corpus if e["status"] == "decided"]
    (HERE / "reference").mkdir(exist_ok=True)
    (HERE / "reference" / "derive_corpus.json").write_text(
        json.dumps(
            {
                "source": source,
                "limit_s": w.DERIVE_LIMIT_S,
                "failed_share": sum(e["status"] == "timeout" for e in corpus) / len(corpus),
                "mean_zero_fail": sum(e["code"] == 1 for e in decided),
                "corpus": corpus,
            },
            indent=1,
        )
        + "\n"
    )
    (HERE / "reference" / "mc_grid.json").write_text(
        json.dumps(
            {
                "source": source,
                "argv_seed_0": w.mc_argv(0),
                "results": record_mc(cli.main),
            },
            indent=1,
        )
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
