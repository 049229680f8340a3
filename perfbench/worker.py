"""One workload run in a fresh interpreter.

Usage::

    python3 perfbench/worker.py run JOB.json RESULT.json

The worker imports ``eicalg.cli``, calls ``eicalg.cli.main(argv)`` with stdout and
stderr captured for each argv of the job, one call at a time in a single
thread (a closed loop with one client), and writes what each call returned
to RESULT.json.  Calls run round by round until the job's time budget is
spent; a job without a budget runs all of its rounds.  A call that exceeds
the job's per-call limit is stopped by a timer signal and recorded as a
timeout.  With ``"trace": true`` the calls run under the span recorder.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path


class CallTimeout(BaseException):
    """Raised by the timer signal; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


# the calibration's data: 3-decimal values and small weights, as in the
# estimate workload, and about as many as one of its columns holds
_CAL_VALUES = [Fraction((i * 7919) % 10007 - 5003, 1000) for i in range(12000)]
_CAL_WEIGHTS = [Fraction(1 + i % 7, 60000) for i in range(12000)]
CALIBRATION_SHARE = 0.1  # of the measuring time, spent calibrating


def calibrate(seconds: float) -> list[float]:
    """Times of a fixed chunk of pure-Python exact arithmetic, repeated for
    about ``seconds`` (at least once).

    The chunk shares no code with the program under test.  Run between
    measurements, it tells how fast the machine is running at that moment,
    so that timings can be scaled to a reference speed (see run.py).
    """
    times = []
    end = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        products = [w * v for w, v in zip(_CAL_WEIGHTS, _CAL_VALUES)]
        sum(products, Fraction(0))
        now = time.perf_counter()
        times.append(now - started)
        if now >= end:
            return times


def import_cli():
    started = time.perf_counter()
    import eicalg.cli

    return eicalg.cli, time.perf_counter() - started


def _call(main, argv, limit_s, recorder=None, index=0):
    """Run main(argv); return (seconds, exit code or None, stdout, stderr).

    Under a recorder the call is the root span of call ``index``."""
    out, err = io.StringIO(), io.StringIO()
    code, started = None, time.perf_counter()
    try:
        if limit_s:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = recorder.root(index, main, argv) if recorder else main(argv)
    except CallTimeout:
        pass
    finally:
        if limit_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - started, code, out.getvalue(), err.getvalue()


def _record(keep, arg, round_index, seconds, code, stdout, stderr) -> dict:
    call = {
        "arg": arg,
        "round": round_index,
        "seconds": seconds,
        "code": code,
        "timeout": code is None,
    }
    if code is None:
        return call
    doc = json.loads(stdout) if stdout else None
    if keep == "derive":
        call["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        call["stderr_sha256"] = hashlib.sha256(stderr.encode()).hexdigest()
        call["mean_zero"] = doc["results"][0]["mean_zero"] if doc else None
    else:
        call["doc"] = doc
        call["stderr"] = stderr[-2000:]
    return call


def run_job(job: dict) -> dict:
    cli, import_s = import_cli()
    signal.signal(signal.SIGALRM, _on_alarm)
    limit_s = job["limit_s"]
    # warm-up calls are neither timed nor checked
    for argv in job["warmup"]:
        _call(cli.main, argv, limit_s)

    recorder = None
    if job["trace"]:
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    calls, round_seconds, calibrations = [], [], calibrate(0.1)
    budget = job["seconds"]
    started = time.perf_counter()
    try:
        for round_index, order in enumerate(job["rounds"]):
            if budget is not None and round_index >= job["min_rounds"]:
                if time.perf_counter() - started >= budget:
                    break
            spent = 0.0
            for arg in order:
                seconds, code, stdout, stderr = _call(
                    cli.main, job["argvs"][arg], limit_s, recorder, len(calls)
                )
                spent += seconds
                calls.append(
                    _record(job["keep"], arg, round_index, seconds, code, stdout, stderr)
                )
            round_seconds.append(spent)
            calibrations += calibrate(CALIBRATION_SHARE * spent)
    finally:
        if recorder is not None:
            recorder.uninstall()

    result = {
        "import_s": import_s,
        "round_seconds": round_seconds,
        "calibrations": calibrations,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        result["self_s"] = recorder.self_times()
        result["counters"] = dict(recorder.counters)
        result["spans"] = len(recorder.start)
        recorder.write_spans(job["spans_path"])
    return result


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "run":
        job = json.loads(Path(argv[1]).read_text())
        Path(argv[2]).write_text(json.dumps(run_job(job)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
