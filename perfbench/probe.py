"""Set-up probe: time `import eicalg.cli` in a fresh interpreter.

Usage: ``python3 perfbench/probe.py``, with ``src`` on ``PYTHONPATH``.
Prints a JSON list: the seconds of the import, and the median time of the
calibration chunks that run for 0.15 s right after it.  Nothing but
``time`` is imported before the timed import.
"""

import time

started = time.perf_counter()
import eicalg.cli  # noqa: E402,F401

import_s = time.perf_counter() - started

import json  # noqa: E402
import statistics  # noqa: E402

from worker import calibrate  # noqa: E402

print(json.dumps([import_s, statistics.median(calibrate(0.15))]))
