"""The four benchmark workloads: seeded inputs, rounds of CLI calls, and
output checks that do not share code with the program under test.

A workload turns a seed into a job for ``worker.py``: the argv lists it
passes to ``eicalg.cli.main`` and the order in which they run, grouped in
rounds.  One round is the unit of throughput: one ``estimate`` call, one
``simulate`` call, one ``verify all`` call, or one full pass over the derive
corpus.  After the worker has finished, ``check`` decides each recorded call
against a closed form or against the references recorded from the
unmodified program in ``perfbench/reference``.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# derive-corpus: the expression grammar of the repository's round-trip
# corpus, 300 expressions of depth 1 to 3, each with a wall-clock limit.
CORPUS_SIZE = 300
DERIVE_LIMIT_S = 2.0
DERIVE_TRACE_ROUNDS = 2

# estimate-csv
ESTIMATE_ROWS = 10_000
ESTIMATE_WARMUP_ROWS = 200
ESTIMAND = "Cov(X,Y)*inv(Var(X))"
SPLIT = "0.5"
ESTIMATE_TRACE_ROUNDS = 2

# mc-grid: a gaussian grid of 41 points, mean 1, sd 2 and the default span 4
MC_TABLE_SIZE = 64
MC_REPLICATES = 300
MC_N = 10_000
MC_GRID = {"mean": "1", "sd": "2", "points": "41"}
MC_SPAN = 4
MC_TRACE_ROUNDS = 4

# verify-all: 8 fuzz identities and 5 gradient certificates per trial
VERIFY_TRIALS = 100
VERIFY_FUZZ_CHECKS = 8
VERIFY_CERTIFICATES = 5
VERIFY_RECORDS = 24
VERIFY_TRACE_ROUNDS = 4

MAX_ROUNDS = 2000


# ---------------------------------------------------------------------------
# derive-corpus


_LEAVES = ("X", "Y", "Z2", "0", "1", "2.5", "0.125", "7", "E[X]", "E[Y]")


def grammar_expression(rng: random.Random, depth: int) -> str:
    """One expression of the surface grammar: sums, products, powers,
    expectations, inv, Var and Cov."""
    if depth <= 0:
        return rng.choice(_LEAVES)
    kind = rng.randrange(8)
    a = grammar_expression(rng, depth - 1)
    b = grammar_expression(rng, depth - 1)
    if kind == 0:
        return f"{a} + {b}"
    if kind == 1:
        return f"{a} - {b}"
    if kind == 2:
        return f"{a}*{b}"
    if kind == 3:
        return f"({a})^{rng.randint(0, 3)}"
    if kind == 4:
        return f"E[{a}]"
    if kind == 5:
        return f"inv({a} + 1)"
    if kind == 6:
        return rng.choice([f"Var({rng.choice('XY')})", f"Cov(X,{rng.choice('XY')})"])
    return f"({a})"


def derive_corpus() -> list[str]:
    """The fixed corpus; it does not depend on the workload seed."""
    corpus = []
    for index in range(CORPUS_SIZE):
        rng = random.Random(f"derive-corpus:{index}")
        corpus.append(grammar_expression(rng, rng.randint(1, 3)))
    return corpus


def derive_argv(expression: str) -> list[str]:
    return ["--output", "structured", "derive", expression]


# ---------------------------------------------------------------------------
# estimate-csv


def estimate_rows(seed: int, n: int) -> list[tuple[str, str]]:
    """Correlated 3-decimal (X, Y) pairs; nearly every row is distinct."""
    rng = random.Random(f"estimate-csv:{seed}")
    rows = []
    for _ in range(n):
        x = rng.gauss(0.0, 1.0)
        y = 0.5 * x + rng.gauss(0.0, 1.0)
        rows.append((f"{x:.3f}", f"{y:.3f}"))
    return rows


def csv_text(rows) -> str:
    return "X,Y\n" + "".join(f"{x},{y}\n" for x, y in rows)


def estimate_argv(csv_path: str) -> list[str]:
    return [
        "--output", "structured", "estimate", ESTIMAND,
        "--data", csv_path, "--split", SPLIT,
    ]


def _milli(cell: str) -> int:
    """A 3-decimal cell as an integer count of thousandths."""
    whole, _, frac = cell.partition(".")
    if len(frac) != 3:
        raise ValueError(f"not a 3-decimal cell: {cell!r}")
    return int(whole + frac)


def _slope_sums(xs, ys):
    """Centered sums for the OLS slope, scaled to integers.

    With X_i = x_i/1000 over n rows, u_i = n*x_i - sum(x) is 1000*n times
    the centered X_i (likewise v_i for Y), so Sxx = sum(u^2) and
    Sxy = sum(u*v) are exact integers and the slope is Sxy/Sxx.
    """
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    us = [n * x - sx for x in xs]
    vs = [n * y - sy for y in ys]
    sxx = sum(u * u for u in us)
    sxy = sum(u * v for u, v in zip(us, vs))
    return n, sx, sy, sxx, sxy, us, vs


def estimate_expected(rows) -> dict:
    """Closed forms for Cov(X,Y)/Var(X): plug-in, standard error, one-step.

    The influence function of the slope at a law with means (mx, my),
    Var(X) = V and slope b is (X - mx)((Y - my) - b(X - mx))/V.  In the
    integer scaling of ``_slope_sums`` it is n*u*(Sxx*v - Sxy*u)/Sxx^2, so
    its variance under the empirical law (its mean is exactly zero) is
    n*sum(w^2)/Sxx^4 with w = u*(Sxx*v - Sxy*u).
    """
    xs = [_milli(x) for x, _ in rows]
    ys = [_milli(y) for _, y in rows]
    n, _, _, sxx, sxy, us, vs = _slope_sums(xs, ys)
    slope = Fraction(sxy, sxx)
    w2 = sum((u * (sxx * v - sxy * u)) ** 2 for u, v in zip(us, vs))
    variance = Fraction(n * w2, sxx**4)
    se = math.sqrt(variance / n)

    # one-step: fit on the first k rows, correct by the held-out mean of the
    # fitted influence function k*p*(Sxx_f*q - Sxy_f*p)/Sxx_f^2, where
    # p = k*x - sum_fit(x) and q = k*y - sum_fit(y)
    k = int(Fraction(SPLIT) * n)
    kf, sx_f, sy_f, sxx_f, sxy_f, _, _ = _slope_sums(xs[:k], ys[:k])
    held = list(zip(xs[k:], ys[k:]))
    total = 0
    for x, y in held:
        p, q = kf * x - sx_f, kf * y - sy_f
        total += p * (sxx_f * q - sxy_f * p)
    correction = Fraction(kf * total, len(held) * sxx_f**2)
    onestep = Fraction(sxy_f, sxx_f) + correction
    return {"estimate": slope, "standard_error": se, "onestep": onestep, "n": n}


def check_estimate(doc: dict, expected: dict, level: float = 0.95) -> str | None:
    result = doc["results"][0]
    if Fraction(result["estimate"]) != expected["estimate"]:
        return f"estimate {result['estimate']} != {expected['estimate']}"
    if result["estimate_float"] != float(expected["estimate"]):
        return "estimate_float is not the float of the exact estimate"
    if result["standard_error"] != expected["standard_error"]:
        return (
            f"standard_error {result['standard_error']!r}"
            f" != {expected['standard_error']!r}"
        )
    if Fraction(result["onestep"]) != expected["onestep"]:
        return f"onestep {result['onestep']} != {expected['onestep']}"
    if result["onestep_float"] != float(expected["onestep"]):
        return "onestep_float is not the float of the exact one-step value"
    if result["n"] != expected["n"]:
        return f"n {result['n']} != {expected['n']}"
    z = statistics.NormalDist().inv_cdf((1 + level) / 2)
    half = z * expected["standard_error"]
    centre = float(expected["estimate"])
    for key, want in (("ci_low", centre - half), ("ci_high", centre + half)):
        if not math.isclose(result[key], want, rel_tol=1e-9, abs_tol=1e-12):
            return f"{key} {result[key]!r} is not estimate -/+ z*se ({want!r})"
    return None


# ---------------------------------------------------------------------------
# mc-grid


def mc_argv(mc_seed: int) -> list[str]:
    return [
        "--output", "structured", "simulate", "--family", "gaussian-grid",
        "--mean", MC_GRID["mean"], "--sd", MC_GRID["sd"],
        "--points", MC_GRID["points"], "--estimand", "Var(X)",
        "--n", str(MC_N), "--replicates", str(MC_REPLICATES),
        "--seed", str(mc_seed),
    ]


def mc_expected_exact() -> tuple[Fraction, Fraction]:
    """Var(X) and the variance of its influence function, (X-mu)^2 - Var,
    over the gaussian grid: grid points mean +/- span*sd, weights the normal
    density at each point (as a float, taken exactly) over their sum."""
    mean, sd = Fraction(MC_GRID["mean"]), Fraction(MC_GRID["sd"])
    points = int(MC_GRID["points"])
    step = 2 * MC_SPAN * sd / (points - 1)
    support = [mean - MC_SPAN * sd + step * i for i in range(points)]
    raw = [Fraction(math.exp(-float((v - mean) / sd) ** 2 / 2)) for v in support]
    total = sum(raw)
    weights = [r / total for r in raw]
    mu = sum(w * v for w, v in zip(weights, support))
    var = sum(w * (v - mu) ** 2 for w, v in zip(weights, support))
    fourth = sum(w * (v - mu) ** 4 for w, v in zip(weights, support))
    return var, fourth - var * var


def check_mc(doc: dict, reference: dict, exact: tuple[Fraction, Fraction]) -> str | None:
    result = doc["results"][0]
    truth, bound = exact
    if result["truth_exact"] != str(truth):
        return f"truth_exact {result['truth_exact']} != {truth}"
    if result["bound_exact"] != str(bound):
        return f"bound_exact {result['bound_exact']} != {bound}"
    if result["truth"] != float(truth) or result["bound"] != float(bound):
        return "truth or bound is not the float of its exact value"
    for key, want in reference.items():
        if result.get(key) != want:
            return f"{key} {result.get(key)!r} != recorded {want!r}"
    return None


# ---------------------------------------------------------------------------
# verify-all


def verify_argv(verify_seed: int) -> list[str]:
    return [
        "--output", "structured", "verify", "all",
        "--trials", str(VERIFY_TRIALS), "--seed", str(verify_seed),
    ]


def check_verify(doc: dict) -> str | None:
    results = doc["results"]
    if len(results) != VERIFY_RECORDS:
        return f"{len(results)} identity records, expected {VERIFY_RECORDS}"
    failing = [r["name"] for r in results if r["verdict"] != "pass"]
    if failing:
        return f"verdict fail: {', '.join(failing)}"
    if doc["inputs"]["trials"] != VERIFY_TRIALS:
        return "trial count differs from the request"
    return None


# ---------------------------------------------------------------------------
# job construction and checking


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text())


class Workload:
    """Inputs, rounds and checks for one workload at one seed."""

    name = ""
    unit = ""  # unit of work counted by work_per_s
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def job(self) -> dict:
        """argvs, rounds (lists of argv indices), warm-up argvs, per-call
        limit and the work each round does."""
        raise NotImplementedError

    def check(self, call: dict) -> str | None:
        """None if the recorded call is right, else the reason it is wrong."""
        raise NotImplementedError

    def _rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))


class DeriveCorpus(Workload):
    name = "derive-corpus"
    unit = "expressions"
    trace_rounds = DERIVE_TRACE_ROUNDS

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.corpus = derive_corpus()
        self.reference = load_reference("derive_corpus.json")
        recorded = [entry["expression"] for entry in self.reference["corpus"]]
        if recorded != self.corpus:
            raise RuntimeError("derive corpus differs from the recorded reference")

    def job(self):
        rounds = []
        for index in range(MAX_ROUNDS // 10):
            order = list(range(CORPUS_SIZE))
            random.Random(f"derive-corpus:{self.seed}:{index}").shuffle(order)
            rounds.append(order)
        return {
            "argvs": [derive_argv(e) for e in self.corpus],
            "rounds": rounds,
            "warmup": [derive_argv(e) for e in self.corpus[:20]],
            "limit_s": DERIVE_LIMIT_S,
            "work_per_round": CORPUS_SIZE,
            "keep": "derive",
        }

    def check(self, call):
        ref = self.reference["corpus"][call["arg"]]
        if call["timeout"]:
            return f"no result within {DERIVE_LIMIT_S} s"
        if ref["status"] == "timeout":
            # newly decided: it must carry a passing mean-zero verdict
            if call["code"] != 0 or call.get("mean_zero") is not True:
                return "newly decided expression without a passing mean-zero verdict"
            return None
        if call["code"] != ref["code"]:
            return f"exit code {call['code']} != recorded {ref['code']}"
        if call["stdout_sha256"] != ref["stdout_sha256"]:
            return "structured document differs from the recorded one"
        if call["stderr_sha256"] != ref["stderr_sha256"]:
            return "error message differs from the recorded one"
        if ref["status"] == "decided" and call.get("mean_zero") is not True:
            return "mean-zero verdict is not pass"
        return None


class EstimateCsv(Workload):
    name = "estimate-csv"
    unit = "rows"
    trace_rounds = ESTIMATE_TRACE_ROUNDS

    def job(self):
        rows = estimate_rows(self.seed, ESTIMATE_ROWS)
        data = self.workdir / "data.csv"
        warm = self.workdir / "warmup.csv"
        data.write_text(csv_text(rows))
        warm.write_text(csv_text(rows[:ESTIMATE_WARMUP_ROWS]))
        self.expected = estimate_expected(rows)
        return {
            "argvs": [estimate_argv(self._rel(data))],
            "rounds": [[0]] * MAX_ROUNDS,
            "warmup": [estimate_argv(self._rel(warm))],
            "limit_s": None,
            "work_per_round": ESTIMATE_ROWS,
            "keep": "doc",
        }

    def check(self, call):
        if call["code"] != 0:
            return f"exit code {call['code']}"
        return check_estimate(call["doc"], self.expected)


class McGrid(Workload):
    name = "mc-grid"
    unit = "replicates"
    trace_rounds = MC_TRACE_ROUNDS

    def job(self):
        self.reference = load_reference("mc_grid.json")
        self.exact = mc_expected_exact()
        order = list(range(MC_TABLE_SIZE))
        random.Random(f"mc-grid:{self.seed}").shuffle(order)
        self.mc_seeds = order
        return {
            "argvs": [mc_argv(s) for s in order],
            "rounds": [[i % MC_TABLE_SIZE] for i in range(MAX_ROUNDS)],
            "warmup": [mc_argv(order[0])[:-4] + ["--replicates", "5", "--seed", "0"]],
            "limit_s": None,
            "work_per_round": MC_REPLICATES,
            "keep": "doc",
        }

    def check(self, call):
        if call["code"] != 0:
            return f"exit code {call['code']}"
        mc_seed = self.mc_seeds[call["arg"]]
        return check_mc(call["doc"], self.reference["results"][str(mc_seed)], self.exact)


class VerifyAll(Workload):
    name = "verify-all"
    unit = "instances"
    trace_rounds = VERIFY_TRACE_ROUNDS

    def job(self):
        rng = random.Random(f"verify-all:{self.seed}")
        seeds = [rng.randrange(10**6) for _ in range(MAX_ROUNDS)]
        instances = VERIFY_TRIALS * (VERIFY_FUZZ_CHECKS + VERIFY_CERTIFICATES)
        return {
            "argvs": [verify_argv(s) for s in seeds],
            "rounds": [[i] for i in range(MAX_ROUNDS)],
            "warmup": [["--output", "structured", "verify", "all", "--trials", "2"]],
            "limit_s": None,
            "work_per_round": instances,
            "keep": "doc",
        }

    def check(self, call):
        if call["code"] != 0:
            return f"exit code {call['code']}"
        return check_verify(call["doc"])


WORKLOADS = {w.name: w for w in (EstimateCsv, McGrid, VerifyAll, DeriveCorpus)}
