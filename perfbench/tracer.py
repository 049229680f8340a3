"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``eicalg`` modules from outside:
``install`` rebinds each traced function in every ``eicalg`` module that
holds it (and in ``verify.SUITES``), and ``uninstall`` puts the originals
back.  A wrapper records a span (label, start, end, parent, call index) only
for the outermost active call of its label, so recursive functions such as
``evaluate_rv`` or ``canonicalize_func`` give one span per outer call.

Self time of a span is its duration minus the time covered by its child
spans.  Spans are kept in compact arrays while the run lasts and written out
at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

ROOT_LABEL = "cli.main"

_FUZZ = (
    "bracket_P_prod", "bracket_prod_T", "bracket_T_P", "nested_T_P_prod",
    "nested_P_prod_T", "nested_prod_T_P", "jacobi_sum", "corollary_leibniz",
    "corollary_cov",
)
_DRAWS = ("random_space", "random_intvec", "random_score", "random_binding")
_SUITES = ("decomposition", "brackets", "corollaries", "lemma", "jacobi", "eic-certificates")


def _form_terms(rec, args, form):
    rec.counters["canon.form_terms"] += len(form.num) + len(form.den)


def _trace_steps(rec, args, result):
    rec.counters["eic.trace_steps"] += len(result.trace)


def _outcomes(rec, args, result):
    rec.counters["measure.expectation.outcomes"] += args[0].size


def _rows(rec, args, data):
    rec.counters["estimate.rows"] += data.n


def _distinct(rec, args, result):
    rec.counters["estimate.distinct_support"] += result[0].size


def _replicates(rec, args, report):
    rec.counters["mc.replicates"] += report.replicates


def _tokens(rec, args, tokens):
    rec.counters["parser.tokens"] += len(tokens)


# (module, attribute, label, hook run on the outermost call's result)
TRACED = [
    ("eicalg.cli", "_emit", "cli.emit", None),
    ("eicalg.cli", "build_parser", "cli.build_parser", None),
    ("eicalg.parser", "parse_expression", "parser.parse_expression", None),
    ("eicalg.canon", "normalize_functional", "canon.normalize_functional", None),
    ("eicalg.canon", "canonicalize_func", "canon.canonicalize_func", _form_terms),
    ("eicalg.canon", "canonicalize_rv", "canon.canonicalize_rv", _form_terms),
    ("eicalg.canon", "rv_from_form", "canon.from_form", None),
    ("eicalg.canon", "func_from_form", "canon.from_form", None),
    ("eicalg.eic", "derive_eic", "eic.derive_eic", _trace_steps),
    ("eicalg.eic", "certify_eic", "eic.certify_eic", None),
    ("eicalg.eic", "pathwise_derivative_exact", "eic.pathwise_derivative_exact", None),
    ("eicalg.eic", "mean_zero_certificate", "eic.mean_zero_certificate", None),
    ("eicalg.expr", "evaluate_func", "expr.evaluate_func", None),
    ("eicalg.expr", "evaluate_rv", "expr.evaluate_rv", None),
    ("eicalg.expr", "render_func", "expr.render", None),
    ("eicalg.expr", "render_rv", "expr.render", None),
    ("eicalg.measure", "expectation", "measure.expectation", _outcomes),
    ("eicalg.estimate", "read_delimited", "estimate.read_delimited", _rows),
    ("eicalg.estimate", "empirical_space", "estimate.empirical_space", _distinct),
    ("eicalg.estimate", "plugin_estimate", "estimate.plugin_estimate", None),
    ("eicalg.estimate", "eic_standard_error", "estimate.eic_standard_error", None),
    ("eicalg.estimate", "onestep_estimate", "estimate.onestep_estimate", None),
    ("eicalg.estimate", "eic_variance", "mc.eic_variance", None),
    ("eicalg.mc", "run_mc", "mc.run_mc", _replicates),
    ("eicalg.brackets", "symbolic_identity_suite", "brackets.symbolic_identity_suite", None),
    *(("eicalg.brackets", name, "brackets.fuzz", None) for name in _FUZZ),
    *(("eicalg.sampling", name, "sampling.draw", None) for name in _DRAWS),
    *(
        ("eicalg.verify", "suite_" + s.replace("-", "_"), f"verify.suite.{s}", None)
        for s in _SUITES
    ),
]


# (module, attribute, hook): counted on every call, no span
COUNTED = [("eicalg.parser", "tokenize", _tokens)]

# every counter the hooks above bump, besides "<label>.calls"
COUNTERS = (
    "parser.tokens", "canon.form_terms", "eic.trace_steps",
    "measure.expectation.outcomes", "measure.spaces_built", "estimate.rows",
    "estimate.distinct_support", "mc.replicates",
)


class SpanRecorder:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.call = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self.call_index = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self._mc_space_sizes: list[int] | None = None

    # -- spans -------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _open(self, label: str) -> int:
        index = len(self.start)
        self.label_of.append(self._label_id(label))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self.call_index)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def root(self, call_index: int, fn, *args):
        """Run one CLI call as the root span of its call index."""
        self.call_index = call_index
        index = self._open(ROOT_LABEL)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def wrap(self, label: str, fn, hook=None):
        active = self._active
        counters = self.counters

        def traced(*args, **kwargs):
            if active[label]:
                return fn(*args, **kwargs)
            active[label] += 1
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                active[label] -= 1
            counters[label + ".calls"] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installing and removing the wrappers ------------------------------

    def _rebind(self, original, replacement) -> int:
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "eicalg" or name.startswith("eicalg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)
                    count += 1
        suites = sys.modules["eicalg.verify"].SUITES
        for key, value in list(suites.items()):
            if value is original:
                self._patches.append((suites, key, original))
                suites[key] = replacement
                count += 1
        return count

    def install(self) -> None:
        for module_name, attr, label, hook in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            if not self._rebind(original, self.wrap(label, original, hook)):
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
        for module_name, attr, hook in COUNTED:
            original = getattr(importlib.import_module(module_name), attr)
            self._rebind(original, self.count(original, hook))
        self._install_space_counter()

    def _install_space_counter(self) -> None:
        """Count FiniteProbSpace constructions; inside run_mc, keep their
        sizes (the first is the true law, the rest one per replicate)."""
        space_cls = sys.modules["eicalg.measure"].FiniteProbSpace
        post_init = space_cls.__post_init__
        recorder = self

        def counted_post_init(space):
            post_init(space)
            recorder.counters["measure.spaces_built"] += 1
            if recorder._mc_space_sizes is not None:
                recorder._mc_space_sizes.append(len(space.outcomes))

        self._patches.append((space_cls, "__post_init__", post_init))
        space_cls.__post_init__ = counted_post_init

        mc = sys.modules["eicalg.mc"]
        traced_run_mc = mc.run_mc

        def run_mc(config):
            outer = recorder._mc_space_sizes is None
            if outer:
                recorder._mc_space_sizes = []
            try:
                return traced_run_mc(config)
            finally:
                if outer:
                    kept = recorder._mc_space_sizes[1:]
                    recorder.counters["mc.kept_support_sum"] += sum(kept)
                    recorder._mc_space_sizes = None

        self._rebind(traced_run_mc, run_mc)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per label, summed over its spans."""
        covered = array("q", bytes(8 * len(self.start)))
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals: dict[str, int] = defaultdict(int)
        for i in range(len(self.start)):
            own = self.end[i] - self.start[i] - covered[i]
            totals[self.labels[self.label_of[i]]] += own
        return {label: ns / 1e9 for label, ns in totals.items()}

    def write_spans(self, path) -> None:
        """One JSON array per line: label, start_ns, end_ns, parent, call."""
        with open(path, "w") as out:
            for i in range(len(self.start)):
                out.write(
                    json.dumps(
                        [
                            self.labels[self.label_of[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.call[i],
                        ]
                    )
                    + "\n"
                )
