"""Span tracing of pentapack's layers from outside the package.

The tracer replaces public functions of `pentapack` with wrappers that
record a span (name, start, end, parent) around each call.  A function is
patched under every module attribute that is bound to it, because
`pentapack.pipeline` binds `solve`, `assemble_problem_A` and the rest by
`from ... import`.  Spans stay in memory until `write`; `layer_metrics`
turns them into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name, summary of the returned value or None)
TARGETS = [
    ("pentapack.pipeline", "step_sample", "pipeline.sample", None),
    ("pentapack.pipeline", "step_generate", "pipeline.generate", None),
    ("pentapack.pipeline", "step_solve", "pipeline.solve", None),
    ("pentapack.pipeline", "step_refine", "pipeline.refine", None),
    ("pentapack.pipeline", "step_project", "pipeline.project", None),
    ("pentapack.pipeline", "step_verify", "pipeline.verify", None),
    ("pentapack.pipeline", "step_bound", "pipeline.bound", None),
    ("pentapack.geometry", "constraint_sample", "geometry.constraint_sample", None),
    ("pentapack.sos", "assemble_problem_A", "sos.assemble_problem_A", None),
    ("pentapack.sos", "recover_tensor", "sos.recover_tensor", None),
    ("pentapack.sdpa", "export_sdpa", "sdpa.export_sdpa", None),
    ("pentapack.sdpa", "export_solution", "sdpa.export_solution", None),
    ("pentapack.sdpa", "import_solution", "sdpa.import_solution", None),
    ("pentapack.solver", "solve", "solver.solve", lambda sol: {"iterations": sol.iterations}),
    ("pentapack.certify", "project_affine", "certify.project_affine", None),
    ("pentapack.certify", "feasibility_margin", "certify.feasibility_margin", None),
    ("pentapack.certify", "build_report", "certify.build_report", None),
    ("pentapack.certify", "_lipschitz_pair", "certify.lipschitz_pair", None),
    (
        "pentapack.certify",
        "verify_nonpositivity",
        "certify.verify_nonpositivity",
        lambda sv: {
            "stream_points": sv.stream_points,
            "evaluations": sv.evaluations,
            "failures": len(sv.failures),
            "aborted": "aborted" in sv.notes,
        },
    ),
    ("pentapack.certify", "MpEvaluator.eval", "certify.mp_eval", None),
]

START, END, PARENT, NAME, INFO = range(5)


class Tracer:
    """Records nested spans of one thread; install with `patch()`."""

    def __init__(self):
        self.spans: list[list] = []  # [start, end, parent index or -1, name, info]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, summary=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [clock(), 0.0, stack[-1] if stack else -1, name, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if summary is not None:
                span[INFO] = summary(out)
            return out

        return traced

    def patch(self) -> None:
        """Wrap every target under each module attribute bound to it."""
        loaded = [m for n, m in sys.modules.items() if n == "pentapack" or n.startswith("pentapack.")]
        for modname, attr, name, summary in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, summary))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, summary)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def unpatch(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, info."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "info": s[INFO]}) + "\n")


def wrapper_overhead(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    clock = time.perf_counter
    best_plain = best_traced = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        probe.spans.clear()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_plain, 0.0) / calls


def _rate(amount: float, count: float) -> float:
    """amount per unit of count; 0 when the layer did no work."""
    return amount / count if count else 0.0


def _ancestor_names(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


def layer_metrics(spans: list[list], reps: int = 1, elapsed=None) -> dict[str, float]:
    """Per-layer times, calls and counters from the spans of `reps` runs.

    Times and counts are per run; rates are taken over all runs.  Self time
    of a span is its duration minus the durations of its direct children
    (spans of one thread nest, so children never overlap).  `elapsed(start,
    end)` turns a span's clock readings into its duration (default: end -
    start); the benchmark passes SpeedClock.elapsed.
    """
    if elapsed is None:
        elapsed = lambda start, end: end - start  # noqa: E731
    child_time = [0.0] * len(spans)
    dur = [elapsed(s[START], s[END]) for s in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + dur[i] - child_time[i]

    def t(name):
        return total.get(name, 0.0) / reps

    def n(name):
        return calls.get(name, 0) / reps

    m: dict[str, float] = {}
    for step in ("sample", "generate", "solve", "refine", "project", "verify", "bound"):
        m[f"pipeline.{step}_s"] = t(f"pipeline.{step}")
    m["geometry.constraint_sample_s"] = t("geometry.constraint_sample")
    m["geometry.constraint_sample_calls"] = n("geometry.constraint_sample")
    m["sos.assemble_problem_A_s"] = t("sos.assemble_problem_A")
    m["sos.assemble_problem_A_calls"] = n("sos.assemble_problem_A")
    m["sos.s_per_assembly"] = _rate(t("sos.assemble_problem_A"), n("sos.assemble_problem_A"))
    m["sos.recover_tensor_s"] = t("sos.recover_tensor")
    m["sdpa.export_s"] = t("sdpa.export_sdpa") + t("sdpa.export_solution")
    m["sdpa.import_s"] = t("sdpa.import_solution")

    # the pipeline calls the solver twice: the solve step and the refine step
    solver = {"solve": [0.0, 0], "refine": [0.0, 0]}
    for i, s in enumerate(spans):
        if s[NAME] != "solver.solve":
            continue
        step = "refine" if "pipeline.refine" in _ancestor_names(spans, i) else "solve"
        solver[step][0] += dur[i]
        solver[step][1] += s[INFO]["iterations"]
    for step, (secs, its) in solver.items():
        m[f"solver.{step}_s"] = secs / reps
        m[f"solver.{step}_iterations"] = its / reps
    its = (solver["solve"][1] + solver["refine"][1]) / reps
    m["solver.s_per_iteration"] = _rate(t("solver.solve"), its)

    m["certify.project_affine_s"] = t("certify.project_affine")
    m["certify.feasibility_margin_s"] = t("certify.feasibility_margin")
    m["certify.build_report_s"] = t("certify.build_report")
    m["certify.lipschitz_s"] = t("certify.lipschitz_pair")
    m["certify.mp_eval_calls"] = n("certify.mp_eval")
    m["certify.mp_eval_s"] = t("certify.mp_eval")
    m["certify.mp_eval_us"] = 1e6 * _rate(t("certify.mp_eval"), n("certify.mp_eval"))
    m["certify.verify_s"] = t("certify.verify_nonpositivity")
    box = 0.0
    counters = {"stream_points": 0, "evaluations": 0, "failures": 0, "aborted": 0}
    for i, s in enumerate(spans):
        if s[NAME] == "certify.verify_nonpositivity":
            box += dur[i] - child_time[i]
            for key in counters:
                counters[key] += int(s[INFO][key])
    m["certify.verify_box_s"] = box / reps
    for key, value in counters.items():
        m[f"certify.verify_{key}"] = value / reps
    m["certify.verify_useful_ratio"] = _rate(counters["stream_points"], counters["evaluations"])
    for layer in ("pipeline", "geometry", "sos", "sdpa", "solver", "certify"):
        m[f"{layer}.self_s"] = self_time.get(layer, 0.0) / reps
    return m
