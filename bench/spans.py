"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces public functions of ``adomian_bvp`` at the module
attribute where each caller looks them up (``solver.apply_inverse`` as well as
``singular_operator.apply_inverse``), so the package itself is not modified.
Each call through a wrapper is a span: its duration counts towards its name
(outermost call only, so recursion is not counted twice) and its self time,
the duration minus that of its child spans, towards its layer.  A layer is the
module that defines the function.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module the caller looks the name up in, attribute).  Several callers of one
# function each hold their own binding, and every binding gets a wrapper.
WRAPPED = (
    ("adomian_bvp", "solve"),
    ("adomian_bvp.cli", "main"),
    ("adomian_bvp.cli", "load_problem"),
    ("adomian_bvp.cli", "solve"),
    ("adomian_bvp.cli", "partial_sum"),
    ("adomian_bvp.cli", "max_error"),
    ("adomian_bvp.cli", "residual"),
    ("adomian_bvp.problem_file", "parse"),
    ("adomian_bvp.solver", "lift_solution"),
    ("adomian_bvp.solver", "eval_lambda"),
    ("adomian_bvp.solver", "extract_adomian"),
    ("adomian_bvp.solver", "apply_inverse"),
    ("adomian_bvp.solver", "inverse_at_one"),
    ("adomian_bvp.solver", "h_series"),
    ("adomian_bvp.singular_operator", "apply_inverse"),
    ("adomian_bvp.diagnostics", "eval_real"),
    ("adomian_bvp.diagnostics", "apply_forward"),
    ("adomian_bvp.lambda_ring", "ring_add"),
    ("adomian_bvp.lambda_ring", "ring_scale"),
    ("adomian_bvp.lambda_ring", "ring_sub"),
    ("adomian_bvp.lambda_ring", "ring_mul"),
    ("adomian_bvp.lambda_ring", "ring_exp"),
    ("adomian_bvp.lambda_ring", "ring_ln"),
    ("adomian_bvp.lambda_ring", "ring_recip"),
    ("adomian_bvp.lambda_ring", "ring_powi"),
    ("adomian_bvp.series", "normalize"),
    ("adomian_bvp.series", "add"),
    ("adomian_bvp.series", "scale"),
    ("adomian_bvp.series", "mul"),
    ("adomian_bvp.series", "differentiate"),
    ("adomian_bvp.series", "evaluate"),
    ("adomian_bvp.series", "evaluate_many"),
)

# name, unit, better: the per-layer metrics every traced run reports.
PER_LAYER = (
    ("expressions.eval_lambda.calls", "count", "lower"),
    ("expressions.eval_lambda.self_s", "s", "lower"),
    ("expressions.parse.s", "s", "lower"),
    ("lambda_ring.self_s", "s", "lower"),
    ("lambda_ring.ring_mul.calls", "count", "lower"),
    ("lambda_ring.lift_solution.s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.raw_terms", "count", "lower"),
    ("series.normalize.calls", "count", "lower"),
    ("series.normalize.in_terms", "count", "lower"),
    ("series.normalize.kept_ratio", "ratio", "higher"),
    ("series.self_s", "s", "lower"),
    ("series.evaluate_many.s", "s", "lower"),
    ("singular_operator.apply_inverse.calls", "count", "lower"),
    ("singular_operator.apply_inverse.s", "s", "lower"),
    ("singular_operator.calls_per_step", "ratio", "lower"),
    ("solver.solve.s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.partial_sum.s", "s", "lower"),
    ("solver.a_k_terms", "count", "lower"),
    ("solver.component_terms", "count", "lower"),
    ("diagnostics.max_error.calls", "count", "lower"),
    ("diagnostics.max_error.s", "s", "lower"),
    ("diagnostics.residual.s", "s", "lower"),
    ("expressions.eval_real.calls", "count", "lower"),
    ("expressions.eval_real.s", "s", "lower"),
    ("problem_file.load_problem.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class StepCensus:
    """Series sizes per decomposition step k, summed over the solves traced."""

    def __init__(self):
        self.solves = Counter()
        self.a_terms = Counter()
        self.y_terms = Counter()
        self.raw_terms = Counter()
        self.raw_peak = Counter()

    def rows(self) -> list[tuple[int, int, float, float, float, int]]:
        """(k, solves, mean A_k terms, mean y_(k+1) terms, mean raw product terms, peak)."""
        out = []
        for k in sorted(self.solves):
            m = self.solves[k]
            out.append((k, m, self.a_terms[k] / m, self.y_terms[k] / m,
                        self.raw_terms[k] / m, self.raw_peak[k]))
        return out


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)  # name -> outermost inclusive time
        self.self_s = defaultdict(float)  # name -> self time
        self.layer_self_s = defaultdict(float)
        self.counts = Counter()
        self.census = StepCensus()
        self._stack: list[list[float]] = []
        self._depth = Counter()
        self._step: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- counters taken from the arguments before a call and its result after --

    def _before(self, name: str, args) -> tuple:
        if name == "series.normalize":
            raw = args[0] if isinstance(args[0], (list, tuple)) else list(args[0])
            self.counts["series.normalize.in_terms"] += len(raw)
            return (raw,) + args[1:]
        if name == "series.mul":
            raw = len(args[0].terms) * len(args[1].terms)
            self.counts["series.mul.raw_terms"] += raw
            if self._step is not None:
                self.census.raw_terms[self._step] += raw
                self.census.raw_peak[self._step] = max(self.census.raw_peak[self._step], raw)
        elif name == "lambda_ring.lift_solution":
            self._step = args[1]
        return args

    def _after(self, name: str, args, result) -> None:
        if name == "series.normalize":
            self.counts["series.normalize.out_terms"] += len(result)
        elif name == "lambda_ring.extract_adomian":
            self.counts["solver.a_k_terms"] += len(result)
            self.census.a_terms[args[1]] += len(result)
        elif name == "solver.solve":
            self._step = None
            for info in result.diagnostics[1:]:
                self.counts["solver.steps"] += 1
                self.counts["solver.component_terms"] += info.terms
                self.census.solves[info.step - 1] += 1
                self.census.y_terms[info.step - 1] += info.terms

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        layer = name.split(".", 1)[0]
        hooked_before = name in ("series.normalize", "series.mul", "lambda_ring.lift_solution")
        hooked_after = name in (
            "series.normalize", "lambda_ring.extract_adomian", "solver.solve")
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            if hooked_before:
                args = self._before(name, args)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                own = elapsed - frame[0]
                self.self_s[name] += own
                self.layer_self_s[layer] += own
                if stack:
                    stack[-1][0] += elapsed
                if not depth[name]:
                    self.total_s[name] += elapsed
                self.calls[name] += 1
            if hooked_after:
                self._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        steps = self.counts["solver.steps"]
        in_terms = self.counts["series.normalize.in_terms"]
        values = {
            "expressions.eval_lambda.calls": self.calls["expressions.eval_lambda"],
            "expressions.eval_lambda.self_s": self.self_s["expressions.eval_lambda"],
            "expressions.parse.s": self.total_s["expressions.parse"],
            "lambda_ring.self_s": self.layer_self_s["lambda_ring"],
            "lambda_ring.ring_mul.calls": self.calls["lambda_ring.ring_mul"],
            "lambda_ring.lift_solution.s": self.total_s["lambda_ring.lift_solution"],
            "series.mul.calls": self.calls["series.mul"],
            "series.mul.raw_terms": self.counts["series.mul.raw_terms"],
            "series.normalize.calls": self.calls["series.normalize"],
            "series.normalize.in_terms": in_terms,
            "series.normalize.kept_ratio": (
                self.counts["series.normalize.out_terms"] / in_terms if in_terms else 0.0),
            "series.self_s": self.layer_self_s["series"],
            "series.evaluate_many.s": self.total_s["series.evaluate_many"],
            "singular_operator.apply_inverse.calls":
                self.calls["singular_operator.apply_inverse"],
            "singular_operator.apply_inverse.s": self.total_s["singular_operator.apply_inverse"],
            "singular_operator.calls_per_step": (
                self.calls["singular_operator.apply_inverse"] / steps if steps else 0.0),
            "solver.solve.s": self.total_s["solver.solve"],
            "solver.self_s": self.layer_self_s["solver"],
            "solver.steps": steps,
            "solver.partial_sum.s": self.total_s["solver.partial_sum"],
            "solver.a_k_terms": self.counts["solver.a_k_terms"],
            "solver.component_terms": self.counts["solver.component_terms"],
            "diagnostics.max_error.calls": self.calls["diagnostics.max_error"],
            "diagnostics.max_error.s": self.total_s["diagnostics.max_error"],
            "diagnostics.residual.s": self.total_s["diagnostics.residual"],
            "expressions.eval_real.calls": self.calls["expressions.eval_real"],
            "expressions.eval_real.s": self.total_s["expressions.eval_real"],
            "problem_file.load_problem.s": self.total_s["problem_file.load_problem"],
            "cli.main.s": self.total_s["cli.main"],
            "cli.self_s": self.layer_self_s["cli"],
            "trace.overhead_ratio": overhead_ratio,
        }
        assert list(values) == [name for name, _, _ in PER_LAYER]
        return values
