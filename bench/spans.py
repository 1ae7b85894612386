"""Spans around prymlab's public entry points, and the per-layer numbers
drawn from them.

`instrument` wraps each function in TARGETS for the duration of a traced
pass.  The wrapper is installed wherever prymlab binds the function:
`from .algebra import tridiag_minor_det` in morphism and verify, or
`from .symbolic import solve_affine` in painleve, would otherwise call the
original and escape the span.  Spans stay in memory until the run ends.

A layer's self time is the time of its spans minus the part covered by
their child spans; the root span of each pass (Tracer.ROOT) keeps what
no wrapped call covers, so the self times of all layers plus the
unattributed remainder add up to the traced wall time.  Time that a
layer spends in another layer's code without a public entry point
(`Poly` arithmetic inside `phi`, say) stays with the caller.

Call counts of the hot scalar and polynomial methods come from a
separate pass under cProfile; times are never read from it.
"""

from __future__ import annotations

import cProfile
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import wraps

from prymlab import algebra, symbolic, verify

# span name -> (module, attribute path); the layer is the span name's prefix
TARGETS = {
    "algebra.tridiag_minor_det": ("algebra", "tridiag_minor_det"),
    "algebra.pr_split": ("algebra", "pr_split"),
    "algebra.pr_split_from": ("algebra", "pr_split_from"),
    "algebra.divided_difference": ("algebra", "divided_difference"),
    "morphism.phi": ("morphism", "phi"),
    "morphism.phi_inverse": ("morphism", "phi_inverse"),
    "morphism.quad_mumford_table": ("morphism", "quad_mumford_table"),
    "symbolic.jacobi_holds": ("symbolic", "BracketTable.jacobi_holds"),
    "symbolic.jacobiator": ("symbolic", "BracketTable.jacobiator"),
    "symbolic.solve_affine": ("symbolic", "solve_affine"),
    "mumford.mumford_bracket_table": ("mumford", "mumford_bracket_table"),
    "prym.reduce_mumford_table": ("prym", "reduce_mumford_table"),
    "prym.prym_bracket_table": ("prym", "prym_bracket_table"),
    "prym.tables_equal": ("prym", "tables_equal"),
    "prym.prym_flow_symbolic": ("prym", "prym_flow_symbolic"),
    "toda.toda_flow": ("toda", "toda_flow"),
    "toda.toda_bracket_table": ("toda", "toda_bracket_table"),
    "toda.toda_pencil_table": ("toda", "toda_pencil_table"),
    "toda.km_field_symbolic": ("toda", "km_field_symbolic"),
    "toda.km_even_split_symbolic": ("toda", "km_even_split_symbolic"),
    "painleve.laurent_balance": ("painleve", "laurent_balance"),
    "painleve.free_slots": ("painleve", "free_slots"),
    "painleve.km_residual": ("painleve", "km_residual"),
    "painleve.kowalevski": ("painleve", "kowalevski"),
    "painleve.make_balance": ("painleve", "make_balance"),
    "painleve.sigma_enum": ("painleve", "sigma_enum"),
    "painleve.sigma_enum_brute": ("painleve", "sigma_enum_brute"),
    "example5.divisor_points": ("example5", "divisor_points"),
    "example5.incidence_data": ("example5", "incidence_data"),
    "example5.balance_limit": ("example5", "balance_limit"),
    "numerics.integrate": ("numerics", "integrate"),
}

LAYERS = ("algebra", "morphism", "symbolic", "mumford", "prym", "toda",
          "painleve", "example5", "numerics", "verify")
FLOW_SYSTEMS = ("toda", "km", "mumford", "prym")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.info = name, start, start, parent, None

    def to_json(self, origin: float) -> list:
        return [self.name, self.start - origin, self.end - origin, self.parent, self.info]


class Tracer:
    """Spans of one run, in opening order; a span's parent is the index of
    the span open around it, or -1."""

    ROOT = "bench.pass"  # one per traced pass; its self time is benchmark glue

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()


def _wrapper(tracer: Tracer, name: str, fn):
    @wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if name == "numerics.integrate":
            tracer.spans[index].info = {"system": args[0], "steps": len(result.times) - 1,
                                        "truncated": result.truncated}
        return result
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every TARGETS function through a span while the block runs."""
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "prymlab" or key.startswith("prymlab."))]
    patched = []
    try:
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[f"prymlab.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = _wrapper(tracer, name, original)
            homes = [owner] if outer else [m for m in modules if vars(m).get(attr) is original]
            for home in homes:
                setattr(home, attr, traced)
                patched.append((home, attr, original))
        yield tracer
    finally:
        for home, attr, original in reversed(patched):
            setattr(home, attr, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass self and busy times, call counts and flow rates."""
    spans = tracer.spans
    duration = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            covered[s.parent] += duration[i]
    self_time = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for i, s in enumerate(spans):
        self_time[s.name.split(".")[0]] += duration[i] - covered[i]

    def outermost(names):
        """Spans named in `names` with no ancestor named in `names`."""
        for i, s in enumerate(spans):
            if s.name in names:
                parent = s.parent
                while parent >= 0 and spans[parent].name not in names:
                    parent = spans[parent].parent
                if parent < 0:
                    yield i

    def busy(*names):
        return sum(duration[i] for i in outermost(names)) / passes

    def calls(name):
        return sum(1 for s in spans if s.name == name) / passes

    m = {f"{layer}.self_s": self_time[layer] / passes for layer in LAYERS}
    m["unattributed_s"] = self_time["bench"] / passes
    m["trace.wall_s"] = busy(Tracer.ROOT)
    m.update({
        "algebra.tridiag_minor_calls": calls("algebra.tridiag_minor_det"),
        "algebra.tridiag_minor_busy_s": busy("algebra.tridiag_minor_det"),
        "algebra.pr_split_busy_s": busy("algebra.pr_split", "algebra.pr_split_from"),
        "morphism.phi_calls": calls("morphism.phi"),
        "morphism.phi_busy_s": busy("morphism.phi"),
        "morphism.phi_inverse_busy_s": busy("morphism.phi_inverse"),
        "morphism.quad_table_busy_s": busy("morphism.quad_mumford_table"),
        "symbolic.jacobi_busy_s": busy("symbolic.jacobi_holds"),
        "symbolic.jacobiator_calls": calls("symbolic.jacobiator"),
        "symbolic.solve_affine_calls": calls("symbolic.solve_affine"),
        "symbolic.solve_affine_busy_s": busy("symbolic.solve_affine"),
        "mumford.table_busy_s": busy("mumford.mumford_bracket_table"),
        "prym.reduce_busy_s": busy("prym.reduce_mumford_table"),
        "prym.table_busy_s": busy("prym.prym_bracket_table"),
        "toda.flow_calls": calls("toda.toda_flow"),
        "toda.flow_busy_s": busy("toda.toda_flow"),
        "toda.bracket_table_busy_s": busy("toda.toda_bracket_table"),
        "painleve.laurent_calls": calls("painleve.laurent_balance"),
        "painleve.laurent_busy_s": busy("painleve.laurent_balance"),
        "painleve.free_slots_busy_s": busy("painleve.free_slots"),
        "painleve.kowalevski_busy_s": busy("painleve.kowalevski"),
        "painleve.sigma_brute_busy_s": busy("painleve.sigma_enum_brute"),
    })

    flows = [(spans[i].info, duration[i]) for i in outermost(("numerics.integrate",))]
    m["numerics.rk4_steps"] = sum(info["steps"] for info, _ in flows) / passes
    for system in FLOW_SYSTEMS:
        steps = sum(info["steps"] for info, _ in flows if info["system"] == system)
        seconds = sum(d for info, d in flows if info["system"] == system)
        m[f"numerics.{system}_steps_per_s"] = steps / seconds if seconds else 0.0
    m["numerics.truncated_ratio"] = (sum(info["truncated"] for info, _ in flows) / len(flows)
                                     if flows else 0.0)
    return m


def suite_seconds(jobs, untraced) -> dict:
    """verify.<suite>_s: median seconds of each acceptance suite over the
    untraced passes, measured around the suite call (0 on other workloads)."""
    out = {f"verify.{name}_s": 0.0 for name in verify.SUITES}
    for k, job in enumerate(jobs):
        if job.span is not None:
            out[f"{job.span}_s"] = statistics.median(p.job_seconds[k] for p in untraced)
    return out


def _code_keys(*functions):
    return {(f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name)
            for f in functions}


COUNTED = {
    "fractions.new_calls": _code_keys(Fraction.__new__),
    "algebra.poly_mul_calls": _code_keys(algebra.Poly.__mul__, algebra.Poly.__rmul__),
    "symbolic.multipoly_mul_calls": _code_keys(symbolic.MultiPoly.__mul__),
    "symbolic.multipoly_diff_calls": _code_keys(symbolic.MultiPoly.diff),
}


def count_pass(run) -> dict:
    """Exact call counts of one pass under cProfile (times are discarded)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    profile.create_stats()
    calls = {key: value[1] for key, value in profile.stats.items()}
    return {metric: sum(calls.get(key, 0) for key in keys) for metric, keys in COUNTED.items()}
