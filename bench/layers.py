"""Per-layer tracing for the ffprog benchmark, applied from outside the program.

The public functions of each ffprog module are wrapped at every binding the
code calls through: the defining module, every other ffprog module that
imported the name, and the class attribute for methods. A wrapper records one
span per call (name, start, end, parent, pass) in memory and accumulates
calls, total time and self time (total minus the time covered by wrapped
child calls). Spans are written out only when the benchmark ends.
"""

import functools
import json
import sys
import time
from collections import defaultdict

# Layer -> wrapped public functions ("Class.method" for methods).
TARGETS = {
    "field": ("make_field", "mult_character", "kth_power_residues"),
    "harmonic": ("fourier", "gowers_direct", "gowers_fast"),
    "counting": (
        "lambda_poly",
        "lambda_ap",
        "lambda_ap_weighted",
        "find_progression",
        "exact_max_free_set",
    ),
    "experiments": (
        "TrialFunctionFamily.generate",
        "discorrelation_error",
        "discorrelation_sweep",
        "character_norm_decay",
        "restricted_ap_experiment",
        "greedy_free_set",
    ),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


# Work counts derived from each call's inputs (or result), so they repeat
# exactly from run to run. Each returns {counter: amount} for one call.
def _lambda_poly_counts(args, kwargs, result):
    spec = kwargs.get("spec", args[0] if args else None)
    fs = kwargs.get("fs", args[1] if len(args) > 1 else None)
    p, points = fs[0].p, spec.total_points
    # one complex128 operand gathered per (x, y, slot)
    return {"terms": p * p * points, "bytes_computed": 16 * p * p * points}


def _gowers_direct_counts(args, kwargs, result):
    f, s = _f_and_s(args, kwargs)
    return {"terms": f.p ** (s + 1)}


def _gowers_fast_counts(args, kwargs, result):
    f, s = _f_and_s(args, kwargs)
    return {"transforms": f.p ** (s - 2)}


def _f_and_s(args, kwargs):
    f = kwargs.get("f", args[0] if args else None)
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    return f, s


def _find_progression_counts(args, kwargs, result):
    return {"found": int(result is not None)}


def _greedy_counts(args, kwargs, result):
    ctx = kwargs.get("ctx", args[0] if args else None)
    elements, _density = result
    return {"accepted": len(elements), "candidates": ctx.p}


COUNTERS = {
    "counting.lambda_poly": _lambda_poly_counts,
    "harmonic.gowers_direct": _gowers_direct_counts,
    "harmonic.gowers_fast": _gowers_fast_counts,
    "counting.find_progression": _find_progression_counts,
    "experiments.greedy_free_set": _greedy_counts,
}


class Tracer:
    """In-memory span recorder with per-function call/total/self accumulators."""

    def __init__(self, workload: str, t_ref: float):
        self.workload = workload
        self.t_ref = t_ref
        self.pass_index = -1
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [span id, time covered by wrapped children]

    def wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = len(tracer.spans) + len(stack)
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, covered = stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - covered
                tracer.spans.append((span_id, name, t0, t1, parent, tracer.pass_index))
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded ffprog modules.

        Call once per fresh import of ffprog.
        """
        modules = [m for k, m in sys.modules.items() if k == "ffprog" or k.startswith("ffprog.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"ffprog.{layer}"]
            for qualname in names:
                full = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(full, cls.__dict__[attr]))
                    continue
                original = getattr(home, qualname)
                wrapper = self.wrap(full, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def write_spans(self, path, meta: dict) -> None:
        """One header line with run metadata, then one JSON line per span, in call order."""
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for span_id, name, t0, t1, parent, pass_index in sorted(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": t0 - self.t_ref,
                            "end": t1 - self.t_ref,
                            "parent": parent,
                            "workload": self.workload,
                            "pass": pass_index,
                        }
                    )
                    + "\n"
                )
