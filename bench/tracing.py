"""Per-layer tracing of qsnake, installed from the benchmark's own files.

``instrumented`` replaces public functions of qsnake's modules with wrappers
for the duration of a ``with`` block and restores them afterwards; qsnake's
source is not changed.  Route, module and entry functions become spans.  The
hot ``laurent`` operators are kernels: they keep only counts and summed time,
in total and per enclosing span, so the trace stays bounded.  A kernel called
inside another kernel (``__sub__`` calls ``__add__`` and ``__neg__``) is part
of the outer call.

A layer's self time is the time of its calls minus the time of the spans and
kernels they call.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _mul_size(tracer, args, result):
    a, b = args
    b_terms = 1 if isinstance(b, int) else len(b.coeffs)
    tracer.add("laurent.mul.coeff_products", len(a.coeffs) * b_terms)
    tracer.peak("laurent.mul.max_terms", max(len(a.coeffs), b_terms))


def _gcd_degree(tracer, args, result):
    tracer.peak("laurent.gcd.max_deg", max(len(p.coeffs) for p in args) - 1)


def _det_size(tracer, args, result):
    m = args[0]
    tracer.peak("kasteleyn.det.max_size", len(getattr(m, "entries", m)))


def _snake_boxes(tracer, args, result):
    tracer.add("snake.graph.boxes", len(result.boxes))


COUNTERS = ("laurent.mul.coeff_products", "laurent.mul.max_terms", "laurent.gcd.max_deg",
            "kasteleyn.det.max_size", "snake.graph.boxes")

# (layer, module, attribute, kernel, measure)
LAYERS = (
    ("laurent.mul", "laurent", "LaurentPoly.__mul__", True, _mul_size),
    ("laurent.add", "laurent", "LaurentPoly.__add__", True, None),
    ("laurent.add", "laurent", "LaurentPoly.__sub__", True, None),
    ("laurent.add", "laurent", "LaurentPoly.__neg__", True, None),
    ("laurent.div_exact", "laurent", "LaurentPoly.div_exact", True, None),
    ("laurent.gcd", "laurent", "laurent_gcd", True, _gcd_degree),
    ("qrational.matrix", "qrational", "q_matrix_eval", False, None),
    ("qrational.nested", "qrational", "q_cf_eval", False, None),
    ("qrational.continuant", "qrational", "q_continuant", False, None),
    ("qrational.recurrence", "qrational", "q_map_general", False, None),
    ("qrational.q_rational", "qrational", "q_rational", False, None),
    ("snake.graph", "snake", "snake_graph", False, _snake_boxes),
    ("matching.dp", "matching", "matching_stat_dp", False, None),
    ("matching.cases", "matching", "case_recurrences_check", False, None),
    ("matching.numerator", "matching", "numerator_via_matchings", False, None),
    ("matching.denominator", "matching", "denominator_via_matchings", False, None),
    ("kasteleyn.matrix", "kasteleyn", "kasteleyn_matrix", False, None),
    ("kasteleyn.det", "kasteleyn", "det_exact", False, _det_size),
    ("kasteleyn.verify", "kasteleyn", "verify_kasteleyn", False, None),
    ("verify.check_pair", "verify", "check_pair", False, None),
    ("cli.main", "cli", "main", False, None),
)


class Tracer:
    """Calls and self time per layer, kernel time per enclosing span, counters."""

    def __init__(self):
        self.layers: dict[str, list] = {name: [0, 0.0] for name, *_ in LAYERS}
        self.kernels_by_parent: dict[tuple[str, str], list] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        # frames are [layer, time of children, is kernel]
        self._stack: list[list] = [["(benchmark)", 0.0, False]]

    def add(self, name: str, n: int) -> None:
        self.counters[name] += n

    def peak(self, name: str, n: int) -> None:
        self.counters[name] = max(self.counters[name], n)

    def wrap(self, layer: str, fn, kernel: bool, measure):
        stack, clock = self._stack, time.perf_counter
        stats = self.layers[layer]
        by_parent = self.kernels_by_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if kernel and parent[2]:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, kernel]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if kernel:
                    agg = by_parent.setdefault((parent[0], layer), [0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
            if measure is not None:
                measure(self, args, result)
            return result

        return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Route every reference to a traced function, in every qsnake module, through its wrapper."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "qsnake" or name.startswith("qsnake.")]
    patches = []
    try:
        for layer, module, attribute, kernel, measure in LAYERS:
            owner = sys.modules[f"qsnake.{module}"]
            *path, attr = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(layer, original, kernel, measure)
            targets = namespaces + ([owner] if path else [])
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        patches.append((target, key, value))
                        setattr(target, key, wrapper)
        yield tracer
    finally:
        for target, key, value in reversed(patches):
            setattr(target, key, value)
