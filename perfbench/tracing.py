"""Per-layer spans and counters, recorded from outside the program.

Only the traced run imports this module.  `install` wraps public functions of
the bchseries modules and the FreePoly arithmetic operators; `uninstall` puts
the originals back.  Modules bind imported names when they load, so a
function is rebound in every bchseries namespace that holds it (for example
`census.series_terms` as well as `engine.series_terms`), or calls made from
those modules would bypass the wrapper.

Spans nest on one stack.  For each layer the tracer keeps the inclusive time
of its outermost spans, so a layer that re-enters itself (bound_checks calling
census_sweep) is not counted twice.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from importlib import import_module
from time import perf_counter

from bchseries.algebra import FreePoly

# layer name -> (defining module, public function names).  Modules are looked
# up by name: the package re-exports a function called `census`, which hides
# the submodule of that name.
WRAPPED_FUNCTIONS = {
    "engine.product": ("bchseries.engine", ("product_matrix",)),
    "engine.series": ("bchseries.engine", ("series_terms",)),
    "engine.coeff": ("bchseries.engine", ("engine_coefficient",)),
    "oracle.dp": ("bchseries.oracle", ("goldberg_direct",)),
    "lie.expand": ("bchseries.lie", ("expand_comm_poly",)),
    "census.property": ("bchseries.census", ("property_suite",)),
    "census.sweep": ("bchseries.census", ("census_sweep", "bound_checks")),
    "forms.check": ("bchseries.forms", ("check_forms",)),
}


class Tracer:
    """Span stack, per-layer times and per-layer counts for one process."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.product_in_series_s = 0.0
        self.top_level_s = 0.0
        self.series_keys: set[tuple[str, int]] = set()
        self.coeff_bits_max = 0
        self._stack: list[str] = []

    def enter(self, layer: str) -> float:
        self._stack.append(layer)
        return perf_counter()

    def leave(self, layer: str, start: float) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        if layer in self._stack:
            return
        self.inclusive_s[layer] += elapsed
        if layer == "engine.product" and "engine.series" in self._stack:
            self.product_in_series_s += elapsed
        if not self._stack:
            self.top_level_s += elapsed

    def record_series(self, variant, degree: int, terms) -> None:
        """Count the output of each distinct (variant, degree) request once."""
        key = (variant.name, degree)
        if key in self.series_keys:
            return
        self.series_keys.add(key)
        bits = self.coeff_bits_max
        count = 0
        for term in terms:
            for _, coeff in term.body.items():
                count += 1
                bits = max(bits, abs(coeff.numerator).bit_length(), coeff.denominator.bit_length())
        self.counts["engine.terms_out"] += count
        self.coeff_bits_max = bits

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics, named as in BENCHMARK.json."""
        c, t = self.counts, self.inclusive_s
        return {
            "algebra.mul_calls": c["algebra.mul_calls"],
            "algebra.mul_term_pairs": c["algebra.mul_term_pairs"],
            "algebra.mul_s": t["algebra.mul"],
            "algebra.add_calls": c["algebra.add_calls"],
            "algebra.add_terms_copied": c["algebra.add_terms_copied"],
            "algebra.add_s": t["algebra.add"],
            "engine.product_calls": c["engine.product_calls"],
            "engine.product_s": t["engine.product"],
            # the first-row log: series_terms time not spent in product_matrix
            "engine.log_self_s": t["engine.series"] - self.product_in_series_s,
            "engine.series_calls": c["engine.series_calls"],
            "engine.series_keys": len(self.series_keys),
            "engine.terms_out": c["engine.terms_out"],
            "engine.coeff_bits_max": self.coeff_bits_max,
            "engine.coeff_calls": c["engine.coeff_calls"],
            "engine.coeff_s": t["engine.coeff"],
            "oracle.dp_calls": c["oracle.dp_calls"],
            "oracle.dp_letters": c["oracle.dp_letters"],
            "oracle.dp_s": t["oracle.dp"],
            "lie.expand_calls": c["lie.expand_calls"],
            "lie.expand_s": t["lie.expand"],
            "census.property_s": t["census.property"],
            "census.sweep_s": t["census.sweep"],
            "forms.check_s": t["forms.check"],
        }


def _wrap_function(tracer: Tracer, layer: str, fn):
    calls = layer + "_calls"

    if layer == "engine.series":

        def wrapper(variant, degree, *args, **kwargs):
            tracer.counts[calls] += 1
            start = tracer.enter(layer)
            try:
                terms = fn(variant, degree, *args, **kwargs)
            finally:
                tracer.leave(layer, start)
            tracer.record_series(variant, degree, terms)
            return terms

    elif layer == "oracle.dp":

        def wrapper(w):
            tracer.counts[calls] += 1
            tracer.counts["oracle.dp_letters"] += w.length
            start = tracer.enter(layer)
            try:
                return fn(w)
            finally:
                tracer.leave(layer, start)

    else:

        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            start = tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(layer, start)

    return wrapper


def _wrap_operators(tracer: Tracer) -> dict[str, object]:
    mul, add, sub = FreePoly.__mul__, FreePoly.__add__, FreePoly.__sub__
    counts = tracer.counts

    def traced_mul(self, other):
        if not isinstance(other, FreePoly):
            return mul(self, other)
        counts["algebra.mul_calls"] += 1
        counts["algebra.mul_term_pairs"] += len(self) * len(other)
        start = tracer.enter("algebra.mul")
        try:
            return mul(self, other)
        finally:
            tracer.leave("algebra.mul", start)

    def traced_add(self, other):
        counts["algebra.add_calls"] += 1
        if isinstance(other, FreePoly) and self and other:
            counts["algebra.add_terms_copied"] += len(self)
        start = tracer.enter("algebra.add")
        try:
            return add(self, other)
        finally:
            tracer.leave("algebra.add", start)

    def traced_sub(self, other):
        counts["algebra.add_calls"] += 1
        if isinstance(other, FreePoly):
            counts["algebra.add_terms_copied"] += len(self)
        start = tracer.enter("algebra.add")
        try:
            return sub(self, other)
        finally:
            tracer.leave("algebra.add", start)

    return {"__mul__": traced_mul, "__add__": traced_add, "__sub__": traced_sub}


def _bchseries_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "bchseries" or name.startswith("bchseries."))
    ]


def install(tracer: Tracer):
    """Wrap every traced entry point; return a callable that restores them."""
    undo: list[tuple[object, str, object]] = []
    modules = _bchseries_modules()
    for layer, (home, names) in WRAPPED_FUNCTIONS.items():
        for name in names:
            original = getattr(import_module(home), name)
            wrapper = _wrap_function(tracer, layer, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    undo.append((module, name, original))
                    setattr(module, name, wrapper)
    for name, wrapper in _wrap_operators(tracer).items():
        undo.append((FreePoly, name, FreePoly.__dict__[name]))
        setattr(FreePoly, name, wrapper)

    def uninstall() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)

    return uninstall

