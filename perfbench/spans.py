"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each ``ordrank`` layer and
patches every module global that refers to them, because some modules
import names directly (``harness`` holds its own ``kendall_tau``).  Each
wrapper records a span; a span's self time is its duration minus the time
its child spans cover.  ``numpy.random.default_rng`` is counted and each
call is attributed to the innermost enclosing layer.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

LAYERS = ("cli", "harness", "model", "ranking", "rates", "snr", "data")

# (layer, owner, attribute): owner is a module name or "module:Class"
WRAPPED = [
    ("cli", "ordrank.cli", "parse_and_dispatch"),
    ("harness", "ordrank.harness", "run_experiment"),
    ("harness", "ordrank.harness:ExperimentResult", "to_csv"),
    ("model", "ordrank.model:OrdinalModel", "pmf_table"),
    ("model", "ordrank.model:OrdinalModel", "log_mgf"),
    ("ranking", "ordrank.ranking", "kendall_tau"),
    ("ranking", "ordrank.ranking", "count_scores"),
    ("ranking", "ordrank.ranking", "asymptotic_two_item"),
    ("ranking", "ordrank.ranking", "asymptotic_tau"),
    ("rates", "ordrank.rates", "rate_at_zero_binary"),
    ("rates", "ordrank.rates", "rate_at_zero_ordinal"),
    ("rates", "ordrank.rates", "rate_at_zero_nitem"),
    ("snr", "ordrank.snr", "snr_of_pattern"),
    ("snr", "ordrank.snr", "minimal_snr_unconstrained"),
    ("snr", "ordrank.snr", "minimal_snr_monotone"),
    ("data", "ordrank.data", "load_ratings"),
    ("data", "ordrank.data", "build_pair_comparisons"),
    ("data", "ordrank.data", "save_pairs"),
    ("data", "ordrank.data", "load_pairs"),
    ("data", "ordrank.data", "evaluate_pair_protocol"),
    ("data", "ordrank.data", "ordinal_histogram"),
]

SOLVES = ("rates.rate_at_zero_ordinal", "rates.rate_at_zero_nitem")

COUNTS = (
    "numpy.default_rng.calls",
    *(f"{layer}.default_rng.calls" for layer in LAYERS),
    "rates.iterations",
    "rates.unconverged",
    "data.load_ratings.rows",
    "data.build_pair_comparisons.pairs",
    "data.build_pair_comparisons.comparisons",
    "data.evaluate_pair_protocol.cells",
)


def _span_name(layer: str, owner: str, attr: str) -> str:
    cls = owner.partition(":")[2]
    return f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack: list[list] = []  # [span name, layer, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import numpy as np

        for layer, owner, attr in WRAPPED:
            mod_name, _, cls_name = owner.partition(":")
            target = sys.modules[mod_name]
            if cls_name:
                target = getattr(target, cls_name)
            original = getattr(target, attr)
            wrapper = self._wrap(_span_name(layer, owner, attr), layer, original)
            self._patch(target, attr, wrapper)
            if not cls_name:  # names imported elsewhere by value
                for name, mod in list(sys.modules.items()):
                    if name.startswith("ordrank") and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
        self._patch(np.random, "default_rng", self._count_rng(np.random.default_rng))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def _patch(self, target, attr, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, layer, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                seen = getattr(exc, "_perfbench_layers", set())
                if layer not in seen:  # count once per layer it leaves
                    tracer.counts[f"{layer}.errors"] += 1
                    try:
                        exc._perfbench_layers = seen | {layer}
                    except AttributeError:
                        pass
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += dt
            tracer._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_rng(self, fn):
        tracer = self

        def default_rng(*args, **kwargs):
            layer = tracer._stack[-1][1] if tracer._stack else "bench"
            tracer.counts["numpy.default_rng.calls"] += 1
            tracer.counts[f"{layer}.default_rng.calls"] += 1
            return fn(*args, **kwargs)

        return default_rng

    def _observe(self, name: str, result) -> None:
        """Work counts read off a layer's return value."""
        c = self.counts
        if name == "model.OrdinalModel.log_mgf":
            if any(f[0] in SOLVES for f in self._stack):
                c["rates.solve_log_mgf_calls"] += 1
        elif name.startswith("rates.rate_at_zero"):
            c["rates.iterations"] += result.iterations
            c["rates.unconverged"] += not result.converged
        elif name == "data.load_ratings":
            c["data.load_ratings.rows"] += len(result)
        elif name == "data.build_pair_comparisons":
            c["data.build_pair_comparisons.pairs"] += result.n_pairs()
            c["data.build_pair_comparisons.comparisons"] += result.total_comparisons()
        elif name == "data.evaluate_pair_protocol":
            c["data.evaluate_pair_protocol.cells"] += result.ordinal_acc.size

    # -- report ------------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer value, averaged per traced pass."""
        out: dict[str, float] = {}
        for layer, owner, attr in WRAPPED:
            name = _span_name(layer, owner, attr)
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        out["snr.self_s"] = sum(v for k, v in self.self_s.items()
                                if k.startswith("snr.")) / passes
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.counts[f"{layer}.errors"] / passes
        for key in COUNTS:
            out[key] = self.counts[key] / passes
        solves = sum(self.calls[s] for s in SOLVES)
        out["rates.log_mgf_per_solve"] = (
            self.counts["rates.solve_log_mgf_calls"] / solves if solves else 0.0)
        return out
