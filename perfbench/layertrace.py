"""Outside-in layer trace: time matstrata's public functions by wrapping them.

Every public function of the layer modules, and ``numpy.linalg.svd``, is
replaced by a span that counts calls and records total and self time.
Self time is a span's duration minus the time spent in wrapped children,
so the self times of one sweep add up to the time inside the root spans.

The wrappers patch every module attribute bound to a wrapped function, not
only the defining one, so ``from .ranktools import decide_rank`` copies and
module-internal calls are both traced.  A generator returned by a wrapped
function is consumed inside its span, so its work is charged to it and not
to whoever iterates later.  A function named in ``LAYER_FUNCTIONS`` that the
package no longer defines is reported as missing, with zero counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

#: Modules whose public functions are wrapped, in pipeline order.
LAYER_MODULES = (
    "profiles",
    "formulas",
    "factory",
    "tangent_oracle",
    "commutant",
    "ranktools",
    "cli",
)

#: Functions whose counts and times are reported as per-layer metrics.
#: Other public functions are still wrapped (so their time is attributed)
#: and appear in the saved trace, but not in the metric set.
LAYER_FUNCTIONS = (
    "profiles.partitions",
    "profiles.multiplicity_profiles",
    "profiles.jordan_structures",
    "profiles.singular_profiles",
    "formulas.dimension_report",
    "formulas.jordan_commutant_dim",
    "formulas.qp_pair_dim",
    "factory.sample_spectrum",
    "factory.derive_seed",
    "factory.make_block_diagonal_lambda",
    "factory.make_jordan",
    "factory.make_sigma",
    "tangent_oracle.verify_class",
    "tangent_oracle.predicted_rank",
    "tangent_oracle.assemble_differential",
    "commutant.commutant_basis",
    "commutant.commutation_operator",
    "commutant.restricted_commutant_nullity",
    "commutant.verify_toeplitz_structure",
    "commutant.solve_qp_pair",
    "commutant.skew_symmetric_basis",
    "commutant.skew_hermitian_basis",
    "commutant.realify",
    "ranktools.decide_rank",
    "cli.main",
    "cli.build_verify_report",
    "cli.render_multiplicities",
    "cli.render_jordan",
    "svd",
)

ROOT = "cli.build_verify_report"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    inconclusive: int = 0


def svd_gflop(shape, is_complex: bool, compute_uv: bool) -> float:
    """Operation count of one dense SVD, from Golub and Van Loan's table
    for the R-SVD (``4mn^2 - 4n^3/3`` for values only, ``4m^2n + 8mn^2 +
    9n^3`` with full U and V, for m >= n).  A complex operation costs four
    real ones.  This is a count computed from shapes, not a measurement."""
    m, n = max(shape), min(shape)
    if compute_uv:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 4 * m * n * n - 4 * n**3 / 3
    return flops * (4 if is_complex else 1) / 1e9


class LayerTracer:
    """Wraps the layer functions while installed; restores them on removal.

    One tracer covers one traced sweep: its counts start at zero."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self.root_s = 0.0
        self.svd_gflop = 0.0
        self.svd_uv_calls = 0
        self.svd_complex_calls = 0
        self.operator_entries = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"matstrata.{short}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        targets[id(np.linalg.svd)] = ("svd", np.linalg.svd)
        names = {name for name, _ in targets.values()}
        self.missing = [name for name in LAYER_FUNCTIONS if name not in names]
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        bound = [m for n, m in sys.modules.items() if n.split(".")[0] == "matstrata"]
        for module in bound + [np.linalg]:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        observe = {
            "svd": self._observe_svd,
            "tangent_oracle.assemble_differential": self._observe_probe,
        }.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            stats.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    result = iter(list(result))
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            except Exception as err:
                if type(err).__name__ == "InconclusiveRankError":
                    stats.inconclusive += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_s += elapsed - child[0]
                if not stats.active:  # count a recursive call's time once
                    stats.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed

        return span

    def _observe_svd(self, args, kwargs, result):
        a = np.asarray(args[0])
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        is_complex = np.iscomplexobj(a)
        self.svd_gflop += svd_gflop(a.shape[-2:], is_complex, compute_uv)
        self.svd_uv_calls += bool(compute_uv)
        self.svd_complex_calls += is_complex

    def _observe_probe(self, args, kwargs, probe):
        self.operator_entries += probe.ambient_dim * probe.parameter_dim

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced sweep of ``wall_s`` seconds."""
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_FUNCTIONS:
            stats = self.stats.get(name, SpanStats())
            out[f"{name}.calls"] = (stats.calls, "count")
            out[f"{name}.total_s"] = (stats.total_s, "s")
            out[f"{name}.self_s"] = (stats.self_s, "s")
        root = self.stats.get(ROOT, SpanStats())
        unattributed = root.self_s + (wall_s - self.root_s)
        out["svd.gflop_computed"] = (self.svd_gflop, "GFLOP")
        out["svd.uv_calls"] = (self.svd_uv_calls, "count")
        out["svd.complex_calls"] = (self.svd_complex_calls, "count")
        out["tangent_oracle.operator_entries"] = (self.operator_entries, "count")
        decide = self.stats.get("ranktools.decide_rank", SpanStats())
        out["ranktools.decide_rank.inconclusive"] = (decide.inconclusive, "count")
        out["trace.unattributed_share"] = (unattributed / wall_s, "share")
        out["trace.missing_functions"] = (len(self.missing), "count")
        return out

    def table(self) -> list[tuple[str, int, float, float]]:
        """Every wrapped function that ran, by self time, for the saved trace."""
        rows = [(n, s.calls, s.total_s, s.self_s) for n, s in self.stats.items() if s.calls]
        return sorted(rows, key=lambda row: -row[3])
