"""Span tracer that wraps the public entry points of the compiler's layers.

The tracer lives entirely in the benchmark: :meth:`Tracer.install`
replaces each layer's public function (or method) with a wrapper that
records one span per call, and :meth:`Tracer.uninstall` puts the
originals back, so untraced passes run the unmodified program.

A span records its layer name, its parent span (the innermost traced
call it ran inside), its wall time and the case it belongs to.  A span's
*self* time is its wall time minus the wall time of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    case: str
    wall_s: float = 0.0
    child_s: float = 0.0
    #: Number of items the call returned, for spans whose layer reports
    #: a count (dependences found, diagnostics raised).
    items: int = 0

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_s


def _diagnostic_count(report) -> int:
    return len(report.merged)


def _targets() -> List[Tuple[str, Any, str, Optional[Callable]]]:
    """(span name, owner, attribute, item counter) for every traced entry.

    *owner* is a class (the method is replaced on the class) or a module
    (the function is replaced in every ``repro`` module that imported
    it by name).
    """
    from repro.analysis.verifier import StaticVerifier
    from repro.compiler import CompilationResult, PremCompiler
    from repro.loopir import fission, looptree
    from repro.opt.cache import PersistentCache
    from repro.opt.component import ComponentOptimizer
    from repro.opt.exhaustive import ExhaustiveOptimizer
    from repro.opt.greedy import GreedyOptimizer
    from repro.opt.pruned import PrunedOptimizer
    from repro.opt.tree import TreeOptimizer
    from repro.opt.vectorized import BatchEvaluator
    from repro.poly import fm
    from repro.poly.dependence import DependenceAnalyzer
    from repro.prem import runtime
    from repro.prem.segments import SegmentPlanner
    from repro.schedule import pipeline
    from repro.sim import profiler

    return [
        ("compiler.compile", PremCompiler, "compile", None),
        ("poly.deps", DependenceAnalyzer, "analyze", len),
        ("poly.fm", fm, "check_feasibility", None),
        ("loopir.tree", looptree.LoopTree, "build", None),
        ("loopir.fission", fission, "fission_kernel", None),
        ("sim.fit", profiler, "fit_component_model", None),
        ("opt.tree", TreeOptimizer, "optimize", None),
        ("opt.search", ComponentOptimizer, "optimize", None),
        ("opt.search", GreedyOptimizer, "optimize", None),
        ("opt.search", PrunedOptimizer, "optimize", None),
        ("opt.search", ExhaustiveOptimizer, "optimize", None),
        ("opt.batch", BatchEvaluator, "evaluate_batch", None),
        ("opt.cache.put", PersistentCache, "put", None),
        ("opt.cache.put", PersistentCache, "put_bound", None),
        ("prem.plan", SegmentPlanner, "plan", None),
        ("schedule.sim", pipeline, "evaluate_pipeline", None),
        ("prem.codegen", CompilationResult, "generate_c", None),
        ("analysis.verify", StaticVerifier, "verify_compilation",
         _diagnostic_count),
        ("prem.vm", runtime, "run_kernel_prem", None),
        ("prem.ref", runtime.SequentialInterpreter, "run", None),
    ]


class Tracer:
    """Collects spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.case = ""
        self._stack: List[Span] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, function: Callable,
              counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None, tracer.case)
            stack.append(span)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.wall_s = time.perf_counter() - started
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.wall_s
                tracer.spans.append(span)
            if counter is not None:
                span.items = counter(result)
            return result

        return traced

    def _wrap_cache_load(self, function: Callable) -> Callable:
        """``PersistentCache._load`` runs on every lookup but parses the
        log only on its first call; only that call becomes a span."""
        traced = self._wrap("opt.cache.load", function, None)

        @functools.wraps(function)
        def load(cache):
            if cache._loaded:
                return function(cache)
            return traced(cache)

        return load

    # -- installation -----------------------------------------------------

    def _replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        from repro.opt.cache import PersistentCache

        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, owner, attribute, counter in _targets():
            original = owner.__dict__[attribute]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, original.__func__, counter))
                else:
                    wrapped = self._wrap(name, original, counter)
                self._replace(owner, attribute, wrapped)
                continue
            wrapped = self._wrap(name, original, counter)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "repro":
                    continue
                if module.__dict__.get(attribute) is original:
                    self._replace(module, attribute, wrapped)
        self._replace(PersistentCache, "_load", self._wrap_cache_load(
            PersistentCache.__dict__["_load"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def take(self) -> List[Span]:
        """The spans recorded since the last call, and forget them."""
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, summed wall time, calls, items."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span.name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "items": 0})
        entry["self_s"] += span.self_s
        entry["wall_s"] += span.wall_s
        entry["calls"] += 1
        entry["items"] += span.items
    return totals


def top_level_s(spans: List[Span]) -> float:
    """Wall time of the layer spans a user call reaches first: the direct
    children of ``compiler.compile`` and any layer call the client makes
    itself."""
    return sum(
        span.wall_s for span in spans
        if span.name != "compiler.compile" and (
            span.parent is None or span.parent.name == "compiler.compile"))
