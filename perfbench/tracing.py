"""Per-layer tracing installed from outside the program.

:class:`Tracer` wraps the public functions and methods of each layer of
``repro`` while it is installed (``with tracer.installed(): ...``) and puts
the originals back afterwards, so the program itself carries no tracing
code. A function imported into other modules (``build_qdtree`` in
``core.layout_manager`` and ``baselines.runners``, ``run_oreo`` in the
experiment harnesses, ...) is replaced in every ``repro`` module that binds
it, so no call path escapes the wrapper.

Two kinds of record are kept in memory:

- spans ``(name, start, end, parent)`` for calls that happen at most a few
  thousand times per run (layout builds, materializations, serving loops,
  Spark jobs). Self time is derived from them: a span's duration minus the
  durations of its direct children;
- counters ``calls`` / ``seconds`` for the hot metadata calls
  (``MaterializedLayout.cost`` runs ~10^5 times per Figure-3 row, too often
  for one span each). Costing time is charged to the outermost costing call
  only, so ``cost`` calls made from ``cost_vector`` are counted, not timed
  twice.

:meth:`Tracer.write` writes the spans out as JSON lines at the end of a run.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, span name): module-level functions to wrap wherever bound.
SPAN_FUNCTIONS = (
    ("repro.workload.datasets", "build_pdf", "workload.datasets.build_pdf"),
    ("repro.workload.generator", "generate_workload", "workload.generator.generate_workload"),
    ("repro.layouts.qdtree", "build_qdtree", "layouts.qdtree.build_qdtree"),
    ("repro.layouts.zorder", "build_zorder", "layouts.zorder.build_zorder"),
    ("repro.layouts.fixed", "build_fixed", "layouts.fixed.build_fixed"),
    ("repro.layouts.metadata", "build_materialized", "layouts.metadata.build_materialized"),
    ("repro.baselines.runners", "run_static", "baselines.runners.run_static"),
    ("repro.baselines.runners", "run_greedy", "baselines.runners.run_greedy"),
    ("repro.baselines.runners", "run_regret", "baselines.runners.run_regret"),
    ("repro.baselines.runners", "per_template_layouts", "baselines.runners.per_template_layouts"),
    ("repro.core.oreo", "run_oreo", "core.oreo.run_oreo"),
    ("repro.sparkio.runner", "write_layout", "sparkio.write_layout"),
    ("repro.sparkio.runner", "reorganize", "sparkio.reorganize"),
    ("repro.sparkio.runner", "run_query", "sparkio.run_query"),
    ("repro.sparkio.runner", "full_scan", "sparkio.full_scan"),
)

class Tracer:
    """Spans and counters for one traced run of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.rows_assigned = 0
        self.candidates_built = 0
        # Per instance: distinct (layout, query) pairs costed and distinct
        # candidate layouts built; summed into the totals by end_instance().
        self._pairs: set = set()
        self._candidate_names: set = set()
        self.distinct_pairs = 0
        self.distinct_candidates = 0
        self._cost_depth = 0

    # -- recording -------------------------------------------------------
    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [name, time.perf_counter(), None, parent]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _assign(self, fn):
        spanned = self._span("layouts.assign", fn)

        @functools.wraps(fn)
        def wrapper(layout, pdf):
            self.rows_assigned += len(pdf)
            return spanned(layout, pdf)

        return wrapper

    def _candidate_step(self, fn):
        spanned = self._span("core.layout_manager.CandidateGenerator.step", fn)

        @functools.wraps(fn)
        def wrapper(gen, q):
            out = spanned(gen, q)
            self.candidates_built += len(out)
            self._candidate_names.update(c.name for c in out)
            return out

        return wrapper

    def _costing(self, name: str, fn, *, pair: bool):
        """Counter wrapper for the hot costing calls; time the outermost only."""

        @functools.wraps(fn)
        def wrapper(layout, arg):
            self.calls[name] += 1
            if pair:
                self._pairs.add((layout.name, id(arg)))
            if self._cost_depth:
                return fn(layout, arg)
            self._cost_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(layout, arg)
            finally:
                self.seconds["layouts.metadata.costing"] += time.perf_counter() - t0
                self._cost_depth -= 1

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0

        return wrapper

    def end_instance(self) -> None:
        """Close one simulator instance: fold its distinct-sets into totals."""
        self.distinct_pairs += len(self._pairs)
        self.distinct_candidates += len(self._candidate_names)
        self._pairs = set()
        self._candidate_names = set()

    # -- installation ----------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function and method; restore them on exit."""
        from repro.core.layout_manager import CandidateGenerator, LayoutManager
        from repro.core.mts import Reorganizer
        from repro.layouts import FixedRangeLayout, MaterializedLayout, QdTreeLayout, ZOrderLayout

        patches: list[tuple[object, str, object]] = []

        def patch_class(cls, attr, wrapper):
            patches.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

        try:
            for modname, fname, span in SPAN_FUNCTIONS:
                if modname not in sys.modules:
                    continue  # layer not loaded by this workload
                orig = getattr(sys.modules[modname], fname)
                wrapper = self._span(span, orig)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
            for cls in (FixedRangeLayout, QdTreeLayout, ZOrderLayout):
                patch_class(cls, "assign", self._assign(cls.__dict__["assign"]))
            patch_class(CandidateGenerator, "step", self._candidate_step(CandidateGenerator.__dict__["step"]))
            patch_class(LayoutManager, "step", self._span(
                "core.layout_manager.LayoutManager.step", LayoutManager.__dict__["step"]
            ))
            ml = MaterializedLayout
            patch_class(ml, "cost", self._costing("layouts.metadata.cost", ml.__dict__["cost"], pair=True))
            patch_class(ml, "cost_vector", self._costing("layouts.metadata.cost_vector", ml.__dict__["cost_vector"], pair=False))
            patch_class(ml, "relevant_bids", self._counted("layouts.metadata.relevant_bids", ml.__dict__["relevant_bids"]))
            patch_class(Reorganizer, "observe", self._counted("core.mts.observe", Reorganizer.__dict__["observe"]))
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    # -- derived figures -------------------------------------------------
    def durations(self, name: str, *, top_level_only: bool = False) -> list[float]:
        """Durations of every finished span called ``name``."""
        return [
            e - s
            for n, s, e, parent in self.spans
            if n == name and e is not None and not (top_level_only and parent is not None)
        ]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def count(self, name: str) -> int:
        return len(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        out: dict[str, float] = defaultdict(float)
        for n, s, e, _ in self.spans:
            out[n] += e - s
        for n, s, e, parent in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= e - s
        return dict(out)

    def self_minus(self, name: str, child: str) -> float:
        """Seconds in ``name`` spans not covered by their ``child`` spans."""
        total = self.total(name)
        for n, s, e, parent in self.spans:
            if n == child and parent is not None and self.spans[parent][0] == name:
                total -= e - s
        return total

    def layer_metrics(self, n_inst: int) -> dict[str, float]:
        """Simulator-layer figures per instance (one Figure-3 row, one replay)."""
        per = 1.0 / n_inst
        cost_calls = self.calls["layouts.metadata.cost"]
        return {
            "workload.datasets.build_pdf_s": self.total("workload.datasets.build_pdf") * per,
            "workload.generator.generate_s": self.total("workload.generator.generate_workload") * per,
            "layouts.qdtree.build_s": self.total("layouts.qdtree.build_qdtree") * per,
            "layouts.qdtree.builds": self.count("layouts.qdtree.build_qdtree") * per,
            "layouts.zorder.build_s": self.total("layouts.zorder.build_zorder") * per,
            "layouts.zorder.builds": self.count("layouts.zorder.build_zorder") * per,
            "layouts.assign_s": self.total("layouts.assign") * per,
            "layouts.assign_rows": self.rows_assigned * per,
            "layouts.metadata.materialize_s": self.total("layouts.metadata.build_materialized") * per,
            "layouts.metadata.materializations": self.count("layouts.metadata.build_materialized") * per,
            "layouts.metadata.cost_s": self.seconds["layouts.metadata.costing"] * per,
            "layouts.metadata.cost_calls": cost_calls * per,
            "layouts.metadata.cost_distinct_pairs": self.distinct_pairs * per,
            "layouts.metadata.cost_reuse_ratio": (1.0 - self.distinct_pairs / cost_calls) if cost_calls else 0.0,
            "core.layout_manager.candidate_builds": self.candidates_built * per,
            "core.layout_manager.candidate_builds_distinct": self.distinct_candidates * per,
            "core.layout_manager.admission_self_s": self.self_minus(
                "core.layout_manager.LayoutManager.step", "core.layout_manager.CandidateGenerator.step"
            ) * per,
            "core.mts.observe_s": self.seconds["core.mts.observe"] * per,
            "core.mts.observe_calls": self.calls["core.mts.observe"] * per,
            "baselines.runners.static_s": self.total("baselines.runners.run_static") * per,
            "baselines.runners.greedy_s": self.total("baselines.runners.run_greedy") * per,
            "baselines.runners.regret_s": self.total("baselines.runners.run_regret") * per,
            "core.oreo.run_oreo_s": self.total("core.oreo.run_oreo") * per,
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (n, s, e, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": n, "start": s - t0, "end": e - t0,
                    "parent": parent, "workload": self.workload,
                }) + "\n")
