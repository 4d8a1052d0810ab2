"""Figure-3 simulator rows: Static, Greedy, Regret and OREO (seed 0) per instance.

One *instance* is a dataset and a segmented query stream, both generated
from the run's seed. The timed unit is one Figure-3 row on one instance: the
four methods called one after the other through their public entry points,
with the paper's α=80, K=24 and ``SIM_SF`` scale. The run keeps starting new
instances while they fit in ``seconds`` and always completes at least
``min_instances`` of them, so the checksum and ``oreo_total_cost`` (taken
over those first instances) depend on the seed only. The metrics are medians
over instances.

Times are CPU seconds of this process (``time.process_time``) in *reference
seconds*. The simulator is single-threaded (``run.py`` pins BLAS to one
thread) and starts no processes, so on an idle machine CPU and wall time
agree. On a shared host wall time also counts the cycles other tenants take,
and even the CPU time of identical work drifts by up to a half over tens of
seconds as neighbours load the cores; medians of plain wall or CPU seconds
differed by more than any allowed bound between runs of the same code. So
each step's CPU seconds are divided by those of a fixed
:func:`reference_kernel` run just before and just after it, and multiplied
by ``REF_KERNEL_S``: seconds at the host speed at which the kernel takes
``REF_KERNEL_S``. The kernel is benchmark code, so a change to the program
moves the numerator only. The log shows the plain CPU seconds beside them.

With tracing on, every instance runs twice, once bare and once under the
:class:`~tracing.Tracer` (alternating which goes first), so the wrappers'
overhead is measured on identical work and the two checksums must agree.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import runners
from repro.core import oreo
from repro.experiments.common import ALPHA, K_PARTITIONS, SIM_SF
from repro.workload import datasets, generator

from outcome import Run
from tracing import Tracer

METHODS = ("static", "greedy", "regret", "oreo")
# CPU seconds of one reference_kernel() on an unloaded 4-vCPU Xeon VM; it only
# sets the scale of the reported seconds.
REF_KERNEL_S = 0.05
UNITS: dict[str, str] = {}  # every figure reported here is declared in BENCHMARK.json
# OREO's own counts per instance, in the order of oreo_counts below.
OREO_COUNTS = (
    "core.layout_manager.candidates",
    "core.layout_manager.admitted",
    "core.mts.moves",
    "core.mts.phases",
)


@dataclass(frozen=True)
class SimConfig:
    dataset: str
    layout_kind: str
    sf: float = SIM_SF
    n_queries: int = 1_000
    n_segments: int = 10
    min_instances: int = 3
    check_every: int = 50  # pruning-soundness check on every n-th query


def _instance_seeds(seed: int):
    """Endless (data seed, workload seed) pairs derived from the run's seed."""
    g = np.random.default_rng(seed)
    while True:
        yield int(g.integers(2**31)), int(g.integers(2**31))


def _generate(cfg: SimConfig, data_seed: int, wl_seed: int):
    pdf = datasets.build_pdf(cfg.dataset, sf=cfg.sf, seed=data_seed)
    wl = generator.generate_workload(
        cfg.dataset, n_queries=cfg.n_queries, n_segments=cfg.n_segments, seed=wl_seed
    )
    return pdf, wl


def reference_kernel() -> float:
    """CPU seconds of a fixed numpy-and-dict workload that is not the program's.

    Masks, counts, ``unique`` and ``argsort`` over 12K-row columns and a
    Python dict loop: the same kind of work as layout building and costing.
    """
    c0 = time.process_time()
    x = np.random.default_rng(7).random((8, 12_000))
    acc = 0
    for i in range(720):
        a, b = i % 8, (i * 3 + 1) % 8
        m = (x[a] >= 0.2) & (x[b] < 0.7)
        acc += int(np.count_nonzero(m))
        if i % 16 == 0:
            acc += int(np.unique(np.floor(x[a][m] * 50)).size) + int(np.argsort(x[b])[0])
    d: dict[int, int] = {}
    for i in range(90_000):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.process_time() - c0


def _timed(cfg: SimConfig, data_seed: int, wl_seed: int):
    """Generate and run one instance untraced, with the reference kernel between steps.

    Returns (pdf, workload, results, reference seconds by step, CPU seconds
    by step). A step's reference seconds are its CPU seconds divided by the
    mean of the kernels just before and just after it, times ``REF_KERNEL_S``;
    the steps are ``setup`` (generation), ``row`` (the four methods, each
    scaled by its own kernels) and ``oreo``.
    """
    refs = [reference_kernel()]
    c0 = time.process_time()
    pdf, wl = _generate(cfg, data_seed, wl_seed)
    cpus = {"setup": time.process_time() - c0}
    refs.append(reference_kernel())
    results = {}
    for m, call in _calls(cfg, pdf, wl).items():
        c0 = time.process_time()
        results[m] = call()
        cpus[m] = time.process_time() - c0
        refs.append(reference_kernel())
    scaled = {
        k: cpus[k] * REF_KERNEL_S / ((refs[n] + refs[n + 1]) / 2)
        for n, k in enumerate(("setup",) + METHODS)
    }

    def steps(t):
        return {"setup": t["setup"], "row": sum(t[m] for m in METHODS), "oreo": t["oreo"]}

    return pdf, wl, results, steps(scaled), steps(cpus)


def _calls(cfg: SimConfig, pdf, wl) -> dict:
    """The four methods of the row, in order, as calls through their public entry points."""
    spec = datasets.SPECS[cfg.dataset]
    kw = dict(k=K_PARTITIONS, layout_kind=cfg.layout_kind, seed=0)
    return {
        "static": lambda: runners.run_static(pdf, spec, wl, **kw),
        "greedy": lambda: runners.run_greedy(pdf, spec, wl, alpha=ALPHA, **kw),
        "regret": lambda: runners.run_regret(pdf, spec, wl, alpha=ALPHA, **kw),
        "oreo": lambda: oreo.run_oreo(pdf, spec, wl, alpha=ALPHA, **kw),
    }


def _row(cfg: SimConfig, pdf, wl) -> dict:
    """Run the four methods; return their results by method."""
    return {m: call() for m, call in _calls(cfg, pdf, wl).items()}


def checksum(results) -> tuple:
    """Logical totals per method: (query cost, reorg cost, moves)."""
    return tuple(
        (m, round(results[m].query_cost, 9), float(results[m].reorg_cost), int(results[m].n_moves))
        for m in METHODS
    )


def _check(run: Run, cfg: SimConfig, pdf, wl, results, inst: int) -> None:
    """Per-method cost invariants and sampled pruning soundness."""
    for m in METHODS:
        r = results[m]
        costs = np.asarray(r.query_costs)
        ok = (
            len(costs) == len(wl)
            and bool(np.all((costs >= 0.0) & (costs <= 1.0)))
            and r.reorg_cost == r.n_moves * ALPHA
        )
        run.check(ok, f"instance {inst} {m}: costs outside [0,1] or reorg_cost != moves*alpha")
    spec = datasets.SPECS[cfg.dataset]
    layouts = (
        oreo.default_layout(pdf, spec, K_PARTITIONS),
        runners.build_workload_layout(
            pdf, spec, wl.queries, K_PARTITIONS, layout_kind=cfg.layout_kind,
            name=f"static:{cfg.layout_kind}", seed=0,
        ),
    )
    bids = [mat.layout.assign(pdf) for mat in layouts]
    for qi in range(0, len(wl), cfg.check_every):
        q = wl.queries[qi]
        mask = q.mask(pdf)
        for mat, b in zip(layouts, bids):
            holding = np.unique(b[mask])
            ok = bool(mat.relevant_partitions(q)[holding].all())
            run.check(ok, f"instance {inst} query {qi}: {mat.name} pruned a partition with matching rows")


def run(cfg: SimConfig, workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, Tracer | None]:
    res = Run()
    tracer = Tracer(workload) if trace else None
    ref_s = {"setup": [], "row": [], "oreo": []}  # untraced: reference seconds per instance
    pass_cpus = {False: [], True: []}  # with tracing: CPU seconds of bare and traced passes
    oreo_total = 0.0
    oreo_counts = np.zeros(4)  # candidates, admitted, moves, phases
    seeds = _instance_seeds(seed)
    start = time.perf_counter()
    inst = 0
    # No instance is started that would, at the mean pace so far, end past ``seconds``.
    while inst < cfg.min_instances or (time.perf_counter() - start) * (inst + 1) / inst <= seconds:
        data_seed, wl_seed = next(seeds)
        if tracer is None:
            pdf, wl, results, times, cpus = _timed(cfg, data_seed, wl_seed)
            print(f"instance {inst} " + " ".join(
                f"{k}_ref_s={times[k]:.4f} {k}_cpu_s={cpus[k]:.4f}" for k in ref_s))
            for k in ref_s:
                ref_s[k].append(times[k])
        else:
            with tracer.installed():
                pdf, wl = _generate(cfg, data_seed, wl_seed)
            passes = {}
            for traced in ((False, True) if inst % 2 == 0 else (True, False)):
                c0 = time.process_time()
                with tracer.installed() if traced else contextlib.nullcontext():
                    passes[traced] = _row(cfg, pdf, wl)
                pass_cpus[traced].append(time.process_time() - c0)
            tracer.end_instance()
            results = passes[False]
            res.check(
                checksum(passes[True]) == checksum(results),
                f"instance {inst}: traced and untraced checksums differ",
            )
        for m, qc, rc, mv in checksum(results):
            print(f"checksum instance={inst} method={m} query_cost={qc:.9f} reorg_cost={rc:.1f} moves={mv}")
        o = results["oreo"]
        oreo_counts += (o.n_candidates, o.n_admitted, o.n_moves, o.n_phases)
        if inst < cfg.min_instances:
            oreo_total += o.total_cost
        _check(res, cfg, pdf, wl, results, inst)
        inst += 1
    print(f"instances {inst} ({cfg.n_queries} queries, {cfg.n_segments} segments each)")
    print(f"oreo_total_cost = {oreo_total:.6f} scans (first {cfg.min_instances} instances)")
    if tracer is None:
        res.metrics.update(
            setup_s=statistics.median(ref_s["setup"]),
            run_ref_s=statistics.median(ref_s["row"]),
            oreo_ref_s=statistics.median(ref_s["oreo"]),
        )
    else:
        res.metrics.update(tracer.layer_metrics(inst))
        for name, v in zip(OREO_COUNTS, oreo_counts / inst):
            res.metrics[name] = float(v)
        res.metrics["core.oreo.total_cost"] = oreo_total
        res.metrics["trace.overhead_pct"] = (sum(pass_cpus[True]) / sum(pass_cpus[False]) - 1.0) * 100.0
    return res, tracer
