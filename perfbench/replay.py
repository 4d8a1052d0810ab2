"""Spark replay: a segmented stream on real BID-partitioned Parquet.

tpch_lite at SF 0.1 is written under the default range layout. The timed
stream then follows the Offline-Optimal schedule: at every segment boundary
a real :func:`~repro.sparkio.reorganize` rewrites the table under that
segment's :func:`~repro.baselines.runners.per_template_layouts` layout, and
every query of the segment goes through :func:`~repro.sparkio.run_query`
(closed loop, one client). Consecutive segments always use different
templates, so every seed gets exactly ``n_segments`` reorganizations.

Set-up (session start, data and layouts, the initial ``write_layout`` and
untimed warm-up queries) happens once per process: a JVM session cannot be
started twice in one process, so ``setup_s`` here is a single measurement.

With tracing on, every reorganization and every query runs twice, bare and
traced, alternating which goes first, on two copies of the table; the
partitions read and the per-BID row counts of both copies must agree.

All Spark data, shuffle files and JVM temp files live in a directory under
the checkout that the run removes.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import runners
from repro.core import oreo
from repro.experiments.common import K_PARTITIONS
from repro.workload import datasets, generator

from outcome import Run
from tracing import Tracer


# Units of the figures this workload reports beyond BENCHMARK.json.
UNITS = {
    "run_wall_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "reorg_p50_s": "s",
    "sparkio.write_layout_s": "s",
    "sparkio.reorganize_s": "s",
    "sparkio.run_query_s": "s",
    "sparkio.full_scan_ms": "ms",
    "layouts.metadata.relevant_bids_ms": "ms",
    "sparkio.partitions_read_per_query": "count",
    "sparkio.bytes_read_per_query": "bytes",
    "sparkio.rows_matched_per_row_scanned": "ratio",
    "model.error_pct": "%",
}


DATASET = "tpch_lite"
AGG_COL = "l_extendedprice"  # the measure column run_query and full_scan aggregate
MASTER = "local[2]"  # task slots kept below the machine's 4 CPUs
SCAN_REPS = 3  # full scans timed for t_scan


@dataclass(frozen=True)
class SparkConfig:
    sf: float = 0.1
    n_queries: int = 200  # timed queries: p95 has 10 samples beyond it
    n_segments: int = 5
    warmup_queries: int = 20
    check_every: int = 10  # ground-truth count check on every n-th query


def truth_count(q, pdf) -> int:
    """Rows the query selects, from the pandas frame (ground truth)."""
    return int(q.mask(pdf).sum())


def bid_files(path: str) -> dict[int, list[str]]:
    """Parquet files of each ``BID=<n>`` directory of a written table."""
    out: dict[int, list[str]] = {}
    for d in os.listdir(path):
        if d.startswith("BID="):
            sub = os.path.join(path, d)
            out[int(d[4:])] = sorted(
                os.path.join(sub, f) for f in os.listdir(sub) if f.endswith(".parquet")
            )
    return out


def bid_rows(path: str) -> dict[int, int]:
    """Row count per BID read from the Parquet footers, without Spark."""
    import pyarrow.parquet as pq

    return {
        b: sum(pq.read_metadata(f).num_rows for f in files)
        for b, files in bid_files(path).items()
    }


def bid_bytes(path: str) -> dict[int, int]:
    """On-disk bytes per BID directory."""
    return {b: sum(os.path.getsize(f) for f in files) for b, files in bid_files(path).items()}


def _rows_match(path: str, mat) -> bool:
    counts = bid_rows(path)
    expected = {b: int(n) for b, n in enumerate(mat.rows) if n > 0}
    return counts == expected


def start_spark(tmp: str):
    """A ``MASTER`` session whose files all live under ``tmp``."""
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"  # ignore inherited launcher flags
    os.environ.pop("SPARK_LOCAL_DIRS", None)  # it would override spark.local.dir
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(MASTER)
        .appName("perfbench")
        .config("spark.driver.memory", "1g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .config("spark.local.dir", os.path.join(tmp, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the gateway JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits at end of its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class _Stream:
    """Timings and tables of one replay of the stream (bare or traced)."""

    def __init__(self) -> None:
        self.query_s: list[float] = []
        self.reorg_s: list[float] = []
        self.bids: list[int] = []  # partitions read, per query
        self.tables: list[tuple[str, object, int, int]] = []  # path, layout, first, end


def _segments(wl):
    ends = list(wl.segment_starts[1:]) + [len(wl)]
    return list(zip(wl.segment_starts, ends, wl.segment_templates))


def _reorg(spark, src, mat, dst, stream: _Stream) -> None:
    from repro import sparkio

    t0 = time.perf_counter()
    sparkio.reorganize(spark, src, mat.layout, dst)
    stream.reorg_s.append(time.perf_counter() - t0)


def _query(df, q, mat, stream: _Stream) -> None:
    from repro import sparkio

    t0 = time.perf_counter()
    _, n_bids = sparkio.run_query(df, q, mat, agg_col=AGG_COL)
    stream.query_s.append(time.perf_counter() - t0)
    stream.bids.append(n_bids)


def _replay(spark, tmp, wl, layouts, src: str) -> tuple[_Stream, float]:
    """The timed stream, untraced; returns it with its wall seconds."""
    from repro import sparkio

    s = _Stream()
    t0 = time.perf_counter()
    for i, (lo, hi, tid) in enumerate(_segments(wl)):
        mat, dst = layouts[tid], os.path.join(tmp, f"seg{i}")
        _reorg(spark, src, mat, dst, s)
        df = sparkio.read_layout_table(spark, dst)
        for q in wl.queries[lo:hi]:
            _query(df, q, mat, s)
        s.tables.append((dst, mat, lo, hi))
        src = dst
    return s, time.perf_counter() - t0


def _replay_twice(spark, tmp, wl, layouts, src: str, tracer: Tracer):
    """Every operation bare and traced, alternating order; returns both."""
    from repro import sparkio

    bare, traced = _Stream(), _Stream()
    for i, (lo, hi, tid) in enumerate(_segments(wl)):
        mat = layouts[tid]
        dfs = {}
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            stream = traced if is_traced else bare
            dst = os.path.join(tmp, f"seg{i}-{'traced' if is_traced else 'bare'}")
            with tracer.installed() if is_traced else contextlib.nullcontext():
                _reorg(spark, src, mat, dst, stream)
                dfs[is_traced] = sparkio.read_layout_table(spark, dst)
            stream.tables.append((dst, mat, lo, hi))
        for j, q in enumerate(wl.queries[lo:hi]):
            for is_traced in ((False, True) if j % 2 == 0 else (True, False)):
                stream = traced if is_traced else bare
                with tracer.installed() if is_traced else contextlib.nullcontext():
                    _query(dfs[is_traced], q, mat, stream)
        src = os.path.join(tmp, f"seg{i}-bare")
    return bare, traced


def _check(res: Run, spark, cfg, pdf, wl, stream: _Stream) -> None:
    """Per-BID row counts of every table and sampled ground-truth counts."""
    from pyspark.sql import functions as F

    from repro import sparkio

    for path, mat, lo, hi in stream.tables:
        res.check(_rows_match(path, mat), f"{path}: per-BID row counts differ from {mat.name} metadata")
        df = sparkio.read_layout_table(spark, path)
        for qi in range(lo, hi):
            if qi % cfg.check_every:
                continue
            q = wl.queries[qi]
            got = (
                df.where(F.col("BID").isin(mat.relevant_bids(q)))
                .where(F.expr(q.to_sql_where()))
                .count()
            )
            res.check(got == truth_count(q, pdf), f"query {qi}: pruned count {got} != ground truth")


def run(cfg: SparkConfig, workload: str, seed: int, seconds: float, trace: bool, scratch: str):
    """One run; ``scratch`` is a directory inside the checkout for temp files.

    The stream has a fixed length, so ``seconds`` does not bound it.
    """
    res = Run()
    tracer = Tracer(workload) if trace else None
    g = np.random.default_rng(seed)
    data_seed, wl_seed, warm_seed = (int(x) for x in g.integers(2**31, size=3))
    tmp = tempfile.mkdtemp(prefix="spark-", dir=scratch)
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark(tmp)
        print(f"session started in {time.perf_counter() - t0:.1f} s", flush=True)
        from repro import sparkio

        with tracer.installed() if tracer else contextlib.nullcontext():
            spec = datasets.SPECS[DATASET]
            pdf = datasets.build_pdf(DATASET, sf=cfg.sf, seed=data_seed)
            wl = generator.generate_workload(
                DATASET, n_queries=cfg.n_queries, n_segments=cfg.n_segments, seed=wl_seed
            )
            warm = generator.generate_workload(
                DATASET, n_queries=cfg.warmup_queries,
                n_segments=min(cfg.warmup_queries, 5), seed=warm_seed,
            )
            init = oreo.default_layout(pdf, spec, K_PARTITIONS)
            layouts = runners.per_template_layouts(pdf, spec, wl, K_PARTITIONS, layout_kind="qdtree", seed=0)
            src = os.path.join(tmp, "initial")
            t1 = time.perf_counter()
            sparkio.write_layout(spark.createDataFrame(pdf), init.layout, src)
            print(f"initial write in {time.perf_counter() - t1:.1f} s", flush=True)
            df = sparkio.read_layout_table(spark, src)
            for q in warm.queries:
                sparkio.run_query(df, q, init, agg_col=AGG_COL)
            sparkio.full_scan(df, agg_col=AGG_COL)
        setup_s = time.perf_counter() - t0
        res.check(_rows_match(src, init), f"{src}: per-BID row counts differ from {init.name} metadata")

        if tracer is None:
            stream, wall = _replay(spark, tmp, wl, layouts, src)
            _check(res, spark, cfg, pdf, wl, stream)
            res.metrics.update(
                setup_s=setup_s,
                run_wall_s=wall,
                query_p50_ms=float(np.percentile(stream.query_s, 50)) * 1e3,
                query_p95_ms=float(np.percentile(stream.query_s, 95)) * 1e3,
                reorg_p50_s=statistics.median(stream.reorg_s),
            )
        else:
            bare, traced = _replay_twice(spark, tmp, wl, layouts, src, tracer)
            _check(res, spark, cfg, pdf, wl, bare)
            res.check(bare.bids == traced.bids, "traced and untraced runs read different partitions")
            for (p_bare, *_), (p_traced, *_) in zip(bare.tables, traced.tables):
                res.check(bid_rows(p_bare) == bid_rows(p_traced), f"{p_traced}: differs from {p_bare}")
            last = sparkio.read_layout_table(spark, bare.tables[-1][0])
            with tracer.installed():
                for _ in range(SCAN_REPS):
                    sparkio.full_scan(last, agg_col=AGG_COL)
            res.metrics.update(tracer.layer_metrics(1))
            res.metrics.update(_spark_layers(tracer, pdf, wl, bare, traced))
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"stream {len(wl)} queries, {len(wl.segment_starts)} segments, templates {list(wl.segment_templates)}")
    return res, tracer


def _spark_layers(tr: Tracer, pdf, wl, bare: _Stream, traced: _Stream) -> dict[str, float]:
    from repro.experiments.figure3_endtoend import to_seconds

    scans = tr.durations("sparkio.full_scan")[-SCAN_REPS:]
    t_scan = statistics.median(scans)
    t_reorg = statistics.median(tr.durations("sparkio.reorganize"))
    matched = scanned = nbytes = 0
    query_cost = 0.0
    for path, mat, lo, hi in traced.tables:
        sizes = bid_bytes(path)
        for q in wl.queries[lo:hi]:
            bids = mat.relevant_bids(q)
            matched += truth_count(q, pdf)
            scanned += int(mat.rows[bids].sum())
            nbytes += sum(sizes.get(b, 0) for b in bids)
            query_cost += mat.cost(q)
    n_q = len(traced.query_s)
    predicted = to_seconds(
        [{"query_cost": query_cost, "reorg_cost": 0.0, "n_moves": len(traced.reorg_s)}],
        t_scan=t_scan, t_reorg=t_reorg,
    )[0]["total_s"]
    measured = sum(traced.query_s) + sum(traced.reorg_s)
    bare_s = sum(bare.query_s) + sum(bare.reorg_s)
    rb = tr.calls["layouts.metadata.relevant_bids"]
    return {
        "sparkio.write_layout_s": sum(tr.durations("sparkio.write_layout", top_level_only=True)),
        "sparkio.reorganize_s": t_reorg,
        "sparkio.run_query_s": statistics.median(tr.durations("sparkio.run_query")[-n_q:]),
        "sparkio.full_scan_ms": t_scan * 1e3,
        "layouts.metadata.relevant_bids_ms": tr.seconds["layouts.metadata.relevant_bids"] / rb * 1e3 if rb else 0.0,
        "sparkio.partitions_read_per_query": sum(traced.bids) / n_q,
        "sparkio.bytes_read_per_query": nbytes / n_q,
        "sparkio.rows_matched_per_row_scanned": matched / scanned if scanned else 0.0,
        "model.error_pct": (predicted - measured) / measured * 100.0,
        "trace.overhead_pct": (measured / bare_s - 1.0) * 100.0,
    }
