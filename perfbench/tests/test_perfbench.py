"""Tests of the benchmark itself, on tiny configurations.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
The Spark test starts a local JVM and takes about a minute.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._use_checkout_sources()

import replay  # noqa: E402
import simrows  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "fig3-tpch-qdtree": simrows.SimConfig(
        "tpch_lite", "qdtree", sf=0.005, n_queries=200, n_segments=4, min_instances=1
    ),
    "fig3-tpcds-zorder": simrows.SimConfig(
        "tpcds_lite", "zorder", sf=0.005, n_queries=200, n_segments=4, min_instances=1
    ),
    "spark-replay-tpch": replay.SparkConfig(
        sf=0.005, n_queries=10, n_segments=2, warmup_queries=2, check_every=5
    ),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "workloads", lambda: TINY)


def _run(capsys, workload: str, trace: int, seed: int = 3):
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_reports(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(ln.startswith(f"metric {m['name']} = ") for ln in lines), m["name"]


def test_benchmark_json_follows_contract():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert {w["name"] for w in spec["workloads"]} <= set(run.workloads())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", ["fig3-tpch-qdtree", "fig3-tpcds-zorder"])
def test_sim_prints_every_metric_and_traced_checksums_match(tiny, capsys, workload):
    spec = run.load_spec()
    lines, result = _run(capsys, workload, 0)
    _assert_reports(lines, result, spec["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    bare = [ln for ln in lines if ln.startswith("checksum ")]
    assert len(bare) == len(simrows.METHODS)

    lines, result = _run(capsys, workload, 1)
    _assert_reports(lines, result, spec["per_layer"])
    assert result["correct"] and result["failed"] == 0
    assert [ln for ln in lines if ln.startswith("checksum ")] == bare
    assert result["metrics"]["layouts.metadata.cost_calls"]["value"] > 0
    assert os.path.exists(os.path.join(run.SCRATCH, f"spans-{workload}-seed3.jsonl"))


def test_spark_wrong_count_is_reported_in_failed_frac(tiny, capsys, monkeypatch):
    monkeypatch.setattr(replay, "truth_count", lambda q, pdf: int(q.mask(pdf).sum()) + 1)
    lines, result = _run(capsys, "spark-replay-tpch", 0)
    expected = {"setup_s", "run_wall_s", "peak_rss_mb", "query_p50_ms", "query_p95_ms", "reorg_p50_s"}
    assert set(result["metrics"]) == expected
    for name in expected:
        assert any(ln.startswith(f"metric {name} = ") for ln in lines), name
    assert not result["correct"]
    assert result["failed"] == 2  # queries 0 and 5 of the ten
    frac = next(ln for ln in lines if ln.startswith("metric failed_frac = "))
    assert float(frac.split()[3]) == pytest.approx(2 / result["attempted"])
    assert not [d for d in os.listdir(run.SCRATCH) if d.startswith("spark-")]


def test_spark_traced_run_reports_layers_and_matching_partitions(tiny, capsys):
    lines, result = _run(capsys, "spark-replay-tpch", 1)
    assert result["correct"] and result["failed"] == 0
    for name in replay.UNITS:
        if not name.startswith("query_") and name not in ("reorg_p50_s", "run_wall_s"):
            assert result["metrics"][name]["unit"] == replay.UNITS[name], name
    assert result["metrics"]["sparkio.partitions_read_per_query"]["value"] >= 1
    assert 0 < result["metrics"]["sparkio.rows_matched_per_row_scanned"]["value"] <= 1


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-tpch-qdtree",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
