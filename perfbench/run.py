"""Repository benchmark: Figure-3 simulator rows and a real Spark replay.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-tpch-qdtree --seed 0 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

- ``fig3-tpch-qdtree``  Static, Greedy, Regret and OREO on tpch_lite, Qd-tree;
- ``fig3-tpcds-zorder`` the same four methods on tpcds_lite, Z-order;
- ``spark-replay-tpch`` real reorganizations and pruned queries in Spark. It
  is not listed in ``BENCHMARK.json``: on a shared 4-CPU machine its timings
  vary by more than any bound the benchmark may set, so it is run by hand
  and reports every figure it has, by name, in its result.

``--trace 0`` reports the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` runs the same work bare and under per-layer wrappers and
reports the per-layer metrics, writing its spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl``. Every metric is printed as
``metric <name> = <value> <unit>``; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The program under test is imported from ``src/`` of the checkout; the
benchmark exits non-zero without a result when it is not there.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys

# One BLAS thread: the timed code is single-threaded Python and numpy, and its
# times are CPU seconds, which idle BLAS threads spinning would inflate.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _use_checkout_sources() -> None:
    """Import ``repro`` from ``src/``, here and in Spark's Python workers."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    prev = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + prev if prev else "")


def workloads() -> dict:
    from replay import SparkConfig
    from simrows import SimConfig

    return {
        "fig3-tpch-qdtree": SimConfig("tpch_lite", "qdtree"),
        "fig3-tpcds-zorder": SimConfig("tpcds_lite", "zorder"),
        "spark-replay-tpch": SparkConfig(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    _use_checkout_sources()
    spec = load_spec()
    configs = workloads()
    if args.workload not in configs:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(configs)}")
    cfg = configs[args.workload]
    os.makedirs(SCRATCH, exist_ok=True)
    trace = bool(args.trace)
    if args.workload.startswith("spark-"):
        import replay as module

        res, tracer = module.run(cfg, args.workload, args.seed, args.seconds, trace, SCRATCH)
    else:
        import simrows as module

        res, tracer = module.run(cfg, args.workload, args.seed, args.seconds, trace)

    if not trace:
        res.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res.metrics["failed_frac"] = res.failed / res.attempted
    declared = spec["per_layer" if trace else "end_to_end"]
    units = dict(module.UNITS, failed_frac="ratio", **{m["name"]: m["unit"] for m in declared})
    if any(w["name"] == args.workload for w in spec["workloads"]):
        missing = [m["name"] for m in declared if m["name"] not in res.metrics]
        if not trace and missing:
            raise SystemExit(f"perfbench: workload produced no {missing}")
        for m in missing:  # a layer this workload does not exercise
            res.metrics[m] = 0.0
        reported = [m["name"] for m in declared]
    else:
        reported = [m for m in res.metrics if m != "failed_frac"]
    for name, value in res.metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    if tracer is not None:
        path = os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:8]
        print("self seconds: " + ", ".join(f"{n}={s:.3f}" for n, s in top))
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m: {"value": res.metrics[m], "unit": units[m]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
