"""Unit tests for the layout generators: fixed, Qd-tree, Z-order."""
import numpy as np
import pandas as pd
import pytest

from repro.layouts.fixed import build_fixed
from repro.layouts.metadata import build_materialized
from repro.layouts.qdtree import CatCut, NumCut, build_qdtree, harvest_cuts
from repro.layouts.zorder import BITS, _interleave, build_zorder, sorted_quantiles, top_queried_columns
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import InPredicate, Query, RangePredicate


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.005, seed=23)


@pytest.fixture(scope="module")
def workload():
    return generate_workload("tpch_lite", n_queries=200, n_segments=8, seed=29)


def _mat(pdf, layout):
    return build_materialized(
        pdf,
        layout.assign(pdf),
        name=layout.name,
        categorical_cols=ds.TPCH_LITE.categorical_cols,
        layout=layout,
    )


class TestFixedRange:
    def test_partition_count_and_cover(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        bids = lay.assign(pdf)
        assert bids.min() >= 0 and bids.max() < lay.n_partitions
        assert len(bids) == len(pdf)

    def test_partitions_roughly_balanced(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        counts = np.bincount(lay.assign(pdf), minlength=8)
        assert counts.max() < 2.5 * max(1, counts.min())

    def test_partitions_are_ranges(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        m = _mat(pdf, lay)
        # Non-empty partitions must have non-overlapping shipdate ranges.
        his = m.maxs["l_shipdate"]
        los = m.mins["l_shipdate"]
        for b in range(m.n_partitions - 1):
            assert his[b] <= los[b + 1]

    def test_rejects_bad_k(self, pdf):
        with pytest.raises(ValueError):
            build_fixed(pdf, "l_shipdate", 0)

    def test_assign_pure_function(self, pdf):
        lay = build_fixed(pdf, "l_shipdate", 8)
        half = pdf.iloc[: len(pdf) // 2]
        np.testing.assert_array_equal(lay.assign(half), lay.assign(pdf)[: len(half)])


class TestHarvestCuts:
    def test_harvest_types(self, workload):
        cuts = harvest_cuts(workload.queries, max_cuts=64)
        assert cuts and len(cuts) <= 64
        assert any(isinstance(c, NumCut) for c in cuts)
        assert any(isinstance(c, CatCut) for c in cuts)

    def test_dedup(self):
        q = Query((RangePredicate("a", lo=1, hi=2),))
        cuts = harvest_cuts([q, q, q])
        assert len(cuts) == 2  # lo cut + hi cut, deduplicated

    def test_deterministic_subsample(self, workload):
        a = harvest_cuts(workload.queries, max_cuts=16, seed=1)
        b = harvest_cuts(workload.queries, max_cuts=16, seed=1)
        assert a == b


class TestQdTree:
    def test_assign_partitions_all_rows(self, pdf, workload):
        lay = build_qdtree(
            pdf, workload.queries, 16, categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        bids = lay.assign(pdf)
        assert len(bids) == len(pdf)
        assert bids.min() >= 0 and bids.max() < lay.n_partitions
        assert 1 < lay.n_partitions <= 16

    def test_deterministic(self, pdf, workload):
        a = build_qdtree(pdf, workload.queries, 12, categorical_cols=ds.TPCH_LITE.categorical_cols)
        b = build_qdtree(pdf, workload.queries, 12, categorical_cols=ds.TPCH_LITE.categorical_cols)
        np.testing.assert_array_equal(a.assign(pdf), b.assign(pdf))

    def test_beats_default_layout_on_its_workload(self, pdf, workload):
        """The whole point: a workload-aware tree skips more than time order."""
        qd = build_qdtree(
            pdf, workload.queries, 16, categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        fx = build_fixed(pdf, "l_orderkey", 16)  # sort by an unqueried key
        m_qd, m_fx = _mat(pdf, qd), _mat(pdf, fx)
        qs = workload.queries
        assert m_qd.eval_skipped(qs) > m_fx.eval_skipped(qs) + 0.05

    def test_specializes_to_single_template(self, pdf):
        """A tree built for one template family skips most data for it."""
        g = np.random.default_rng(0)
        from repro.workload.templates import TPCH_TEMPLATES

        t6 = next(t for t in TPCH_TEMPLATES if t.name.startswith("q6"))
        qs = [t6.instantiate(g) for _ in range(50)]
        lay = build_qdtree(pdf, qs, 16, categorical_cols=ds.TPCH_LITE.categorical_cols)
        assert _mat(pdf, lay).eval_skipped(qs) > 0.5

    def test_min_leaf_size_respected(self, pdf, workload):
        k = 8
        lay = build_qdtree(
            pdf,
            workload.queries,
            k,
            categorical_cols=ds.TPCH_LITE.categorical_cols,
            min_leaf_frac=0.25,
        )
        counts = np.bincount(lay.assign(pdf), minlength=lay.n_partitions)
        # Build-time bound holds on the build sample (== pdf here).
        assert counts[counts > 0].min() >= int(0.25 * len(pdf) / k)

    def test_routing_is_pure(self, pdf, workload):
        lay = build_qdtree(pdf, workload.queries, 8, categorical_cols=ds.TPCH_LITE.categorical_cols)
        sub = pdf.sample(n=100, random_state=0)
        full = lay.assign(pdf)
        np.testing.assert_array_equal(lay.assign(sub), full[sub.index.to_numpy()])

    def test_k1_is_single_partition(self, pdf, workload):
        lay = build_qdtree(pdf, workload.queries, 1, categorical_cols=ds.TPCH_LITE.categorical_cols)
        assert lay.n_partitions == 1
        assert (lay.assign(pdf) == 0).all()

    def test_rejects_bad_k(self, pdf, workload):
        with pytest.raises(ValueError):
            build_qdtree(pdf, workload.queries, 0)


class TestZOrder:
    def test_top_queried_columns(self):
        qs = [
            Query((RangePredicate("a", lo=0), InPredicate("b", frozenset({"x"})))),
            Query((RangePredicate("a", lo=1),)),
            Query((RangePredicate("c", lo=1),)),
        ]
        assert top_queried_columns(qs, n_cols=2) == ("a", "b")

    def test_interleave_small_case(self):
        # 2 cols, codes a=0b10, b=0b01 -> z bits: b0=0? interleave LSB first:
        # bit0: a0=0 -> pos0, b0=1 -> pos1; bit1: a1=1 -> pos2, b1=0 -> pos3.
        z = _interleave([np.array([0b10]), np.array([0b01])], bits=2)
        assert z[0] == 0b0110

    def test_interleave_preserves_order_single_col(self):
        v = np.array([3, 1, 2, 0])
        z = _interleave([v], bits=4)
        assert (np.argsort(z) == np.argsort(v)).all()

    def test_assign_balanced(self, pdf, workload):
        lay = build_zorder(
            pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        counts = np.bincount(lay.assign(pdf), minlength=lay.n_partitions)
        assert counts.max() <= 3 * max(1, np.median(counts))

    def test_uses_workload_columns(self, pdf, workload):
        lay = build_zorder(pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols)
        assert set(lay.cols) <= set(pdf.columns)
        assert len(lay.cols) == 3

    def test_skips_on_its_columns(self, pdf):
        g = np.random.default_rng(1)
        from repro.workload.templates import TPCH_TEMPLATES

        t1 = next(t for t in TPCH_TEMPLATES if t.name.startswith("q6"))
        qs = [t1.instantiate(g) for _ in range(40)]
        lay = build_zorder(pdf, qs, 16, categorical_cols=ds.TPCH_LITE.categorical_cols)
        fx = build_fixed(pdf, "l_orderkey", 16)
        assert _mat(pdf, lay).eval_skipped(qs) > _mat(pdf, fx).eval_skipped(qs)

    def test_deterministic(self, pdf, workload):
        a = build_zorder(pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols)
        b = build_zorder(pdf, workload.queries, 10, categorical_cols=ds.TPCH_LITE.categorical_cols)
        np.testing.assert_array_equal(a.assign(pdf), b.assign(pdf))

    def test_categorical_zorder_column(self, pdf):
        qs = [Query((InPredicate("c_mktsegment", frozenset({"BUILDING"})),))] * 5
        lay = build_zorder(
            pdf, qs, 5, categorical_cols=ds.TPCH_LITE.categorical_cols, n_cols=1
        )
        assert lay.cols == ("c_mktsegment",)
        m = _mat(pdf, lay)
        assert m.eval_skipped(qs) > 0.3

    def test_rejects_bad_k(self, pdf, workload):
        with pytest.raises(ValueError):
            build_zorder(pdf, workload.queries, 0)


class TestSortedQuantiles:
    """Z-order rank bounds from one sort equal ``np.quantile`` bit for bit."""

    QS = np.linspace(0, 1, (1 << BITS) + 1)[1:-1]

    @staticmethod
    def assert_same(values):
        got = sorted_quantiles(values, TestSortedQuantiles.QS)
        want = np.quantile(values, TestSortedQuantiles.QS)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
        assert (np.signbit(got) == np.signbit(want)).all()

    @pytest.mark.parametrize("name", ["tpch_lite", "tpcds_lite", "telemetry"])
    def test_dataset_samples(self, name):
        spec = ds.SPECS[name]
        sample = ds.build_pdf(name, sf=0.02).sample(n=4000, random_state=0)
        numeric = [c for c in sample.columns if c not in spec.categorical_cols]
        assert numeric
        for c in numeric:
            self.assert_same(sample[c].to_numpy())

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 4001])
    def test_heavy_duplicates(self, dtype, n):
        g = np.random.default_rng(n)
        self.assert_same(g.integers(-3, 4, n).astype(dtype))
        self.assert_same((g.integers(0, 2, n) * 10**6).astype(dtype))

    def test_special_floats(self):
        self.assert_same(np.array([-0.0]))
        with np.errstate(invalid="ignore"):  # inf - inf, in numpy's lerp too
            self.assert_same(np.array([np.inf]))
            self.assert_same(np.array([-np.inf, 1.0, np.inf]))
        self.assert_same(np.array([2.0, np.nan, 1.0]))  # all NaN, as np.quantile
        self.assert_same(np.array([np.nan]))

    def test_empty_sample_raises(self, pdf, workload):
        for dtype in (np.int64, np.float64):
            with pytest.raises(IndexError):
                sorted_quantiles(np.array([], dtype=dtype), self.QS)
        with pytest.raises(IndexError):
            build_zorder(pdf.iloc[:0], workload.queries, 4, categorical_cols=ds.TPCH_LITE.categorical_cols)
