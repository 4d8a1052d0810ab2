"""Unit tests for partition metadata + metadata-only costing (soundness)."""
import numpy as np
import pandas as pd
import pytest

from repro.layouts.metadata import build_materialized
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import InPredicate, Query, RangePredicate


@pytest.fixture(scope="module")
def pdf():
    return ds.tpch_lite_pdf(sf=0.005, seed=11)


@pytest.fixture(scope="module")
def mat(pdf):
    g = np.random.default_rng(0)
    bids = g.integers(0, 16, len(pdf))
    return build_materialized(
        pdf, bids, name="random16", categorical_cols=ds.TPCH_LITE.categorical_cols
    )


class TestBuildMaterialized:
    def test_row_counts(self, pdf, mat):
        assert mat.n_rows == len(pdf)
        assert mat.rows.sum() == len(pdf)
        assert mat.n_partitions == 16

    def test_minmax_correct(self, pdf, mat):
        g = np.random.default_rng(0)
        bids = g.integers(0, 16, len(pdf))
        for b in (0, 7, 15):
            sub = pdf[bids == b]
            assert mat.mins["l_shipdate"][b] == sub["l_shipdate"].min()
            assert mat.maxs["l_shipdate"][b] == sub["l_shipdate"].max()

    def test_distinct_correct(self, pdf, mat):
        g = np.random.default_rng(0)
        bids = g.integers(0, 16, len(pdf))
        sub = pdf[bids == 3]
        held = {v for v, bits in mat.value_bits["c_mktsegment"].items() if bits >> 3 & 1}
        assert held == frozenset(sub["c_mktsegment"])

    def test_empty_partition(self, pdf):
        bids = np.zeros(len(pdf), dtype=int)
        bids[0] = 2  # partition 1 stays empty
        m = build_materialized(
            pdf, bids, name="gap", categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        assert m.rows[1] == 0
        q = Query((RangePredicate("l_shipdate", lo=0),))
        assert 1 not in m.relevant_bids(q)

    def test_length_mismatch_raises(self, pdf):
        with pytest.raises(ValueError):
            build_materialized(pdf, np.zeros(3), name="x", categorical_cols=())


class TestPruningSoundness:
    """Metadata pruning must never skip a partition holding matching rows."""

    def test_sound_on_workload(self, pdf, mat):
        g = np.random.default_rng(0)
        bids = g.integers(0, 16, len(pdf))
        w = generate_workload("tpch_lite", n_queries=120, n_segments=10, seed=13)
        for q in w.queries:
            matched_bids = set(np.unique(bids[q.mask(pdf)]))
            kept = set(mat.relevant_bids(q))
            assert matched_bids <= kept, f"pruned a matching partition for {q}"

    def test_prunes_something_for_selective_query(self, pdf):
        # Range-partition by shipdate: a narrow shipdate query must prune.
        qs = np.quantile(pdf["l_shipdate"], np.linspace(0, 1, 9)[1:-1])
        bids = np.searchsorted(qs, pdf["l_shipdate"].to_numpy())
        m = build_materialized(
            pdf, bids, name="ship8", categorical_cols=ds.TPCH_LITE.categorical_cols
        )
        lo = int(np.quantile(pdf["l_shipdate"], 0.4))
        q = Query((RangePredicate("l_shipdate", lo=lo, hi=lo + 30),))
        assert len(m.relevant_bids(q)) < m.n_partitions

    def test_unknown_column_is_never_pruned_on(self, pdf, mat):
        q = Query((RangePredicate("not_a_column", lo=0),))
        assert mat.cost(q) == 1.0


class TestCostModel:
    def test_cost_bounds(self, pdf, mat):
        w = generate_workload("tpch_lite", n_queries=60, n_segments=6, seed=17)
        for q in w.queries:
            assert 0.0 <= mat.cost(q) <= 1.0

    def test_cost_is_fraction_of_kept_rows(self, pdf, mat):
        q = Query((InPredicate("l_returnflag", frozenset({"R"})),))
        keep = mat.relevant_partitions(q)
        assert mat.cost(q) == pytest.approx(mat.rows[keep].sum() / mat.n_rows)

    def test_full_match_costs_one(self, pdf, mat):
        q = Query((RangePredicate("l_quantity", lo=0, hi=1e9),))
        assert mat.cost(q) == 1.0

    def test_no_match_costs_zero(self, pdf, mat):
        q = Query((RangePredicate("l_quantity", lo=1e6),))
        assert mat.cost(q) == 0.0

    def test_eval_skipped_complements_cost(self, mat):
        qs = [
            Query((RangePredicate("l_quantity", lo=0, hi=1e9),)),
            Query((RangePredicate("l_quantity", lo=1e6),)),
        ]
        assert mat.eval_skipped(qs) == pytest.approx(0.5)
        assert mat.eval_skipped([]) == 0.0

    def test_cost_vector_matches_cost(self, mat):
        qs = [
            Query((RangePredicate("l_shipdate", lo=100, hi=200),)),
            Query((InPredicate("c_mktsegment", frozenset({"BUILDING"})),)),
        ]
        cv = mat.cost_vector(qs)
        assert cv.shape == (2,)
        assert cv[0] == mat.cost(qs[0]) and cv[1] == mat.cost(qs[1])

    def test_empty_layout_cost_zero(self):
        empty = pd.DataFrame({"x": []})
        m = build_materialized(empty, np.array([], dtype=int), name="e", categorical_cols=())
        assert m.cost(Query((RangePredicate("x", lo=0),))) == 0.0


class TestNaNStats:
    """A NaN must never hide a partition's matching rows from pruning."""

    @pytest.fixture()
    def nan_mat(self):
        pdf = pd.DataFrame({"x": [1.0, np.nan, 5.0, 6.0, np.nan, np.nan, 7.0, 8.0]})
        bids = np.array([0, 0, 1, 1, 2, 2, 4, 4])  # partition 3 is empty
        return pdf, build_materialized(pdf, bids, name="nan", categorical_cols=())

    def test_partition_with_nan_keeps_its_match(self, nan_mat):
        _, m = nan_mat
        assert m.relevant_bids(Query((RangePredicate("x", lo=0, hi=2),))) == [0]

    def test_sound_under_pandas_and_spark_nan_order(self, nan_mat):
        pdf, m = nan_mat
        x = pdf["x"].to_numpy()
        bids = np.array([0, 0, 1, 1, 2, 2, 4, 4])
        for lo, hi in [(0, 2), (5, 5), (6.5, None), (None, 1), (100, None), (None, 5.5)]:
            q = Query((RangePredicate("x", lo=lo, hi=hi),))
            keep = m.relevant_partitions(q)
            # pandas: NaN matches no comparison.
            assert keep[bids[q.mask(pdf)]].all()
            # Spark: NaN sorts above every number, so it satisfies x >= lo.
            spark = np.where(np.isnan(x), hi is None, q.mask(pdf))
            assert keep[bids[spark]].all(), (lo, hi)

    def test_nan_stats_values(self, nan_mat):
        _, m = nan_mat
        np.testing.assert_array_equal(m.mins["x"], [1.0, 5.0, np.inf, np.inf, 7.0])
        np.testing.assert_array_equal(m.maxs["x"], [np.inf, 6.0, np.inf, -np.inf, 8.0])


def reference_relevant_partitions(mat, distinct, query):
    """The numpy/frozenset pruning the bitset index replaced, kept verbatim."""
    keep = np.ones(mat.n_partitions, dtype=bool)
    for p in query.predicates:
        if isinstance(p, RangePredicate):
            if p.col not in mat.mins:
                continue
            if p.lo is not None:
                keep &= mat.maxs[p.col] >= p.lo
            if p.hi is not None:
                keep &= mat.mins[p.col] <= p.hi
        elif isinstance(p, InPredicate):
            sets = distinct.get(p.col)
            if sets is None:
                continue
            keep &= np.fromiter(
                (not p.values.isdisjoint(s) for s in sets),
                dtype=bool,
                count=mat.n_partitions,
            )
    return keep


class TestBitsetEquivalence:
    """The bitset index prunes, lists BIDs and costs exactly as numpy did."""

    CATS = ["a", "b", "c", "o'k", None]

    @staticmethod
    def random_case(g):
        n = int(g.integers(1, 400))
        k = int(g.choice([1, 3, 8, 24, 70]))
        x = g.integers(-5, 6, n)  # heavy duplicates
        y = g.normal(0, 10, n).round(1)
        y[g.random(n) < 0.1] = np.nan
        y[g.random(n) < 0.05] = np.inf
        y[g.random(n) < 0.05] = -np.inf
        z = np.where(g.random(n) < 0.2, np.nan, g.integers(0, 3, n).astype(float))
        cat = np.array(TestBitsetEquivalence.CATS, dtype=object)[g.integers(0, 5, n)]
        pdf = pd.DataFrame({"x": x, "y": y, "z": z, "cat": cat})
        # Every other partition id is skipped, so some partitions are empty.
        bids = g.integers(0, k, n) * 2
        return pdf, bids

    @staticmethod
    def random_query(g, mat):
        preds = []
        for _ in range(int(g.integers(1, 4))):
            kind = g.integers(0, 4)
            if kind == 3:
                n_vals = int(g.integers(1, 4))
                vals = g.choice(["a", "b", "c", "o'k", "absent"], n_vals, replace=False)
                col = str(g.choice(["cat", "cat", "x", "missing"]))
                preds.append(InPredicate(col, frozenset(vals.tolist())))
                continue
            col = str(g.choice(["x", "y", "z", "cat", "missing"]))
            stats = np.concatenate([mat.mins[col], mat.maxs[col]]) if col in mat.mins else np.zeros(1)
            pool = np.concatenate([stats, [-np.inf, np.inf, -3.5, 0, 2.25]])

            def bound():
                b = g.choice(pool)
                return int(b) if np.isfinite(b) and b == int(b) and g.random() < 0.5 else b

            lo, hi = bound(), bound()
            if kind == 0:
                hi = None
            elif kind == 1:
                lo = None
            preds.append(RangePredicate(col, lo=lo, hi=hi))
        return Query(tuple(preds))

    def test_matches_reference_and_ground_truth(self):
        g = np.random.default_rng(20240)
        for _ in range(40):
            pdf, bids = self.random_case(g)
            mat = build_materialized(pdf, bids, name="rand", categorical_cols=("cat",))
            distinct = {
                "cat": [frozenset(pdf["cat"][bids == b]) for b in range(mat.n_partitions)]
            }
            for _ in range(60):
                q = self.random_query(g, mat)
                ref = reference_relevant_partitions(mat, distinct, q)
                keep = mat.relevant_partitions(q)
                np.testing.assert_array_equal(keep, ref, err_msg=str(q))
                assert mat.relevant_bids(q) == np.flatnonzero(ref).tolist()
                ref_cost = float(mat.rows[ref].sum() / mat.n_rows)
                assert mat.cost(q).hex() == ref_cost.hex(), q
                # Sound against row-level ground truth (pandas semantics). A
                # predicate without stats prunes nothing; dropping it only
                # widens the matching rows.
                with_stats = Query(tuple(
                    p for p in q.predicates
                    if p.col in (mat.mins if isinstance(p, RangePredicate) else mat.value_bits)
                ))
                assert keep[bids[with_stats.mask(pdf)]].all(), q

    def test_range_bound_at_partition_stats(self):
        pdf = pd.DataFrame({"x": [1, 2, 3, 4, 5, 6]})
        m = build_materialized(pdf, np.array([0, 0, 1, 1, 2, 2]), name="r", categorical_cols=())
        assert m.relevant_bids(Query((RangePredicate("x", lo=2),))) == [0, 1, 2]
        assert m.relevant_bids(Query((RangePredicate("x", lo=2.5, hi=3),))) == [1]
        assert m.relevant_bids(Query((RangePredicate("x", hi=4.0),))) == [0, 1]
        assert m.cost(Query((RangePredicate("x", lo=7),))) == 0.0
