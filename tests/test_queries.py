"""Unit tests for the predicate/query model (repro.workload.queries)."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.workload.datasets import tpch_lite_pdf
from repro.workload.queries import InPredicate, Query, RangePredicate


@pytest.fixture(scope="module")
def pdf():
    return tpch_lite_pdf(sf=0.005, seed=7)


class TestRangePredicate:
    def test_requires_a_bound(self):
        with pytest.raises(ValueError):
            RangePredicate("x")

    @pytest.mark.parametrize("lo, hi", [(np.nan, None), (None, float("nan")), (0, np.float32("nan"))])
    def test_rejects_nan_bound(self, lo, hi):
        with pytest.raises(ValueError, match="NaN"):
            RangePredicate("x", lo=lo, hi=hi)

    def test_mask_both_bounds(self, pdf):
        p = RangePredicate("l_quantity", lo=10, hi=20)
        m = p.mask(pdf)
        v = pdf["l_quantity"].to_numpy()
        assert (m == ((v >= 10) & (v <= 20))).all()

    def test_mask_lo_only(self, pdf):
        p = RangePredicate("l_shipdate", lo=1000)
        assert (p.mask(pdf) == (pdf["l_shipdate"].to_numpy() >= 1000)).all()

    def test_mask_hi_only(self, pdf):
        p = RangePredicate("l_shipdate", hi=1000)
        assert (p.mask(pdf) == (pdf["l_shipdate"].to_numpy() <= 1000)).all()

    def test_sql_rendering(self):
        p = RangePredicate("a", lo=1, hi=2)
        assert p.to_sql() == "(a >= 1 AND a <= 2)"
        p = RangePredicate("a", lo=np.int64(3), hi=np.float64(2.5))
        assert p.to_sql() == "(a >= 3 AND a <= 2.5)"

    def test_hashable_and_frozen(self):
        p = RangePredicate("a", lo=1)
        assert hash(p) == hash(RangePredicate("a", lo=1))
        with pytest.raises(Exception):
            p.col = "b"


class TestInPredicate:
    def test_requires_values(self):
        with pytest.raises(ValueError):
            InPredicate("x", frozenset())

    def test_mask(self, pdf):
        p = InPredicate("c_mktsegment", frozenset({"BUILDING", "MACHINERY"}))
        m = p.mask(pdf)
        assert (m == pdf["c_mktsegment"].isin(["BUILDING", "MACHINERY"]).to_numpy()).all()

    def test_sql_sorted_values(self):
        p = InPredicate("c", frozenset({"b", "a"}))
        assert p.to_sql() == "(c IN ('a', 'b'))"
        assert InPredicate("c", frozenset({"o'k"})).to_sql() == "(c IN ('o''k'))"

    def test_values_coerced_to_frozenset(self):
        p = InPredicate("c", {"x"})  # type: ignore[arg-type]
        assert isinstance(p.values, frozenset)


class TestQuery:
    def test_conjunction_mask(self, pdf):
        q = Query(
            predicates=(
                RangePredicate("l_quantity", hi=25),
                InPredicate("l_returnflag", frozenset({"R"})),
            )
        )
        m = q.mask(pdf)
        expect = (pdf["l_quantity"] <= 25) & (pdf["l_returnflag"] == "R")
        assert (m == expect.to_numpy()).all()

    def test_empty_conjunction_selects_all(self, pdf):
        q = Query(predicates=())
        assert q.mask(pdf).all()
        assert q.to_sql_where() == "TRUE"

    def test_selectivity_bounds(self, pdf):
        q = Query(predicates=(RangePredicate("l_discount", lo=0.02, hi=0.04),))
        s = q.selectivity(pdf)
        assert 0.0 < s < 1.0

    def test_selectivity_empty_frame(self):
        q = Query(predicates=(RangePredicate("x", lo=0),))
        assert q.selectivity(pd.DataFrame({"x": []})) == 0.0

    def test_columns(self):
        q = Query(
            predicates=(
                RangePredicate("a", lo=0),
                InPredicate("b", frozenset({"v"})),
            )
        )
        assert q.columns == ("a", "b")

    def test_sql_matches_mask_via_duckdb(self, pdf):
        """The SQL rendering and the pandas mask must agree row-for-row."""
        queries = [
            Query((RangePredicate("l_shipdate", lo=500, hi=900),)),
            Query((InPredicate("l_shipmode", frozenset({"AIR", "MAIL", "o'k"})),)),
            Query(
                (
                    RangePredicate("o_totalprice", lo=np.float64(100000.5)),
                    InPredicate("c_mktsegment", frozenset({"BUILDING"})),
                )
            ),
        ]
        con = duckdb.connect()
        con.register("t", pdf)
        try:
            for q in queries:
                n_sql = con.execute(
                    f"SELECT count(*) FROM t WHERE {q.to_sql_where()}"
                ).fetchone()[0]
                assert n_sql == int(q.mask(pdf).sum())
        finally:
            con.close()
