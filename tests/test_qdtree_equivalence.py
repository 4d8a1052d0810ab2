"""The vectorized ``build_qdtree`` builds exactly the tree of the scalar greedy.

``_reference_build_qdtree`` below is the original per-cut, per-query Python
scan, kept frozen here as the specification: the same cuts in the same order,
the same tie-breaks (first cut in harvest order wins) and the same BIDs.
"""
import heapq
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.layouts.qdtree import NumCut, QdTreeLayout, _Node, build_qdtree, harvest_cuts
from repro.workload import datasets as ds
from repro.workload.generator import generate_workload
from repro.workload.queries import InPredicate, Query, RangePredicate


def _overlaps_num(pred, lo, hi):
    if pred.lo is not None and hi < pred.lo:
        return False
    if pred.hi is not None and lo > pred.hi:
        return False
    return True


class _RefLeaf:
    __slots__ = ("rows", "ranges", "distinct", "accessed")

    def __init__(self, rows, ranges, distinct, accessed):
        self.rows = rows
        self.ranges = ranges
        self.distinct = distinct
        self.accessed = accessed


def _reference_build_qdtree(
    sample, queries, k, *, categorical_cols=(), max_cuts=128, max_queries=64,
    min_leaf_frac=0.25, name="qdtree", seed=0,
):
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = list(queries)
    if len(queries) > max_queries:
        step = len(queries) / max_queries
        queries = [queries[int(i * step)] for i in range(max_queries)]

    cuts = harvest_cuts(queries, max_cuts=max_cuts, seed=seed)
    preds_by_qcol = []
    for q in queries:
        d = {}
        for p in q.predicates:
            d.setdefault(p.col, []).append(p)
        preds_by_qcol.append(d)

    cols = [c for c in sample.columns if c != "BID"]
    num_cols = [c for c in cols if c not in categorical_cols]
    colarr = {c: sample[c].to_numpy() for c in cols}

    def leaf_accessed(ranges, distinct, cand):
        out = []
        for qi in cand:
            ok = True
            for col, preds in preds_by_qcol[qi].items():
                for p in preds:
                    if isinstance(p, RangePredicate):
                        lo, hi = ranges[col]
                        if not _overlaps_num(p, lo, hi):
                            ok = False
                            break
                    else:
                        if p.values.isdisjoint(distinct[col]):
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                out.append(qi)
        return out

    all_rows = np.arange(len(sample))
    root_ranges = {
        c: (float(colarr[c].min()), float(colarr[c].max())) if len(sample) else (0.0, 0.0)
        for c in num_cols
    }
    root_distinct = {c: frozenset(colarr[c]) for c in categorical_cols}
    root_leaf = _RefLeaf(
        all_rows, root_ranges, root_distinct, leaf_accessed(root_ranges, root_distinct, list(range(len(queries))))
    )

    min_rows = max(1, int(min_leaf_frac * len(sample) / k))

    def best_split(leaf):
        best = (0.0, None, None)
        n_leaf = len(leaf.rows)
        for cut in cuts:
            c = cut.col
            qs = [qi for qi in leaf.accessed if c in preds_by_qcol[qi]]
            if not qs:
                continue
            if isinstance(cut, NumCut):
                lo, hi = leaf.ranges.get(c, (None, None))
                if lo is None or not (lo < cut.v <= hi):
                    continue
                vals = colarr[c][leaf.rows]
                lm = vals < cut.v
                n1 = int(lm.sum())
                if n1 < min_rows or n_leaf - n1 < min_rows:
                    continue
                lmeta = (lo, float(np.nextafter(cut.v, -np.inf)))
                rmeta = (cut.v, hi)
                ben = 0.0
                for qi in qs:
                    a1 = a2 = True
                    for p in preds_by_qcol[qi][c]:
                        if isinstance(p, RangePredicate):
                            a1 = a1 and _overlaps_num(p, *lmeta)
                            a2 = a2 and _overlaps_num(p, *rmeta)
                    ben += n_leaf - n1 * a1 - (n_leaf - n1) * a2
            else:
                dset = leaf.distinct.get(c)
                if dset is None:
                    continue
                inter = dset & cut.values
                if not inter or inter == dset:
                    continue
                lm = pd.Index(colarr[c][leaf.rows]).isin(cut.values)
                n1 = int(lm.sum())
                if n1 < min_rows or n_leaf - n1 < min_rows:
                    continue
                ldist, rdist = inter, dset - cut.values
                ben = 0.0
                for qi in qs:
                    a1 = a2 = True
                    for p in preds_by_qcol[qi][c]:
                        if isinstance(p, InPredicate):
                            a1 = a1 and not p.values.isdisjoint(ldist)
                            a2 = a2 and not p.values.isdisjoint(rdist)
                    ben += n_leaf - n1 * a1 - (n_leaf - n1) * a2
            if ben > best[0]:
                best = (float(ben), cut, np.asarray(lm))
        return best

    def split_leaf(leaf, cut, lm):
        rows_l, rows_r = leaf.rows[lm], leaf.rows[~lm]
        if isinstance(cut, NumCut):
            rl = dict(leaf.ranges)
            rr = dict(leaf.ranges)
            vl = colarr[cut.col][rows_l]
            vr = colarr[cut.col][rows_r]
            rl[cut.col] = (float(vl.min()), float(vl.max()))
            rr[cut.col] = (float(vr.min()), float(vr.max()))
            dl = dr = leaf.distinct
        else:
            rl = rr = leaf.ranges
            dl = dict(leaf.distinct)
            dr = dict(leaf.distinct)
            dl[cut.col] = frozenset(colarr[cut.col][rows_l])
            dr[cut.col] = frozenset(colarr[cut.col][rows_r])
        return (
            _RefLeaf(rows_l, rl, dl, leaf_accessed(rl, dl, leaf.accessed)),
            _RefLeaf(rows_r, rr, dr, leaf_accessed(rr, dr, leaf.accessed)),
        )

    counter = itertools.count()
    root_node = _Node()
    heap = []
    leaf_info = {}

    def push(leaf, node):
        hid = next(counter)
        leaf_info[hid] = (leaf, node)
        ben, cut, lm = best_split(leaf)
        if cut is not None:
            heapq.heappush(heap, (-ben, hid, cut, lm))

    push(root_leaf, root_node)
    n_leaves = 1
    while n_leaves < k and heap:
        negben, hid, cut, lm = heapq.heappop(heap)
        if hid not in leaf_info:
            continue
        leaf, node = leaf_info.pop(hid)
        lleaf, rleaf = split_leaf(leaf, cut, lm)
        node.cut = cut
        node.left, node.right = _Node(), _Node()
        push(lleaf, node.left)
        push(rleaf, node.right)
        n_leaves += 1

    bid = 0
    stack = [root_node]
    while stack:
        nd = stack.pop()
        if nd.cut is None:
            nd.bid = bid
            bid += 1
        else:
            stack.append(nd.right)
            stack.append(nd.left)
    return QdTreeLayout(root=root_node, n_partitions=bid, name=name)


def _shape(layout: QdTreeLayout) -> list[str]:
    """Pre-order walk: ``repr`` of each inner node's cut, ``bid=N`` at leaves."""
    out, stack = [], [layout.root]
    while stack:
        nd = stack.pop()
        if nd.cut is None:
            out.append(f"bid={nd.bid}")
        else:
            out.append(repr(nd.cut))
            stack.append(nd.right)
            stack.append(nd.left)
    return out


def _assert_same_tree(pdf, sample, queries, k, **kw):
    ref = _reference_build_qdtree(sample, queries, k, **kw)
    new = build_qdtree(sample, queries, k, **kw)
    assert _shape(new) == _shape(ref)
    assert new.n_partitions == ref.n_partitions
    np.testing.assert_array_equal(new.assign(pdf), ref.assign(pdf))
    return new


@pytest.fixture(scope="module")
def frames():
    out = {}
    for i, name in enumerate(ds.SPECS):
        pdf = ds.build_pdf(name, sf=0.01)
        out[name] = (pdf, pdf.sample(n=1_500, random_state=i).reset_index(drop=True))
    return out


@pytest.fixture(scope="module")
def workloads():
    return {
        name: generate_workload(name, n_queries=600, n_segments=6, seed=7 + i)
        for i, name in enumerate(ds.SPECS)
    }


@pytest.mark.parametrize("name", list(ds.SPECS))
@pytest.mark.parametrize("k", [1, 8, 24, 64])
def test_same_tree_on_query_windows(frames, workloads, name, k):
    pdf, sample = frames[name]
    queries = workloads[name].queries
    cats = ds.SPECS[name].categorical_cols
    for start in (0, 200, 400):
        lay = _assert_same_tree(pdf, sample, queries[start:start + 200], k, categorical_cols=cats, seed=start)
        assert lay.n_partitions <= k


def test_subsampled_window_and_short_window(frames, workloads):
    pdf, sample = frames["tpch_lite"]
    queries = workloads["tpch_lite"].queries
    cats = ds.TPCH_LITE.categorical_cols
    _assert_same_tree(pdf, sample, queries[:500], 16, categorical_cols=cats, max_queries=24)
    _assert_same_tree(pdf, sample, queries[100:140], 16, categorical_cols=cats)


@pytest.mark.parametrize("name", list(ds.SPECS))
def test_cut_subsampling(frames, workloads, name):
    pdf, sample = frames[name]
    queries = workloads[name].queries[:200]
    assert len(harvest_cuts(queries[::3], max_cuts=10_000)) > 12
    _assert_same_tree(pdf, sample, queries, 16, categorical_cols=ds.SPECS[name].categorical_cols, max_cuts=12, seed=3)


def test_in_predicates_only(frames):
    pdf, sample = frames["tpch_lite"]
    g = np.random.default_rng(5)
    cats = ds.TPCH_LITE.categorical_cols
    domains = {c: sorted(pdf[c].unique()) for c in cats}
    queries = []
    for _ in range(60):
        preds = []
        for c in g.choice(cats, size=2, replace=False):
            dom = domains[str(c)]
            vals = g.choice(dom, size=int(g.integers(1, max(2, len(dom) // 2))), replace=False)
            preds.append(InPredicate(str(c), frozenset(str(x) for x in vals)))
        queries.append(Query(tuple(preds)))
    # Some IN-lists name values the sample never holds.
    queries.append(Query((InPredicate("l_shipmode", frozenset({"AIR", "NOPE"})),)))
    lay = _assert_same_tree(pdf, sample, queries, 24, categorical_cols=cats)
    assert lay.n_partitions > 1


def test_no_split_allowed(frames, workloads):
    pdf, sample = frames["tpcds_lite"]
    lay = _assert_same_tree(
        pdf, sample, workloads["tpcds_lite"].queries[:200], 8,
        categorical_cols=ds.TPCDS_LITE.categorical_cols, min_leaf_frac=8.0,
    )
    assert lay.n_partitions == 1


def test_nan_in_numeric_column(frames, workloads):
    pdf, sample = frames["tpch_lite"]
    sample = sample.copy()
    sample.loc[[3, 700], "l_shipdate"] = np.nan
    sample.loc[11, "l_quantity"] = np.nan
    queries = workloads["tpch_lite"].queries[:200]
    _assert_same_tree(pdf, sample, queries, 24, categorical_cols=ds.TPCH_LITE.categorical_cols)


def test_range_only_frame_without_categoricals():
    g = np.random.default_rng(0)
    pdf = pd.DataFrame({"x": g.integers(0, 1_000, 3_000), "y": g.random(3_000)})
    queries = []
    for _ in range(80):
        lo = int(g.integers(0, 900))
        queries.append(Query((RangePredicate("x", lo, lo + int(g.integers(1, 200))),
                              RangePredicate("y", None, float(g.random())))))
    _assert_same_tree(pdf, pdf, queries, 12)
