"""Greedy Qd-tree layout construction (Yang et al., SIGMOD'20; paper ref [7]).

A Qd-tree is a binary decision tree whose inner nodes hold predicates drawn
from the query workload; routing a record down the tree to a leaf yields its
partition id. The paper builds Qd-trees with "the greedy construction
algorithm ... based on a 0.1% to 1% sample of the dataset" (§VI-A1); we do
the same:

- candidate cuts are harvested from workload predicates (range bounds
  become numeric threshold cuts ``col < v``; IN-predicates become set-
  membership cuts),
- starting from a single root, repeatedly split the (leaf, cut) pair with
  the largest *skipping benefit* — the expected number of sampled rows that
  become skippable for the sampled workload — until the target partition
  count ``k`` is reached or no split helps,
- benefit uses node-level metadata refined only on the cut column, the
  standard approximation that keeps construction metadata-only.

Every cut of a leaf is scored at once from tables computed once per build:

- ``M`` (cuts × sample rows): the rows each cut sends left;
- ``H`` (queries × cuts): whether a query filters the cut's column;
- ``A1``/``A2`` (queries × numeric cuts): whether a query can still touch
  the left child ``(lo, nextafter(v, -inf))`` or the right child
  ``(v, hi)``. They do not depend on the leaf: a query the leaf cannot skip
  already overlaps the leaf's ``(lo, hi)`` on every range column, so only
  the cut value ``v`` decides which side it skips.

Categorical columns are dictionary-encoded once into one code space, so leaf
distinct sets, cut value sets and IN-lists are boolean vectors over codes and
a leaf's categorical ``a1``/``a2`` come from matrix products. A leaf's score
is then ``cnt·n − n1·s1 − (n − n1)·s2`` per cut; the first maximum wins, as a
strict ``>`` scan in cut order would pick.

The returned :class:`QdTreeLayout` assigns BIDs to any dataframe by vectorized
tree routing, so the same object drives both the simulator (metadata from the
full frame) and the Spark reorganization job (mapInPandas).
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.workload.queries import InPredicate, Query, RangePredicate


@dataclass(frozen=True)
class NumCut:
    """Numeric threshold cut: left subtree holds rows with ``col < v``."""

    col: str
    v: float


@dataclass(frozen=True)
class CatCut:
    """Categorical membership cut: left subtree holds rows with ``col ∈ values``."""

    col: str
    values: frozenset[str]


Cut = NumCut | CatCut


@dataclass
class _Node:
    """Tree node; leaves carry ``bid``, inner nodes carry ``cut`` + children."""

    cut: Cut | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    bid: int = -1


@dataclass(frozen=True)
class QdTreeLayout:
    """An immutable, routable Qd-tree with ``n_partitions`` leaves."""

    root: _Node = field(compare=False)
    n_partitions: int
    name: str = "qdtree"

    def assign(self, pdf: pd.DataFrame) -> np.ndarray:
        """BID per row of ``pdf`` by vectorized routing through the tree."""
        bids = np.empty(len(pdf), dtype=np.int64)
        idx = np.arange(len(pdf))
        stack = [(self.root, idx)]
        while stack:
            node, rows = stack.pop()
            if node.cut is None:
                bids[rows] = node.bid
                continue
            if isinstance(node.cut, NumCut):
                m = pdf[node.cut.col].to_numpy()[rows] < node.cut.v
            else:
                m = pdf[node.cut.col].iloc[rows].isin(node.cut.values).to_numpy()
            stack.append((node.left, rows[m]))
            stack.append((node.right, rows[~m]))
        return bids


def harvest_cuts(queries: list[Query] | tuple[Query, ...], max_cuts: int = 128, seed: int = 0) -> list[Cut]:
    """Extract deduplicated candidate cuts from workload predicates.

    Range bound ``lo`` becomes ``col < lo`` (rows below can be skipped for
    the query); bound ``hi`` becomes ``col < nextafter(hi)`` so rows at or
    below ``hi`` land left. If more than ``max_cuts`` distinct cuts exist,
    a uniform subsample is kept (deterministic in ``seed``).
    """
    cuts: dict[Cut, None] = {}
    for q in queries:
        for p in q.predicates:
            if isinstance(p, RangePredicate):
                if p.lo is not None:
                    cuts.setdefault(NumCut(p.col, float(p.lo)), None)
                if p.hi is not None:
                    cuts.setdefault(NumCut(p.col, float(np.nextafter(p.hi, np.inf))), None)
            elif isinstance(p, InPredicate):
                cuts.setdefault(CatCut(p.col, p.values), None)
    out = list(cuts)
    if len(out) > max_cuts:
        g = np.random.default_rng(seed)
        keep = g.choice(len(out), size=max_cuts, replace=False)
        out = [out[i] for i in sorted(keep)]
    return out


class _Leaf:
    """Mutable build-time leaf: sample rows + metadata + accessed queries."""

    __slots__ = ("rows", "lo", "hi", "distinct", "accessed")

    def __init__(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, distinct: np.ndarray, accessed: np.ndarray):
        self.rows = rows  # indices into the sample frame
        self.lo = lo  # per numeric column: min over sample rows
        self.hi = hi  # likewise, max
        self.distinct = distinct  # bool over category codes present in the leaf
        self.accessed = accessed  # bool over queries this leaf cannot skip


def _incidence(owner: np.ndarray, n: int) -> np.ndarray:
    """(n, len(owner)) 0/1 matrix with a 1 where item j belongs to row owner[j]."""
    inc = np.zeros((n, len(owner)))
    inc[owner, np.arange(len(owner))] = 1
    return inc


def build_qdtree(
    sample: pd.DataFrame,
    queries: list[Query] | tuple[Query, ...],
    k: int,
    *,
    categorical_cols: tuple[str, ...] = (),
    max_cuts: int = 128,
    max_queries: int = 64,
    min_leaf_frac: float = 0.25,
    name: str = "qdtree",
    seed: int = 0,
) -> QdTreeLayout:
    """Greedily build a Qd-tree with up to ``k`` leaves from a data sample.

    ``min_leaf_frac`` bounds leaf size at ``min_leaf_frac * len(sample)/k``
    so partitions stay near the target size (the paper sizes partitions at
    1–2M rows). Deterministic in ``seed``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = list(queries)
    if len(queries) > max_queries:
        step = len(queries) / max_queries
        queries = [queries[int(i * step)] for i in range(max_queries)]
    cuts = harvest_cuts(queries, max_cuts=max_cuts, seed=seed)
    n_q, n_cuts, n_rows = len(queries), len(cuts), len(sample)

    cols = [c for c in sample.columns if c != "BID"]
    colarr = {c: sample[c].to_numpy() for c in cols}
    num_idx = {c: i for i, c in enumerate(c for c in cols if c not in categorical_cols)}

    # Dictionary-encode the categorical columns some IN-list reads into one
    # code space; column c owns codes [start, start + its distinct count).
    in_cols = {p.col for q in queries for p in q.predicates if isinstance(p, InPredicate)}
    codes: dict[str, np.ndarray] = {}
    code_of: dict[str, dict] = {}
    col_codes: dict[str, slice] = {}
    n_codes = 0
    for c in (c for c in categorical_cols if c in in_cols):
        local, uniq = pd.factorize(colarr[c], use_na_sentinel=False)
        codes[c] = local + n_codes
        code_of[c] = {v: n_codes + i for i, v in enumerate(uniq)}
        col_codes[c] = slice(n_codes, n_codes + len(uniq))
        n_codes += len(uniq)

    def code_vector(col: str, values) -> np.ndarray:
        vec = np.zeros(n_codes, dtype=bool)
        lut = code_of[col]
        vec[[lut[v] for v in values if v in lut]] = True
        return vec

    # Predicates, flattened: range bounds with None as ∓inf, IN-lists as
    # code vectors, each tagged with its query.
    col_id: dict[str, int] = {}
    r_q, r_col, r_lo, r_hi, r_cid = [], [], [], [], []
    i_q, i_cid, i_vec = [], [], []
    q_col_pairs = []
    for qi, q in enumerate(queries):
        for p in q.predicates:
            cid = col_id.setdefault(p.col, len(col_id))
            q_col_pairs.append((qi, cid))
            if isinstance(p, RangePredicate):
                r_q.append(qi)
                r_col.append(num_idx[p.col])
                r_lo.append(-np.inf if p.lo is None else p.lo)
                r_hi.append(np.inf if p.hi is None else p.hi)
                r_cid.append(cid)
            else:
                i_q.append(qi)
                i_cid.append(cid)
                i_vec.append(code_vector(p.col, p.values))
    # Query-side products run in BLAS on 0/1 float64 values, which hold every
    # count exactly.
    r_q, r_col, r_cid = (np.asarray(a, dtype=np.int64) for a in (r_q, r_col, r_cid))
    i_q, i_cid = np.asarray(i_q, dtype=np.int64), np.asarray(i_cid, dtype=np.int64)
    r_lo = np.asarray(r_lo, dtype=np.float64)
    r_hi = np.asarray(r_hi, dtype=np.float64)
    i_P = np.asarray(i_vec, dtype=float).reshape(len(i_vec), n_codes)
    r_inc, i_inc = _incidence(r_q, n_q), _incidence(i_q, n_q)
    cut_cid = np.asarray([col_id[c.col] for c in cuts], dtype=np.int64)
    q_cols = np.zeros((n_q, len(col_id)), dtype=bool)
    for qi, cid in q_col_pairs:
        q_cols[qi, cid] = True

    # Per-build tables. H[i, j]: query i filters cut j's column.
    H = q_cols[:, cut_cid].astype(float)
    is_num = np.asarray([isinstance(c, NumCut) for c in cuts], dtype=bool)
    v = np.asarray([c.v if isinstance(c, NumCut) else np.nan for c in cuts], dtype=np.float64)
    cat = np.flatnonzero(~is_num)  # CatCut positions among the cuts
    V = np.zeros((len(cat), n_codes), dtype=bool)  # their value sets
    V_out = np.zeros((len(cat), n_codes), dtype=bool)  # codes of the cut column outside them
    M = np.zeros((n_cuts, n_rows), dtype=bool)
    for j, cut in enumerate(cuts):
        if isinstance(cut, NumCut):
            M[j] = colarr[cut.col] < cut.v
    for r, j in enumerate(cat):
        col = cuts[j].col
        V[r] = code_vector(col, cuts[j].values)
        V_out[r, col_codes[col]] = ~V[r, col_codes[col]]
        M[j] = V[r][codes[col]]
    Vf, Vf_out = V.T.astype(float), V_out.T.astype(float)

    # A1/A2 for numeric cuts, fixed for the whole build. Every query in a
    # leaf's accessed set overlaps the leaf's (lo, hi) on each of its range
    # columns (that is how the set is filtered), so a range predicate rules
    # out the left child (lo, v⁻) only when v⁻ < p.lo and the right child
    # (v, hi) only when v > p.hi — neither test involves the leaf. Stored
    # times H, so they count only queries that filter the cut's column.
    same_col = (r_cid[:, None] == cut_cid[None, :]) & is_num[None, :]
    fail1 = same_col & ~(np.nextafter(v, -np.inf)[None, :] >= r_lo[:, None])
    fail2 = same_col & ~(v[None, :] <= r_hi[:, None])
    HA1 = H * (r_inc @ fail1.astype(float) == 0)
    HA2 = H * (r_inc @ fail2.astype(float) == 0)
    # IN-predicate × CatCut pairs on the same column.
    i_same = i_cid[:, None] == cut_cid[None, cat]
    H_cat = H[:, cat]

    def leaf_accessed(lo: np.ndarray, hi: np.ndarray, distinct: np.ndarray, cand: np.ndarray) -> np.ndarray:
        bad = np.zeros(n_q, dtype=bool)
        bad[r_q[(hi[r_col] < r_lo) | (lo[r_col] > r_hi)]] = True
        bad[i_q[i_P @ distinct.astype(float) == 0]] = True
        return cand & ~bad

    lo0 = np.zeros(len(num_idx))
    hi0 = np.zeros(len(num_idx))
    for c, i in num_idx.items():
        if n_rows:
            lo0[i], hi0[i] = float(colarr[c].min()), float(colarr[c].max())
    d0 = np.ones(n_codes, dtype=bool)
    root_leaf = _Leaf(np.arange(n_rows), lo0, hi0, d0, leaf_accessed(lo0, hi0, d0, np.ones(n_q, dtype=bool)))

    min_rows = max(1, int(min_leaf_frac * n_rows / k))
    # A leaf's rows lie inside its recorded range and distinct set, so a cut
    # that misses ``lo < v <= hi`` or does not properly split the distinct
    # set sends every row to one side and fails ``min_rows``. The exception
    # is a column with a NaN: its range is NaN, no NumCut on it is valid.
    splittable = np.asarray(
        [isinstance(c, CatCut) or not np.isnan(lo0[num_idx[c.col]]) for c in cuts], dtype=bool
    )

    def best_split(leaf: _Leaf):
        """Return (benefit, cut index, left_mask) of the best cut, or None."""
        if not n_cuts:
            return None
        n_leaf = len(leaf.rows)
        acc = leaf.accessed.astype(float)
        n1 = M[:, leaf.rows].sum(1)
        cnt, s1, s2 = acc @ H, acc @ HA1, acc @ HA2
        if len(cat):
            # A query touches a side of a CatCut unless one of its IN-lists
            # on the cut column misses every code of that side in the leaf.
            PD = i_P * leaf.distinct.astype(float)
            miss1 = i_inc @ (i_same & (PD @ Vf == 0)).astype(float)
            miss2 = i_inc @ (i_same & (PD @ Vf_out == 0)).astype(float)
            s1[cat] = acc @ (H_cat * (miss1 == 0))
            s2[cat] = acc @ (H_cat * (miss2 == 0))
        n1, cnt, s1, s2 = (x.astype(np.int64) for x in (n1, cnt, s1, s2))
        ben = cnt * n_leaf - n1 * s1 - (n_leaf - n1) * s2
        ok = splittable & (cnt > 0) & (n1 >= min_rows) & (n_leaf - n1 >= min_rows)
        ben = np.where(ok, ben, 0)
        j = int(np.argmax(ben))
        if ben[j] <= 0:
            return None
        return float(ben[j]), j, M[j, leaf.rows]

    def split_leaf(leaf: _Leaf, j: int, lm: np.ndarray) -> tuple[_Leaf, _Leaf]:
        children = []
        col = cuts[j].col
        for rows in (leaf.rows[lm], leaf.rows[~lm]):
            lo, hi, distinct = leaf.lo, leaf.hi, leaf.distinct
            if is_num[j]:
                vals = colarr[col][rows]
                lo, hi = lo.copy(), hi.copy()
                lo[num_idx[col]], hi[num_idx[col]] = float(vals.min()), float(vals.max())
            else:
                distinct = distinct.copy()
                distinct[col_codes[col]] = False
                distinct[codes[col][rows]] = True
            children.append(_Leaf(rows, lo, hi, distinct, leaf_accessed(lo, hi, distinct, leaf.accessed)))
        return children[0], children[1]

    # Greedy loop with a lazy max-heap of candidate splits.
    counter = itertools.count()
    root_node = _Node()
    heap: list = []
    leaf_info: dict[int, tuple[_Leaf, _Node]] = {}

    def push(leaf: _Leaf, node: _Node) -> None:
        hid = next(counter)
        leaf_info[hid] = (leaf, node)
        best = best_split(leaf)
        if best is not None:
            ben, j, lm = best
            heapq.heappush(heap, (-ben, hid, j, lm))

    push(root_leaf, root_node)
    n_leaves = 1
    while n_leaves < k and heap:
        negben, hid, j, lm = heapq.heappop(heap)
        if hid not in leaf_info:
            continue
        leaf, node = leaf_info.pop(hid)
        lleaf, rleaf = split_leaf(leaf, j, lm)
        node.cut = cuts[j]
        node.left, node.right = _Node(), _Node()
        push(lleaf, node.left)
        push(rleaf, node.right)
        n_leaves += 1

    # Number leaves in deterministic (DFS) order.
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
