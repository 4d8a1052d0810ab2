"""Partition-level metadata and metadata-only query costing.

OREO "keeps track of different data layouts via partition-level metadata.
With information such as row count, range of values (or distinct values for
categorical columns) for each column in the partition, OREO is able to
estimate query costs incurred by different layouts without accessing the
underlying dataset" (§VI-A1). This module is that machinery:

- :class:`MaterializedLayout` — per-partition row counts, per-column
  min/max arrays (numeric) and value -> partition bitsets (categorical),
  with ``cost(query)`` = fraction of rows in partitions that the metadata
  cannot prove irrelevant. This is the service cost ``c(s, q)`` of the
  D-UMTS formulation and the basis of ``eval_skipped``.
- :func:`build_materialized` — compute that metadata from a pandas frame
  plus a BID assignment, the same stats a Parquet writer would put in
  file footers.

Pruning here is *sound by construction*: a partition is skipped only when
its min/max (or value set) is disjoint from a predicate, so skipping can
never change query results — tests assert this against row-level ground
truth, and the Spark integration asserts it against the DuckDB oracle.

Every pruning decision is made on Python-int bitsets over partitions (bit b
= partition b). Each numeric column keeps its partition maxima sorted with
suffix bitsets and its minima sorted with prefix bitsets, so one bound is a
``bisect`` plus a lookup; an IN-list ORs the bitsets of its values. A query
ANDs its predicates' bitsets, and its cost sums the kept rows exactly through
per-byte lookup tables (DESIGN.md "Metadata costing").
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.workload.queries import InPredicate, Query, RangePredicate


def _cumulative_bits(parts: np.ndarray) -> list[int]:
    """``out[i]`` = bitset of ``parts[:i]``, for i in 0..len(parts)."""
    out = [0]
    for b in parts.tolist():
        out.append(out[-1] | (1 << b))
    return out


def _byte_row_tables(rows: list[int]) -> list[list[int]]:
    """Per byte j of a partition bitset: byte value -> rows of its 8 partitions."""
    tables = []
    for j in range(0, len(rows), 8):
        table = [0]
        for r in rows[j : j + 8]:
            table += [t + r for t in table]
        tables.append(table)
    return tables


@dataclass
class MaterializedLayout:
    """Metadata for one realized layout: stats for each of ``n_partitions``."""

    name: str
    n_partitions: int
    n_rows: int
    rows: np.ndarray  # (n_partitions,) row count per partition
    mins: dict[str, np.ndarray]  # numeric col -> (n_partitions,) min
    maxs: dict[str, np.ndarray]  # numeric col -> (n_partitions,) max
    # Categorical col -> value -> bitset of the partitions holding it.
    value_bits: dict[str, dict[object, int]]
    # The generator object that produced this layout (has .assign), if any.
    layout: object | None = field(default=None, repr=False, compare=False)
    # Pruning index compiled from ``rows``/``mins``/``maxs`` at construction.
    _ranges: dict = field(init=False, repr=False, compare=False)
    _row_tables: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Numeric col -> (maxima ascending, suffix bitsets, minima ascending,
        # prefix bitsets). The stats are float64 without NaN, so Python float
        # comparison in ``bisect`` orders them exactly as numpy does.
        self._ranges = {}
        for c, hi in self.maxs.items():
            lo = self.mins[c]
            by_max, by_min = np.argsort(hi), np.argsort(lo)
            suffix = _cumulative_bits(by_max[::-1])[::-1]
            self._ranges[c] = (hi[by_max].tolist(), suffix, lo[by_min].tolist(), _cumulative_bits(by_min))
        self._row_tables = _byte_row_tables(self.rows.tolist())

    def _keep_bits(self, query: Query) -> int:
        """Bitset of the partitions that must be read for ``query``."""
        keep = (1 << self.n_partitions) - 1
        for p in query.predicates:
            if isinstance(p, RangePredicate):
                index = self._ranges.get(p.col)
                if index is None:
                    continue  # no stats for this column: cannot prune
                by_max, suffix, by_min, prefix = index
                if p.lo is not None:  # partitions with max >= lo
                    keep &= suffix[bisect_left(by_max, float(p.lo))]
                if p.hi is not None:  # partitions with min <= hi
                    keep &= prefix[bisect_right(by_min, float(p.hi))]
            elif isinstance(p, InPredicate):
                bits = self.value_bits.get(p.col)
                if bits is None:
                    continue
                hit = 0
                for v in p.values:
                    hit |= bits.get(v, 0)
                keep &= hit
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown predicate type {type(p)}")
        return keep

    def relevant_partitions(self, query: Query) -> np.ndarray:
        """Boolean mask over partitions that must be read for ``query``."""
        keep = self._keep_bits(query).to_bytes((self.n_partitions + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(keep, dtype=np.uint8), count=self.n_partitions, bitorder="little")
        return bits.astype(bool)

    def relevant_bids(self, query: Query) -> list[int]:
        """Partition ids that must be read — the ``BID IN (...)`` list."""
        return np.flatnonzero(self.relevant_partitions(query)).tolist()

    def cost(self, query: Query) -> float:
        """Service cost c(s, q): fraction of rows in non-skipped partitions."""
        if self.n_rows == 0:
            return 0.0
        keep = self._keep_bits(query)
        kept_rows = 0
        for table in self._row_tables:
            kept_rows += table[keep & 0xFF]
            keep >>= 8
        return kept_rows / self.n_rows

    def eval_skipped(self, queries: list[Query] | tuple[Query, ...]) -> float:
        """Average fraction of data *skipped* over ``queries`` (paper API)."""
        if not queries:
            return 0.0
        return float(np.mean([1.0 - self.cost(q) for q in queries]))

    def cost_vector(self, queries: list[Query] | tuple[Query, ...]) -> np.ndarray:
        """Per-query cost vector, used by the layout manager's ε-distance."""
        return np.asarray([self.cost(q) for q in queries], dtype=float)


def build_materialized(
    pdf: pd.DataFrame,
    bids: np.ndarray,
    *,
    name: str,
    categorical_cols: tuple[str, ...],
    numeric_cols: tuple[str, ...] | None = None,
    layout: object | None = None,
) -> MaterializedLayout:
    """Compute partition metadata from data + a BID assignment.

    ``bids`` must be dense non-negative ints; empty partitions (ids never
    assigned) get zero rows and never match any predicate. ``numeric_cols``
    defaults to every non-categorical column in ``pdf``.
    """
    bids = np.asarray(bids)
    if len(bids) != len(pdf):
        raise ValueError("bids length must match the frame")
    n_parts = int(bids.max()) + 1 if len(bids) else 0
    if numeric_cols is None:
        numeric_cols = tuple(
            c for c in pdf.columns if c not in categorical_cols and c != "BID"
        )

    rows = np.bincount(bids, minlength=n_parts).astype(np.int64)
    order = np.argsort(bids)
    sorted_bids = bids[order]
    # Partition boundaries in the sorted order: contiguous slices per BID.
    bounds = np.searchsorted(sorted_bids, np.arange(n_parts + 1))
    full = rows > 0
    starts = bounds[:-1][full]

    mins: dict[str, np.ndarray] = {}
    maxs: dict[str, np.ndarray] = {}
    for c in numeric_cols:
        v = pdf[c].to_numpy()[order]
        lo = np.full(n_parts, np.inf)
        hi = np.full(n_parts, -np.inf)
        if len(starts):
            lo[full] = np.fmin.reduceat(v, starts)
            hi[full] = np.maximum.reduceat(v, starts)
        # NaN-sound stats: the min skips NaN (+inf when a partition holds only
        # NaN), and the max is +inf when a partition holds any NaN, because
        # Spark orders NaN above every number. Pruning then stays sound under
        # both pandas and Spark comparison semantics.
        lo[np.isnan(lo)] = np.inf
        hi[np.isnan(hi)] = np.inf
        mins[c], maxs[c] = lo, hi

    value_bits: dict[str, dict[object, int]] = {}
    for c in categorical_cols:
        v = pdf[c].to_numpy()[order]
        bits: dict[object, int] = {}
        for b in np.flatnonzero(full).tolist():
            bit = 1 << b
            for x in set(v[bounds[b] : bounds[b + 1]]):
                bits[x] = bits.get(x, 0) | bit
        value_bits[c] = bits

    return MaterializedLayout(
        name=name,
        n_partitions=n_parts,
        n_rows=len(pdf),
        rows=rows,
        mins=mins,
        maxs=maxs,
        value_bits=value_bits,
        layout=layout,
    )
