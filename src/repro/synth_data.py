"""Spark DataFrames of the synthetic "lite" tables.

Thin wrappers over the pandas builders in :mod:`repro.workload.datasets`
(see there for the schemas and scale factors). Deterministic in ``seed``, so
the DuckDB oracle sees identical input.
"""
from pyspark.sql import DataFrame, SparkSession

from repro.workload.datasets import telemetry_pdf, tpcds_lite_pdf, tpch_lite_pdf


def tpch_lite(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """Denormalized TPC-H-lite fact table (lineitem ⋈ orders ⋈ customer ⋈ part)."""
    return spark.createDataFrame(tpch_lite_pdf(sf=sf, seed=seed))


def tpcds_lite(spark: SparkSession, *, sf: float = 0.01, seed: int = 10) -> DataFrame:
    """Denormalized TPC-DS-lite store_sales fact table."""
    return spark.createDataFrame(tpcds_lite_pdf(sf=sf, seed=seed))


def telemetry(spark: SparkSession, *, sf: float = 0.01, seed: int = 20) -> DataFrame:
    """Synthetic ingestion-telemetry table (SuperCollider stand-in)."""
    return spark.createDataFrame(telemetry_pdf(sf=sf, seed=seed))
