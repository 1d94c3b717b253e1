"""Run one paper exhibit: ``python -m repro.experiments <exhibit>``.

The harness prints the paper's reference rows next to the measured ones;
see EXPERIMENTS.md for the recorded comparison. Under spark-submit, pass this
file: ``spark-submit src/repro/experiments/__main__.py <exhibit>``.
"""
from __future__ import annotations

import argparse
from importlib import import_module

from pyspark.sql import SparkSession

# Exhibit name (also the Spark app name) -> harness module in this package.
EXHIBITS = {
    "table1_pagerank_policies": "table1",
    "fig4_imbalance": "fig4_balance",
    "fig5_locality": "fig5_locality",
    "fig6_locality_fb": "fig6_locality_fb",
    "fig7_speedups": "fig7_speedup",
    "fig8_step_size": "fig8_step",
    "fig9_adaptive": "fig9_adaptive",
    "fig10_projections": "fig10_projection",
    "fig11_scalability": "fig11_scaling",
}


def run(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(prog="python -m repro.experiments")
    ap.add_argument("exhibit", choices=list(EXHIBITS))
    exhibit = ap.parse_args(argv).exhibit
    harness = import_module(f"repro.experiments.{EXHIBITS[exhibit]}")
    spark = (
        SparkSession.builder.appName(exhibit)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("WARN")
    harness.main(spark)
    spark.stop()


if __name__ == "__main__":
    run()
