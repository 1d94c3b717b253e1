"""Distributed GD (Algorithm 1) on Spark DataFrames.

The iterate ``x`` lives as a DataFrame ``[id, w_0.., x, x_prev, fixed]``,
hash-partitioned by ``id`` into ``P`` partitions, ``P`` being the session's
default parallelism. The symmetrized edge list is cached once, hash-
partitioned by ``src`` into the same ``P``, so the gradient join never moves
an edge: GraphX's co-partitioned edge and vertex tables (Gonzalez et al.,
OSDI'14). One GD iteration costs:

1. one pass that computes the gradient ``(Az)_i = Σ_{j∈N(i)} z_j`` with a
   partition-local join of edges and iterate plus map-side partial sums,
   shuffles only those partial sums by destination into the same ``P``
   partitions, joins the gradient to the iterate without another exchange
   and materializes ``[state, grad]`` with ``localCheckpoint(eager=True)``;
2. one multi-scalar aggregation over that checkpoint producing every quantity
   the driver needs (``⟨w_j, x⟩``, ``⟨w_j, grad⟩_free``, the free Gram matrix
   ``D``, ``‖grad‖²_free`` and the previous step length); and
3. the driver-side λ solve, after which the gradient step, the sequential
   balance projection ``x ← [x + γ·grad − Σ_j λ_j w_j]`` and vertex fixing
   form one lazy ``select`` that runs inside the next iteration's pass 1.

That is two Spark jobs (``3P + 1`` tasks) per iteration, and one table
written. The checkpoint truncates lineage (the idiomatic Spark pattern for
iterative algorithms — without it the plan grows exponentially). Only O(d²)
scalars ever reach the driver per iteration, matching the paper's
distributed model (Theorem 1.1); the final rounding collects the fractional
vector, which is the same O(n) driver pass the paper performs centrally for
the projection's λ-search.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.params import FINAL_PROJECT_ITERS, FIX_THRESHOLD, NOISE_SIGMA_MULT, GDParams
from repro.core.projection_spark import sequential_lambdas
from repro.core.rounding import round_to_parts
from repro.graphs.ops import symmetrize


def _weight_cols(vertices: DataFrame) -> list[str]:
    cols = sorted(c for c in vertices.columns if c.startswith("w_"))
    if not cols:
        raise ValueError("vertex table has no weight columns w_0..w_{d-1}")
    return cols


def _balance_aggs(wcols: list[str]) -> list:
    """Aggregates ``a_j = ⟨w_j, x⟩`` (all coordinates) and the free Gram
    matrix ``D_jl = Σ_free w_j w_l`` (upper triangle) of the balance projection."""
    free = ~F.col("fixed")
    aggs = []
    for j, cj in enumerate(wcols):
        aggs.append(F.sum(F.col(cj) * F.col("x")).alias(f"a_{j}"))
        for l in range(j, len(wcols)):
            aggs.append(
                F.sum(F.when(free, F.col(cj) * F.col(wcols[l])).otherwise(0.0)).alias(
                    f"D_{j}_{l}"
                )
            )
    return aggs


def _balance_scalars(row, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a, D)`` from a row of ``_balance_aggs``, ``D`` filled symmetrically."""
    a = np.array([float(row[f"a_{j}"]) for j in range(d)])
    D = np.zeros((d, d))
    for j in range(d):
        for l in range(j, d):
            D[j, l] = D[l, j] = float(row[f"D_{j}_{l}"])
    return a, D


def _projected_x(shift, lam: np.ndarray, wcols: list[str]):
    """Next ``x``: free coordinates move to ``[x + shift − Σ_j λ_j w_j]``
    (clipped to [-1, 1]), fixed ones stay."""
    for j, cj in enumerate(wcols):
        shift = shift - F.lit(float(lam[j])) * F.col(cj)
    return F.when(
        ~F.col("fixed"), F.greatest(F.lit(-1.0), F.least(F.lit(1.0), F.col("x") + shift))
    ).otherwise(F.col("x"))


@contextmanager
def _co_partitioned(spark: SparkSession, parts: int):
    """Run the loop's queries with adaptive execution off and ``parts``
    shuffle partitions, restoring the session's values on exit.

    A checkpoint of an adaptive plan does not keep its output partitioning,
    so with AQE on every join would re-shuffle the iterate; and the gradient
    groupBy must shuffle into the iterate's ``parts`` partitions for the
    ``state ⋈ grad`` join to need no exchange. Other queries run on the same
    session while the loop runs see these values too.
    """
    conf = {"spark.sql.adaptive.enabled": "false", "spark.sql.shuffle.partitions": str(parts)}
    saved = {key: spark.conf.get(key) for key in conf}
    for key, value in conf.items():
        spark.conf.set(key, value)
    try:
        yield
    finally:
        for key, value in saved.items():
            spark.conf.set(key, value)


def gd_relax_spark(
    edges: DataFrame,
    vertices: DataFrame,
    params: GDParams,
    x0: pd.DataFrame | None = None,
) -> DataFrame:
    """Run the GD relaxation; returns ``[id, w_*, x, fixed]`` (fractional).

    ``x0`` (pandas ``[id, x]``) overrides the zero start — used by tests to
    cross-check against the numpy reference without sampling noise twice.
    Only the one-shot projection is distributed and no history is recorded;
    other settings raise ``ValueError`` (``gd_relax_local`` runs them).
    """
    if params.projection != "one_shot":
        raise ValueError(
            f"the Spark engine runs only the one_shot projection, not {params.projection!r}"
        )
    if params.record_history:
        raise ValueError("the Spark engine does not record history")
    spark = edges.sparkSession
    wcols = _weight_cols(vertices)
    d = len(wcols)
    parts = spark.sparkContext.defaultParallelism

    totals = vertices.agg(*[F.sum(c).alias(c) for c in wcols]).collect()[0]
    b = params.eps * np.array([float(totals[c]) for c in wcols])
    n = vertices.count()
    target_len = params.step_mult * np.sqrt(n) / params.n_iter

    # The start state (its noise in particular) is drawn on the vertex
    # table's own layout, under the caller's session settings.
    state = vertices.select("id", *wcols)
    if x0 is not None:
        state = state.join(
            spark.createDataFrame(x0[["id", "x"]]), "id", "left"
        ).withColumn("x", F.coalesce(F.col("x"), F.lit(0.0)))
    else:
        # Noise at t=0 only (§3.2): x^(0)=0 plus Gaussian noise.
        sigma = NOISE_SIGMA_MULT / params.n_iter
        state = state.withColumn("x", F.randn(params.seed) * F.lit(sigma))
    state = (
        state.withColumn("x_prev", F.col("x"))
        .withColumn("fixed", F.lit(False))
        .localCheckpoint(eager=True)
    )

    free = ~F.col("fixed")
    aggs = _balance_aggs(wcols) + [
        F.sum(F.when(free, F.col(cj) * F.col("grad")).otherwise(0.0)).alias(f"g_{j}")
        for j, cj in enumerate(wcols)
    ]
    aggs.append(F.sum(F.when(free, F.col("grad") ** 2).otherwise(0.0)).alias("gn2"))
    aggs.append(F.sum((F.col("x") - F.col("x_prev")) ** 2).alias("prog2"))

    gamma: float | None = None
    with _co_partitioned(spark, parts):
        state = state.repartition(parts, "id")
        sym = symmetrize(edges).repartition(parts, "src").cache()
        for t in range(params.n_iter):
            grad = (
                sym.join(state.select(F.col("id").alias("src"), "x"), "src")
                .groupBy(F.col("dst").alias("id"))
                .agg(F.sum("x").alias("grad"))
            )
            cur = (
                state.join(grad, "id", "left")
                .withColumn("grad", F.coalesce(F.col("grad"), F.lit(0.0)))
                .localCheckpoint(eager=True)
            )
            row = cur.agg(*aggs).collect()[0]

            gamma = params.next_gamma(
                gamma,
                float(np.sqrt(max(row["gn2"], 0.0))),
                float(np.sqrt(max(row["prog2"], 0.0))),
                target_len,
            )
            a, D = _balance_scalars(row, d)
            g = np.array([float(row[f"g_{j}"]) for j in range(d)])
            lam = sequential_lambdas(a + gamma * g, D, b)

            x_next = _projected_x(F.lit(gamma) * F.col("grad"), lam, wcols)
            fixed = F.col("fixed")
            if params.fixing and t >= params.fix_start:
                newly = free & (F.abs(x_next) >= FIX_THRESHOLD)
                x_next = F.when(newly, F.signum(x_next)).otherwise(x_next)
                fixed = fixed | newly
            state = cur.select(
                "id", *wcols, x_next.alias("x"), F.col("x").alias("x_prev"), fixed.alias("fixed")
            )

        state = state.localCheckpoint(eager=True)
        if params.final_project:
            state = _final_alternating(state, wcols, b)
        sym.unpersist()
    return state.select("id", *wcols, "x", "fixed")


def _final_alternating(state: DataFrame, wcols: list[str], b: np.ndarray) -> DataFrame:
    """Alternating projections (slab target) to convergence before rounding —
    repairs the imbalance accumulated by one-shot projections (§3.1, Fig 9)."""
    aggs = _balance_aggs(wcols)
    for _ in range(FINAL_PROJECT_ITERS):
        s, D = _balance_scalars(state.agg(*aggs).collect()[0], len(wcols))
        if (np.abs(s) <= b + 1e-9 * (1 + np.abs(b))).all():
            break
        lam = sequential_lambdas(s, D, b, "slab")
        if float(np.abs(lam).max(initial=0.0)) < 1e-7:
            break
        x_new = _projected_x(F.lit(0.0), lam, wcols)
        state = state.withColumn("x", x_new).localCheckpoint(eager=True)
    return state


def gd_bipartition_spark(
    edges: DataFrame,
    vertices: DataFrame,
    params: GDParams,
    x0: pd.DataFrame | None = None,
) -> DataFrame:
    """Full distributed GD 2-partitioner; returns assignment ``[id, part]``.

    Rounding + repair run on the driver over the collected fractional vector
    (an O(n log n) pass, same as the paper's centralized λ-search; see
    DESIGN.md §3).
    """
    wcols = _weight_cols(vertices)
    frac = gd_relax_spark(edges, vertices, params, x0)
    pdf = frac.select("id", *wcols, "x").toPandas().sort_values("id")
    W = pdf[wcols].to_numpy(dtype=float)
    parts = round_to_parts(pdf["x"].to_numpy(), W, params.eps, params.seed)
    return edges.sparkSession.createDataFrame(pd.DataFrame({"id": pdf["id"].to_numpy(), "part": parts}))
