"""Tests for the distributed (Spark DataFrame) GD — cross-checked against the
numpy reference on identical inputs."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import metrics
from repro.core.gd import gd_bipartition_spark, gd_relax_spark
from repro.core.local_gd import gd_relax_local
from repro.core.params import GDParams
from repro.graphs import generators as gen
from repro.graphs.ops import vertex_table


@pytest.fixture(scope="module")
def graph(spark):
    spec = gen.GraphSpec(n=250, avg_degree=10, levels=1, mu_cross=0.1, seed=50)
    pdf = gen.generate_edges(spec)
    sdf = gen.to_spark(spark, pdf).cache()
    vt = vertex_table(sdf).cache()
    vt.count()
    return spec, pdf, sdf, vt


def _W_from_vt(vt):
    p = vt.select("id", "w_0", "w_1").toPandas().sort_values("id")
    return p[["w_0", "w_1"]].to_numpy(dtype=float)


def test_spark_matches_local_trajectory(graph):
    """Same x0, no noise: Spark and numpy implementations must coincide."""
    spec, pdf, sdf, vt = graph
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-0.02, 0.02, spec.n)
    params = GDParams(n_iter=5, final_project=False, fixing=False, seed=0)

    W = _W_from_vt(vt)
    x_local, _ = gd_relax_local(pdf, W, params, x0=x0)

    x0_df = pd.DataFrame({"id": np.arange(spec.n), "x": x0})
    frac = gd_relax_spark(sdf, vt, params, x0=x0_df)
    x_spark = frac.select("id", "x").toPandas().sort_values("id")["x"].to_numpy()
    assert np.allclose(x_spark, x_local, atol=1e-6)


def test_spark_matches_local_with_fixing_and_final(graph):
    spec, pdf, sdf, vt = graph
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-0.05, 0.05, spec.n)
    params = GDParams(n_iter=8, final_project=True, fixing=True, seed=0)
    W = _W_from_vt(vt)
    x_local, _ = gd_relax_local(pdf, W, params, x0=x0)
    x0_df = pd.DataFrame({"id": np.arange(spec.n), "x": x0})
    frac = gd_relax_spark(sdf, vt, params, x0=x0_df)
    x_spark = frac.select("id", "x").toPandas().sort_values("id")["x"].to_numpy()
    assert np.allclose(x_spark, x_local, atol=1e-5)


def test_spark_gd_stays_in_box(graph):
    _, _, sdf, vt = graph
    frac = gd_relax_spark(sdf, vt, GDParams(n_iter=6, seed=1))
    mx = frac.agg(F.max(F.abs(F.col("x")))).collect()[0][0]
    assert mx <= 1 + 1e-9


def test_spark_bipartition_end_to_end(graph):
    spec, _, sdf, vt = graph
    params = GDParams(n_iter=12, eps=0.05, seed=2)
    assign = gd_bipartition_spark(sdf, vt, params)
    assert assign.count() == spec.n
    assert set(r["part"] for r in assign.select("part").distinct().collect()) == {0, 1}
    # ε-balance on both dimensions (Definition 2.1).
    eps = metrics.epsilon_balance(vt, assign, dims=2, k=2)
    assert eps <= 0.05 + 1e-6
    # Better than a random split.
    loc = metrics.edge_locality(sdf, assign)
    assert loc > 0.55


def test_spark_gd_noise_seed_deterministic(graph):
    _, _, sdf, vt = graph
    p = GDParams(n_iter=3, seed=9, final_project=False)
    a = gd_relax_spark(sdf, vt, p).select("id", "x").toPandas().sort_values("id")
    b = gd_relax_spark(sdf, vt, p).select("id", "x").toPandas().sort_values("id")
    assert np.array_equal(a["x"].to_numpy(), b["x"].to_numpy())


def _tasks_and_x(spark, sdf, vt, params, x0_df, group):
    """Tasks run by one relaxation (each stage counted once) and its ``x``.

    A stage the tracker no longer holds ran no tasks: once the retention
    limit is reached, skipped stages, which never complete, go first."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        x = gd_relax_spark(sdf, vt, params, x0=x0_df).select("id", "x").toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    st = sc.statusTracker()
    stages = {s for j in st.getJobIdsForGroup(group) for s in st.getJobInfo(j).stageIds}
    tasks = sum(info.numCompletedTasks for info in map(st.getStageInfo, stages) if info)
    return tasks, x.sort_values("id")["x"].to_numpy()


def test_spark_gd_iteration_independent_of_shuffle_partitions(graph, spark):
    """An iteration's plan is fixed by the co-partitioned tables, not by
    ``spark.sql.shuffle.partitions``: the same tasks per iteration (I=6 run
    minus I=2 run) and the same ``x`` bit for bit under 64 and 8."""
    spec, _, sdf, vt = graph
    x0 = np.random.default_rng(5).uniform(-0.05, 0.05, spec.n)
    x0_df = pd.DataFrame({"id": np.arange(spec.n), "x": x0})
    saved = spark.conf.get("spark.sql.shuffle.partitions")
    aqe = spark.conf.get("spark.sql.adaptive.enabled")
    per_iter, xs = {}, {}
    try:
        for shuffle in (64, 8):
            spark.conf.set("spark.sql.shuffle.partitions", str(shuffle))
            runs = {}
            for n_iter in (6, 2):
                p = GDParams(n_iter=n_iter, final_project=False, fixing=False, seed=0)
                runs[n_iter] = _tasks_and_x(spark, sdf, vt, p, x0_df, f"gd-{shuffle}-{n_iter}")
            per_iter[shuffle] = (runs[6][0] - runs[2][0]) / 4
            xs[shuffle] = runs[6][1]
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", saved)
    assert spark.conf.get("spark.sql.adaptive.enabled") == aqe
    parts = spark.sparkContext.defaultParallelism
    assert per_iter[64] == per_iter[8] <= 3 * parts + 1
    assert np.array_equal(xs[64], xs[8])


@pytest.mark.parametrize("method", ["alternating", "dykstra", "exact"])
def test_spark_gd_rejects_other_projections(graph, method):
    _, _, sdf, vt = graph
    with pytest.raises(ValueError, match="one_shot"):
        gd_relax_spark(sdf, vt, GDParams(n_iter=1, projection=method))


def test_spark_gd_rejects_record_history(graph):
    _, _, sdf, vt = graph
    with pytest.raises(ValueError, match="history"):
        gd_relax_spark(sdf, vt, GDParams(n_iter=1, record_history=True))


def test_spark_gd_requires_weight_columns(graph, spark):
    _, _, sdf, _ = graph
    bad_vt = spark.createDataFrame(pd.DataFrame({"id": range(250)}))
    with pytest.raises(ValueError, match="weight columns"):
        gd_relax_spark(sdf, bad_vt, GDParams(n_iter=1))
