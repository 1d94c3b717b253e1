"""Tests for the Giraph BSP simulator — load counting is verified against
DuckDB, label propagation against a union-find ground truth."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.hash_part import hash_partition
from repro.giraph import apps
from repro.giraph.cost_model import CostModel, default_cost_model
from repro.giraph.engine import propagation_loads, static_loads
from repro.graphs import generators as gen
from repro.graphs.ops import vertex_table
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graph(spark):
    spec = gen.GraphSpec(n=200, avg_degree=8, levels=2, mu_cross=0.2, seed=80)
    pdf = gen.generate_edges(spec)
    sdf = gen.to_spark(spark, pdf).cache()
    vt = vertex_table(sdf).cache()
    assignment = hash_partition(vt, 4, seed=1).cache()
    assignment.count()
    return spec, pdf, sdf, vt, assignment


def _assign_pdf(assignment):
    return assignment.toPandas()


# ------------------------------------------------------------- static loads


def test_static_loads_schema(graph):
    _, _, sdf, _, a = graph
    loads = static_loads(sdf, a)
    assert list(loads.columns) == ["part", "n_vertices", "local_units", "remote_units"]
    assert len(loads) == 4


def test_static_loads_total_messages(graph):
    """Every symmetric edge carries exactly one message: total = 2|E|."""
    _, pdf, sdf, _, a = graph
    loads = static_loads(sdf, a)
    assert loads.local_units.sum() + loads.remote_units.sum() == 2 * len(pdf)


def test_static_loads_against_duckdb(graph, spark):
    _, pdf, sdf, _, a = graph
    apdf = _assign_pdf(a)
    got = spark.createDataFrame(static_loads(sdf, a))
    assert_equivalent(
        got,
        """
        WITH sym AS (
          SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
        ), msg AS (
          SELECT pa.part AS p_src, pb.part AS p_dst
          FROM sym JOIN assign pa ON sym.src = pa.id JOIN assign pb ON sym.dst = pb.id
        ), vc AS (
          SELECT part, count(*) AS n_vertices FROM assign GROUP BY part
        ), ld AS (
          SELECT p_dst AS part,
                 sum(CASE WHEN p_src =  p_dst THEN 1.0 ELSE 0.0 END) AS local_units,
                 sum(CASE WHEN p_src <> p_dst THEN 1.0 ELSE 0.0 END) AS remote_units
          FROM msg GROUP BY p_dst
        )
        SELECT vc.part, vc.n_vertices,
               coalesce(ld.local_units, 0.0) AS local_units,
               coalesce(ld.remote_units, 0.0) AS remote_units
        FROM vc LEFT JOIN ld ON vc.part = ld.part
        """,
        edges=pdf,
        assign=apdf,
    )


def test_static_loads_deg_units_against_duckdb(graph, spark):
    _, pdf, sdf, _, a = graph
    apdf = _assign_pdf(a)
    got = spark.createDataFrame(static_loads(sdf, a, units="deg_src"))
    assert_equivalent(
        got,
        """
        WITH sym AS (
          SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
        ), deg AS (
          SELECT src AS id, count(*) AS degree FROM sym GROUP BY src
        ), msg AS (
          SELECT pa.part AS p_src, pb.part AS p_dst, deg.degree AS u
          FROM sym JOIN assign pa ON sym.src = pa.id
                   JOIN assign pb ON sym.dst = pb.id
                   JOIN deg ON sym.src = deg.id
        ), vc AS (
          SELECT part, count(*) AS n_vertices FROM assign GROUP BY part
        ), ld AS (
          SELECT p_dst AS part,
                 sum(CASE WHEN p_src =  p_dst THEN cast(u AS DOUBLE) ELSE 0.0 END) AS local_units,
                 sum(CASE WHEN p_src <> p_dst THEN cast(u AS DOUBLE) ELSE 0.0 END) AS remote_units
          FROM msg GROUP BY p_dst
        )
        SELECT vc.part, vc.n_vertices,
               coalesce(ld.local_units, 0.0) AS local_units,
               coalesce(ld.remote_units, 0.0) AS remote_units
        FROM vc LEFT JOIN ld ON vc.part = ld.part
        """,
        edges=pdf,
        assign=apdf,
    )


def test_static_loads_single_part_all_local(graph, spark):
    _, pdf, sdf, vt, _ = graph
    one = vt.select("id", F.lit(0).alias("part"))
    loads = static_loads(sdf, one)
    assert loads.remote_units.sum() == 0
    assert loads.local_units.sum() == 2 * len(pdf)


def test_static_loads_bad_units(graph):
    _, _, sdf, _, a = graph
    with pytest.raises(ValueError, match="unit model"):
        static_loads(sdf, a, units="bytes")


# --------------------------------------------------------------- propagation


def test_propagation_superstep0_equals_static(graph):
    """In superstep 0 everyone sends — loads must match the static counts."""
    _, _, sdf, _, a = graph
    cc = propagation_loads(sdf, a, max_rounds=1)
    static = static_loads(sdf, a)
    pd.testing.assert_frame_equal(
        cc[0][["part", "local_units", "remote_units"]],
        static[["part", "local_units", "remote_units"]],
    )


def test_propagation_decays(graph):
    _, _, sdf, _, a = graph
    cc = propagation_loads(sdf, a)
    totals = [ld.local_units.sum() + ld.remote_units.sum() for ld in cc]
    assert totals[-1] <= totals[0]
    assert len(cc) >= 2


def test_propagation_labels_are_components(graph):
    _, pdf, sdf, _, a = graph
    _, labels = propagation_loads(sdf, a, return_labels=True)
    got = labels.toPandas().sort_values("id")["label"].to_numpy()

    # Union-find ground truth.
    parent = np.arange(200)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s, d in pdf.itertuples(index=False):
        parent[find(s)] = find(d)
    roots = np.array([find(i) for i in range(200)])
    # Min-label propagation converges to the min id of each component.
    want = np.empty(200, dtype=np.int64)
    for r in np.unique(roots):
        members = np.flatnonzero(roots == r)
        want[members] = members.min()
    assert np.array_equal(got, want)


# ---------------------------------------------------------------- cost model


def test_cost_model_worker_times_formula():
    cm = CostModel(c_msg=2.0, c_remote=3.0, c_vertex=5.0, bytes_per_unit=10.0)
    loads = pd.DataFrame(
        {"part": [0, 1], "n_vertices": [4, 6], "local_units": [10.0, 0.0], "remote_units": [2.0, 8.0]}
    )
    wt = cm.worker_times(loads)
    assert wt.time.tolist() == [2 * 12 + 3 * 2 + 5 * 4, 2 * 8 + 3 * 8 + 5 * 6]
    assert wt.comm_bytes.tolist() == [20.0, 80.0]


def test_cost_model_job_runtime_is_sum_of_max():
    cm = CostModel(c_msg=1.0, c_remote=0.0, c_vertex=0.0)
    l1 = pd.DataFrame({"part": [0, 1], "n_vertices": [1, 1], "local_units": [5.0, 3.0], "remote_units": [0.0, 0.0]})
    l2 = pd.DataFrame({"part": [0, 1], "n_vertices": [1, 1], "local_units": [1.0, 7.0], "remote_units": [0.0, 0.0]})
    assert cm.job_runtime([l1, l2]) == 5.0 + 7.0


def test_cost_model_superstep_stats_keys():
    cm = default_cost_model(avg_degree=8.0)
    loads = pd.DataFrame(
        {"part": [0, 1], "n_vertices": [3, 3], "local_units": [4.0, 4.0], "remote_units": [1.0, 1.0]}
    )
    st = cm.superstep_stats(loads)
    assert set(st) == {"time_mean", "time_max", "time_std", "comm_mean", "comm_max", "comm_std"}
    assert st["time_std"] == 0.0


def test_averaged_stats_mean_over_supersteps():
    cm = CostModel(c_msg=1.0, c_remote=0.0, c_vertex=0.0)
    l1 = pd.DataFrame({"part": [0], "n_vertices": [1], "local_units": [2.0], "remote_units": [0.0]})
    l2 = pd.DataFrame({"part": [0], "n_vertices": [1], "local_units": [4.0], "remote_units": [0.0]})
    st = cm.averaged_stats([l1, l2])
    assert st["time_mean"] == 3.0


# ---------------------------------------------------------------------- apps


def test_pagerank_loads_30_supersteps(graph):
    _, _, sdf, _, a = graph
    assert len(apps.pagerank_loads(sdf, a)) == 30


def test_mutual_friends_single_heavy_superstep(graph):
    _, pdf, sdf, _, a = graph
    mf = apps.mutual_friends_loads(sdf, a)
    assert len(mf) == 1
    # MF total units = Σ_edges (deg(u) + deg(v)) = Σ_v deg(v)^2.
    deg = np.bincount(np.concatenate([pdf.src, pdf.dst]), minlength=200)
    want = float((deg.astype(float) ** 2).sum())
    got = float(mf[0].local_units.sum() + mf[0].remote_units.sum())
    assert got == pytest.approx(want)


def test_hc_loads_and_cost_override(graph):
    _, _, sdf, _, a = graph
    hc = apps.hypergraph_clustering_loads(sdf, a)
    assert len(hc) == 5
    base = default_cost_model(8.0)
    assert apps.app_cost_model("HC", base).c_vertex == 4.0 * base.c_vertex
    for app in ("PR", "MF"):
        assert apps.app_cost_model(app, base) == base


def test_app_registry_complete():
    assert set(apps.APP_LOADS) == {"PR", "CC", "HC", "MF"}
