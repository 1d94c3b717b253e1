"""Smoke + shape tests for the per-table/per-figure harnesses (tiny scale).

Bench-scale runs (paper-comparable numbers) live in ``benchmarks/``; these
tests verify structure and the loose qualitative invariants at small n.
"""
import numpy as np
import pytest

from repro.experiments import (
    fig4_balance,
    fig5_locality,
    fig6_locality_fb,
    fig7_speedup,
    fig8_step,
    fig9_adaptive,
    fig10_projection,
    fig11_scaling,
    table1,
)


@pytest.fixture(scope="module")
def t1(spark):
    return table1.run_table1(spark, n=800, k=4, n_iter=30, engine="local", seed=0)


def test_table1_structure(t1):
    assert list(t1.policy) == ["Hash", "vertex", "edge", "vertex-edge"]
    assert set(t1.columns) == {
        "policy", "rt_mean", "rt_max", "rt_std", "comm_mean", "comm_max", "comm_std"
    }


def test_table1_hash_calibration(t1):
    row = t1[t1.policy == "Hash"].iloc[0]
    assert row.rt_mean == pytest.approx(95.0, abs=0.1)
    assert row.comm_mean == pytest.approx(69.5, abs=0.1)


def test_table1_hash_comm_highest(t1):
    hash_comm = t1[t1.policy == "Hash"].comm_mean.iloc[0]
    assert (t1[t1.policy != "Hash"].comm_mean < hash_comm).all()


def test_table1_vertex_edge_lowest_max_runtime(t1):
    ve = t1[t1.policy == "vertex-edge"].rt_max.iloc[0]
    others = t1[t1.policy.isin(["vertex", "edge"])].rt_max
    assert (ve <= others + 5.0).all()  # paper shape: ve has the tightest max


def test_fig4_structure_and_balance_shape(spark):
    df = fig4_balance.run_fig4(
        spark, n=400, ks=(2,), n_rounds=4, gd_iters=25, engine="local", seed=0
    )
    assert set(df.alg) == {"Hash", "GD", "Spinner", "BLP", "SHP"}
    assert len(df) == 3 * 5
    gd = df[df.alg == "GD"]
    assert (gd[["vertex_imb", "edge_imb"]].max(axis=1) < 0.15).all()
    hash_ = df[df.alg == "Hash"]
    assert (hash_[["vertex_imb", "edge_imb"]].max(axis=1) < 0.25).all()


def test_fig5_structure_and_ordering(spark):
    df = fig5_locality.run_fig5(
        spark, n=400, ks=(2,), gd_iters=40, n_rounds=4, engine="local", seed=0
    )
    assert len(df) == 3 * 3
    for g in df.graph.unique():
        sub = df[df.graph == g].set_index("alg").locality_pct
        assert sub["GD"] > sub["Hash"]
        assert sub["Hash"] == pytest.approx(50.0, abs=10.0)


def test_fig5_d4_text_claim_runs(spark):
    d4 = fig5_locality.run_d4_text_claim(spark, n=400, gd_iters=40, seed=0)
    assert list(d4.graph) == ["LiveJournal", "Orkut"]
    assert (d4.locality_pct > 50.0).all()


def test_fig6_structure(spark):
    df = fig6_locality_fb.run_fig6(
        spark, sizes=(500,), ks=(8,), gd_iters=40, n_rounds=4, engine="local", seed=0
    )
    assert len(df) == 3
    sub = df.set_index("alg").locality_pct
    assert sub["GD"] > sub["Hash"]
    assert sub["Hash"] == pytest.approx(100.0 / 8, abs=6.0)


def test_fig7_structure(spark):
    df = fig7_speedup.run_fig7(
        spark,
        configs={"small": dict(n=500, k=4)},
        apps=("PR", "MF"),
        gd_iters=30,
        engine="local",
        seed=0,
    )
    assert len(df) == 2 * 3
    assert np.isfinite(df.speedup_pct).all()
    ve = df[df["mode"] == "vertex-edge"].speedup_pct
    assert (ve > -20.0).all()  # vertex-edge must not badly regress


def test_fig8_structure_and_integrality(spark):
    df = fig8_step.run_fig8(n=300, multipliers=(0.5, 2.0), n_iter=40, seed=0)
    assert len(df) == 3 * 2
    # Fig 8 mechanism: multiplier 2 reaches (near-)integral solutions,
    # multiplier 0.5's total path length (0.5·√n) cannot.
    for g in df.graph.unique():
        sub = df[df.graph == g].set_index("step_mult").integrality
        assert sub[2.0] > sub[0.5]
        assert sub[0.5] <= 0.55


def test_fig9_structure_and_fixing_balance(spark):
    df = fig9_adaptive.run_fig9(n=400, n_iter=40, seed=0)
    assert set(df.variant) == set(fig9_adaptive.VARIANTS)
    fixing_final = df[(df.variant == "adaptive+fixing") & (df.iteration == 40)]
    assert fixing_final.n_fixed.iloc[0] > 0


def test_fig10_structure(spark):
    df = fig10_projection.run_fig10(n=300, eps_values=(0.05, 0.2), n_iter=30, seed=0)
    assert len(df) == 2 * 2
    # More allowed imbalance should not hurt exact-projection quality much.
    ex = df[df.projection == "exact"].set_index("eps").locality_pct
    assert ex[0.2] >= ex[0.05] - 5.0


def test_fig11_structure(spark):
    df = fig11_scaling.run_fig11(spark, sizes=(300, 600), n_iter=3, seed=0)
    assert list(df.n) == [300, 600]
    assert (df.wall_s > 0).all()
    assert (df.m > 0).all()


def test_entry_point_maps_every_harness():
    """``python -m repro.experiments`` names each harness module once, each
    with a ``main``, and rejects unknown exhibits before starting Spark."""
    from importlib import import_module
    from pathlib import Path

    import repro.experiments as pkg
    from repro.experiments.__main__ import EXHIBITS, run

    modules = {p.stem for p in Path(pkg.__file__).parent.glob("*.py")}
    harnesses = modules - {"__init__", "__main__", "common"}
    assert len(harnesses) == 9
    assert sorted(EXHIBITS.values()) == sorted(harnesses)
    for name in harnesses:
        assert callable(import_module(f"repro.experiments.{name}").main)
    with pytest.raises(SystemExit):
        run(["fig99"])
