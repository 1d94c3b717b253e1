"""Which functions the traced run wraps, and the per-layer metrics they give.

Spans are named ``<layer>.<function>`` for the partitioner's functions and
``spark.<action>`` for DataFrame actions; an action's time belongs to the
layer whose function was open when it ran.
"""
from __future__ import annotations

import statistics

import numpy as np

from tracer import Span, Tracer, child_index, self_times

FUNCTIONS = [
    ("repro.graphs.generators", "generate_edges", "generators.generate_edges"),
    ("repro.graphs.generators", "to_spark", "generators.to_spark"),
    ("repro.graphs.ops", "vertex_table", "ops.vertex_table"),
    ("repro.graphs.ops", "symmetrize", "ops.symmetrize"),
    ("repro.graphs.ops", "induced_edges", "ops.induced_edges"),
    ("repro.core.recursive", "partition_k_spark", "recursive.partition_k_spark"),
    ("repro.core.recursive", "partition_k_local", "recursive.partition_k_local"),
    ("repro.core.gd", "gd_bipartition_spark", "gd.gd_bipartition_spark"),
    ("repro.core.gd", "gd_relax_spark", "gd.gd_relax_spark"),
    ("repro.core.gd", "_final_alternating", "gd.final_alternating"),
    ("repro.core.projection_spark", "sequential_lambdas", "gd.sequential_lambdas"),
    ("repro.core.local_gd", "gd_bipartition_local", "local_gd.gd_bipartition_local"),
    ("repro.core.local_gd", "gd_relax_local", "local_gd.gd_relax_local"),
    ("repro.core.projection_np", "one_shot_alternating", "projection_np.one_shot_alternating"),
    ("repro.core.projection_np", "alternating", "projection_np.alternating"),
    ("repro.core.rounding", "round_randomized", "rounding.round_randomized"),
    ("repro.core.rounding", "repair_balance", "rounding.repair_balance"),
]
ACTIONS = ["collect", "toPandas", "localCheckpoint", "count"]

# Per-layer metric name -> unit, in the order they are printed.
PER_LAYER = {
    "gd.relax_s": "s",
    "gd.iter_s": "s",
    "gd.grad_agg_s": "s",
    "gd.update_checkpoint_s": "s",
    "gd.lambda_s": "s",
    "gd.final_project_s": "s",
    "gd.final_project_rounds": "count",
    "gd.collect_s": "s",
    "gd.spark_jobs_per_iter": "count",
    "gd.spark_stages_per_iter": "count",
    "gd.spark_tasks_per_iter": "count",
    "local_gd.relax_s": "s",
    "local_gd.iter_s": "s",
    "projection_np.one_shot_s": "s",
    "projection_np.final_alternating_s": "s",
    "rounding.round_s": "s",
    "rounding.repair_s": "s",
    "rounding.repair_flips": "count",
    "rounding.unrepaired": "share",
    "recursive.bisections": "count",
    "recursive.split_s": "s",
    "recursive.collect_s": "s",
    "recursive.collect_rows": "count",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "generators.generate_s": "s",
    "setup.load_s": "s",
    "self.gd_s": "s",
    "self.local_gd_s": "s",
    "self.projection_np_s": "s",
    "self.rounding_s": "s",
    "self.recursive_s": "s",
    "self.ops_s": "s",
    "self.bench_collect_s": "s",
    "trace.partition_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "share",
    "trace.bookkeeping_s": "s",
}


def _on_repair(span: Span, args, kwargs, result) -> None:
    signs, _, W, eps = args[:4]
    span.info["flips"] = int(np.count_nonzero(result != signs))
    b = eps * W.sum(axis=0)
    span.info["unrepaired"] = bool((np.abs(W.T @ result) > b + 1e-9 * (1.0 + b)).any())


def _on_to_pandas(span: Span, args, kwargs, result) -> None:
    span.info["rows"] = len(result)


def install(tracer: Tracer, dataframe_cls: type) -> None:
    for module, attr, name in FUNCTIONS:
        on_return = _on_repair if attr == "repair_balance" else None
        tracer.wrap_function(module, attr, name, on_return)
    for action in ACTIONS:
        tracer.wrap_method(
            dataframe_cls, action, f"spark.{action}",
            _on_to_pandas if action == "toPandas" else None,
        )


def _layer(spans: list[Span], i: int) -> str:
    """Owning layer of span ``i``; an action belongs to the function it ran in."""
    name = spans[i].name
    if name.startswith("spark."):
        owner = spans[i].parent
        while owner >= 0 and spans[owner].name.startswith("spark."):
            owner = spans[owner].parent
        if owner < 0 or spans[owner].name == "bench.call":
            return "bench_collect"
        return _layer(spans, owner)
    return name.split(".", 1)[0]


def _sibling(spans, kids, pos, name, step):
    p = pos + step
    while 0 <= p < len(kids):
        if spans[kids[p]].name == name:
            return kids[p]
        p += step
    return None


def _gd_iterations(spans: list[Span], kids: list[int]):
    """Per-iteration (duration, aggregate collect, checkpoint, job range)
    of one ``gd_relax_spark`` span: an iteration runs from the end of one
    ``localCheckpoint`` (the start state's, for t=0) to the end of the next."""
    out = []
    for pos, c in enumerate(kids):
        if spans[c].name != "gd.sequential_lambdas":
            continue
        agg = _sibling(spans, kids, pos, "spark.collect", -1)
        ck = _sibling(spans, kids, pos, "spark.localCheckpoint", +1)
        prev = _sibling(spans, kids, kids.index(agg), "spark.localCheckpoint", -1)
        out.append((
            spans[ck].end - spans[prev].end,
            spans[agg].dur,
            spans[ck].dur,
            (spans[prev].job1, spans[ck].job1),
        ))
    return out


def _local_iterations(spans: list[Span], relax: int, kids: list[int]) -> list[float]:
    """Gaps between the starts of successive one-shot projections of one
    ``gd_relax_local`` span; the last closes at the next child or span end."""
    starts = [spans[c].start for c in kids if spans[c].name == "projection_np.one_shot_alternating"]
    after = [spans[c].start for c in kids if spans[c].name != "projection_np.one_shot_alternating"
             and spans[c].start > (starts[-1] if starts else 0.0)]
    close = after[0] if after else spans[relax].end
    return list(np.diff([*starts, close])) if starts else []


def derive(spans: list[Span], roots: list[int], job_stats) -> tuple[dict, dict]:
    """Per-layer metrics averaged over the traced calls ``roots``.

    ``job_stats(lo, hi)`` returns (jobs, stages, tasks) for the Spark job ids
    in ``(lo, hi]``. Returns the metrics and the raw sample counts used by the
    tracing self-test.
    """
    calls = len(roots)
    index = child_index(spans)
    in_call = set()
    for r in roots:
        stack = [r]
        while stack:
            i = stack.pop()
            in_call.add(i)
            stack.extend(index[i])
    sel = sorted(in_call)

    def named(name: str) -> list[int]:
        return [i for i in sel if spans[i].name == name]

    def total(name: str) -> float:
        return sum(spans[i].dur for i in named(name))

    gd_iters, jobs_iter = [], [0, 0, 0]
    for relax in named("gd.gd_relax_spark"):
        for dur, agg, ck, (lo, hi) in _gd_iterations(spans, index[relax]):
            gd_iters.append((dur, agg, ck))
            jobs_iter = [a + b for a, b in zip(jobs_iter, job_stats(lo, hi))]
    local_iters = [g for r in named("local_gd.gd_relax_local") for g in _local_iterations(spans, r, index[r])]
    final_rounds = [
        sum(spans[c].name == "spark.collect" for c in index[f])
        for f in named("gd.final_alternating")
    ]
    gd_collect = [c for b in named("gd.gd_bipartition_spark") for c in index[b]
                  if spans[c].name == "spark.toPandas"]
    rec_collect = [c for b in named("recursive.partition_k_spark") for c in index[b]
                   if spans[c].name in ("spark.toPandas", "spark.collect")]
    repairs = named("rounding.repair_balance")
    bisections = len(named("gd.gd_bipartition_spark")) + len(named("local_gd.gd_bipartition_local"))
    one_shot = [c for r in named("local_gd.gd_relax_local") for c in index[r]
                if spans[c].name == "projection_np.one_shot_alternating"]
    final_alt = [c for r in named("local_gd.gd_relax_local") for c in index[r]
                 if spans[c].name == "projection_np.alternating"]
    selfs = self_times(spans)
    by_layer: dict[str, float] = {}
    for i in sel:
        by_layer[_layer(spans, i)] = by_layer.get(_layer(spans, i), 0.0) + selfs[i]
    spark = [0, 0, 0]
    for r in roots:
        spark = [a + b for a, b in zip(spark, job_stats(spans[r].job0, spans[r].job1))]
    n_it = max(len(gd_iters), 1)

    m = {
        "gd.relax_s": total("gd.gd_relax_spark") / calls,
        "gd.iter_s": statistics.median([g[0] for g in gd_iters]) if gd_iters else 0.0,
        "gd.grad_agg_s": sum(g[1] for g in gd_iters) / calls,
        "gd.update_checkpoint_s": sum(g[2] for g in gd_iters) / calls,
        "gd.lambda_s": total("gd.sequential_lambdas") / calls,
        "gd.final_project_s": total("gd.final_alternating") / calls,
        "gd.final_project_rounds": statistics.mean(final_rounds) if final_rounds else 0.0,
        "gd.collect_s": sum(spans[c].dur for c in gd_collect) / calls,
        "gd.spark_jobs_per_iter": jobs_iter[0] / n_it,
        "gd.spark_stages_per_iter": jobs_iter[1] / n_it,
        "gd.spark_tasks_per_iter": jobs_iter[2] / n_it,
        "local_gd.relax_s": total("local_gd.gd_relax_local") / calls,
        "local_gd.iter_s": statistics.median(local_iters) if local_iters else 0.0,
        "projection_np.one_shot_s": sum(spans[c].dur for c in one_shot) / calls,
        "projection_np.final_alternating_s": sum(spans[c].dur for c in final_alt) / calls,
        "rounding.round_s": total("rounding.round_randomized") / calls,
        "rounding.repair_s": total("rounding.repair_balance") / calls,
        "rounding.repair_flips": sum(spans[i].info["flips"] for i in repairs) / calls,
        "rounding.unrepaired": (
            sum(spans[i].info["unrepaired"] for i in repairs) / len(repairs) if repairs else 0.0
        ),
        "recursive.bisections": bisections / calls,
        "recursive.split_s": sum(selfs[i] for i in sel if spans[i].name.startswith("recursive.")) / calls,
        "recursive.collect_s": sum(spans[c].dur for c in rec_collect) / calls,
        "recursive.collect_rows": sum(spans[c].info.get("rows", 0) for c in rec_collect) / calls,
        "spark.jobs": spark[0] / calls,
        "spark.stages": spark[1] / calls,
        "spark.tasks": spark[2] / calls,
    }
    for layer in ("gd", "local_gd", "projection_np", "rounding", "recursive", "ops"):
        m[f"self.{layer}_s"] = by_layer.get(layer, 0.0) / calls
    m["self.bench_collect_s"] = by_layer.get("bench_collect", 0.0) / calls
    m["trace.unattributed_s"] = by_layer.get("bench", 0.0) / calls
    counts = {
        "gd_iter_samples": len(gd_iters),
        "local_iter_samples": len(local_iters),
        "gd_bisections": len(named("gd.gd_relax_spark")),
        "local_bisections": len(named("local_gd.gd_relax_local")),
    }
    return m, counts
