"""Benchmark of the GD partitioner: from a loaded graph to an ``[id, part]``
assignment on the driver, through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload spark_k16 --seed 1 --seconds 60 --trace 0

``--trace 0`` times the calls with no wrapper installed and prints the
end-to-end metrics. ``--trace 1`` times each input once untraced and once with
the layer wrappers of ``layers.py`` installed, and prints the per-layer
metrics and the tracing overhead. Either way the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before the metric table records the config, versions and counts.
Workloads, metrics and the layer map are described in ``README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    engine: str  # "spark": partition_k_spark on Spark tables; "local": partition_k_local
    n: int  # fb_lite vertex count
    k: int
    eps: float
    n_iter: int


WORKLOADS = {
    # Why these two, and why these sizes: README.md.
    "spark_k16": Workload("spark", 8000, 16, 0.05, 20),
    "local_k16": Workload("local", 4000, 16, 0.02, 60),
}
SETUP_REPS = 3  # set-up rounds per Spark run; setup_s takes their median
PASSES = 2  # numpy calls per graph; a graph's time is its fastest call

END_TO_END = {
    "partition_s": "s",
    "edges_per_s": "1/s",
    "setup_s": "s",
    "eps_balance": "share",
    "driver_rss_mb": "MB",
}
# Printed with the end-to-end metrics but not bounded: one Spark call per run
# gives one graph's value, which varies by seed more than any bound allows.
REPORTED = {"edge_locality": "share", "ops_failed": "share"}


def cores() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def spark_conf() -> dict[str, str]:
    """The pinned Spark configuration; nothing is inherited from the caller."""
    return {
        "spark.master": f"local[{cores()}]",
        "spark.driver.memory": "2g",
        "spark.sql.shuffle.partitions": "64",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.adaptive.enabled": "true",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.retainedJobs": "100000",
        "spark.ui.retainedStages": "100000",
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": str(STATE / "spark-local"),
        "spark.sql.warehouse.dir": str(STATE / "warehouse"),
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={STATE / 'tmp'}",
    }


# ---------------------------------------------------------------------------
# Engines: set up one input, make one partition call.
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    seed: int
    edges_pdf: object  # canonical pandas edge list
    W: object  # (n, 2) numpy weights: unit, degree
    edges: object = None  # Spark edge table (cached)
    vertices: object = None  # Spark vertex table (cached)

    @property
    def m(self) -> int:
        return len(self.edges_pdf)


class Engine:
    """The partitioner as the benchmark drives it: Spark session, inputs, calls.

    ``repro`` is imported here, once ``main`` has found and added ``src``.
    """

    def __init__(self, wl: Workload, job_group: str = "perfbench"):
        import numpy as np
        from repro.core import gd, recursive
        from repro.core.params import GDParams
        from repro.graphs import generators, ops

        self.np, self.gd, self.recursive = np, gd, recursive
        self.GDParams, self.generators, self.ops = GDParams, generators, ops
        self.wl = wl
        self.spark = None
        self.session_s = 0.0
        self.job_group = job_group
        if wl.engine == "spark":
            self.start_spark()

    def start_spark(self) -> None:
        for d in ("spark-local", "warehouse", "tmp"):
            (STATE / d).mkdir(parents=True, exist_ok=True)
        for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_CONF_DIR", "SPARK_LOCAL_DIRS"):
            os.environ.pop(var, None)
        t0 = time.perf_counter()
        from pyspark.sql import SparkSession

        builder = SparkSession.builder.appName("perfbench")
        for key, value in spark_conf().items():
            builder = builder.config(key, value)
        self.spark = builder.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")
        self.spark.sparkContext.setJobGroup(self.job_group, "perfbench partition calls")
        self.session_s = time.perf_counter() - t0

    def close(self) -> None:
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except Exception:  # noqa: BLE001 - the JVM must not outlive the run
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
        self.spark = None

    def params(self, seed: int):
        return self.GDParams(eps=self.wl.eps, n_iter=self.wl.n_iter, seed=seed)

    def warm_up(self) -> float:
        """One small Spark bisection, so the timed call does not pay the
        JVM's first-use compilation of the GD loop's queries."""
        t0 = time.perf_counter()
        small = self.generators.to_spark(
            self.spark, self.generators.generate_edges(self.generators.fb_lite(500, seed=0))
        )
        p = self.GDParams(eps=self.wl.eps, n_iter=1, final_project=False)
        self.gd.gd_bipartition_spark(small, self.ops.vertex_table(small), p).toPandas()
        return time.perf_counter() - t0

    def setup(self, seed: int, tracer=None) -> Inputs:
        np = self.np
        edges_pdf = self.generators.generate_edges(self.generators.fb_lite(self.wl.n, seed=seed))
        deg = np.bincount(
            np.concatenate([edges_pdf.src.to_numpy(), edges_pdf.dst.to_numpy()]),
            minlength=self.wl.n,
        ).astype(float)
        inputs = Inputs(seed, edges_pdf, np.column_stack([np.ones(self.wl.n), deg]))
        if self.wl.engine == "spark":
            with tracer.span("bench.load") if tracer else contextlib.nullcontext():
                inputs.edges = self.generators.to_spark(self.spark, edges_pdf).cache()
                inputs.edges.count()
                inputs.vertices = self.ops.vertex_table(inputs.edges).cache()
                inputs.vertices.count()
        return inputs

    def release(self, inputs: Inputs) -> None:
        if inputs.edges is not None:
            inputs.vertices.unpersist()
            inputs.edges.unpersist()

    def call(self, inputs: Inputs):
        """One partition call; returns (ids, parts) on the driver."""
        np, wl = self.np, self.wl
        p = self.params(inputs.seed)
        if wl.engine == "local":
            parts = self.recursive.partition_k_local(inputs.edges_pdf, inputs.W, wl.k, p)
            return np.arange(wl.n), parts
        # The result is a lazy union; the collect is part of the call.
        pdf = self.recursive.partition_k_spark(inputs.edges, inputs.vertices, wl.k, p).toPandas()
        return pdf["id"].to_numpy(), pdf["part"].to_numpy()

    def last_job(self) -> int:
        ids = self.spark.sparkContext.statusTracker().getJobIdsForGroup(self.job_group)
        return max(ids, default=-1)

    def job_stats(self, lo: int, hi: int) -> tuple[int, int, int]:
        """(jobs, stages that ran tasks, tasks run) for the job ids in
        ``(lo, hi]``; a stage listed by several of those jobs counts once."""
        if self.spark is None or hi <= lo:
            return 0, 0, 0
        st = self.spark.sparkContext.statusTracker()
        stages, tasks = set(), 0
        for j in range(lo + 1, hi + 1):
            info = st.getJobInfo(j)
            if info is None:
                raise RuntimeError(f"Spark job {j} was not retained; counts would be truncated")
            for sid in info.stageIds:
                if sid in stages:
                    continue
                si = st.getStageInfo(sid)
                if si is None:
                    raise RuntimeError(f"Spark stage {sid} was not retained")
                if si.numCompletedTasks > 0:
                    stages.add(sid)
                    tasks += si.numCompletedTasks
        return hi - lo, len(stages), tasks


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run: set up inputs, make the calls, check every result."""

    def __init__(self, wl: Workload, seed: int, seconds: float):
        import checks

        self.checks = checks
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.engine = Engine(wl)
        self.ledger = checks.Ledger(STATE / "digests.json")
        self.config_key = json.dumps(
            {"workload": asdict(wl), "spark": spark_conf() if wl.engine == "spark" else None},
            sort_keys=True,
        )
        self.attempted = 0  # every partition call
        self.timed = 0  # calls that count towards the end-to-end figures
        self.failed = 0  # raised, not total, or not deterministic
        self.eps_misses = 0  # timed calls above the compounded ε tolerance
        self.timed_bad = 0  # timed calls that failed or missed ε
        self.mismatch = False  # a self-test or cross-check failed
        self.problems: list[str] = []
        self.samples: list[float] = []  # every timed call
        self.best: dict[int, float] = {}  # graph seed -> fastest timed call
        self.edges: dict[int, int] = {}  # graph seed -> canonical edges
        self.locality: list[float] = []
        self.eps: list[float] = []
        self.first: tuple | None = None
        self.digests: dict[int, str] = {}
        self.setup_detail: dict = {}

    def instance_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def more(self, deadline: float) -> bool:
        """Start another call only if a median-length one ends in the window."""
        last = statistics.median(self.samples) if self.samples else 0.0
        return time.perf_counter() + last <= deadline

    def call(self, inputs: Inputs, tracer=None):
        """One call from loaded inputs to the assignment on the driver;
        returns (seconds, ids, parts), or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        root = tracer.open("bench.call", jobs=True) if tracer else None
        try:
            ids, parts = self.engine.call(inputs)
        except Exception:  # noqa: BLE001 - a raising call is a counted failure
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        finally:
            if tracer:
                tracer.close(root)
        return time.perf_counter() - t0, ids, parts

    def record(self, inputs: Inputs, result, first: bool = True, timed: bool = True) -> str | None:
        """Check one call's assignment and return its digest (None if invalid).

        Every call is checked for validity and determinism. The ``first``
        call on a graph also gives its quality figures and counts towards
        ``ops_failed``; a ``timed`` call's duration competes for the graph's
        fastest time.
        """
        self.timed += first
        if result is None:
            self.timed_bad += first
            return None
        dt, ids, parts = result
        np, ck, wl = self.engine.np, self.checks, self.wl
        ids, parts = np.asarray(ids), np.asarray(parts)
        why = ck.invalid_reason(ids, parts, wl.n, wl.k)
        if why is not None:
            self.failed += 1
            self.timed_bad += first
            self.problems.append(f"seed {inputs.seed}: {why}")
            return None
        parts = ck.by_id(ids, parts)
        digest = ck.digest(parts)
        same = self.ledger.check(f"{self.config_key}|{inputs.seed}", digest)
        same &= self.digests.setdefault(inputs.seed, digest) == digest
        if not same:
            self.failed += 1
            self.problems.append(f"seed {inputs.seed}: assignment differs from an earlier run")
        if timed:
            self.samples.append(dt)
            self.best[inputs.seed] = min(dt, self.best.get(inputs.seed, dt))
            self.edges[inputs.seed] = inputs.m
        if first:
            src, dst = inputs.edges_pdf.src.to_numpy(), inputs.edges_pdf.dst.to_numpy()
            loc = ck.edge_locality(src, dst, parts)
            eps = ck.epsilon_balance(parts, inputs.W, wl.k)
            tol = ck.eps_tolerance(wl.eps, wl.k)
            self.timed_bad += (not same) or eps > tol + 1e-9
            if eps > tol + 1e-9:
                self.eps_misses += 1
                self.problems.append(f"seed {inputs.seed}: eps_balance {eps:.4f} > tolerance {tol:.4f}")
            self.locality.append(loc)
            self.eps.append(eps)
            if self.first is None:
                self.first = (inputs, parts, loc, eps)
        return digest

    def cross_check(self) -> None:
        """Compare the numpy quality figures with ``repro.metrics`` once."""
        if self.first is None:
            return
        import pandas as pd

        inputs, parts, loc, eps = self.first
        eng = self.engine
        if eng.spark is None:
            eng.start_spark()
        if inputs.edges is None or not inputs.edges.is_cached:
            inputs.edges = eng.generators.to_spark(eng.spark, inputs.edges_pdf)
            inputs.vertices = eng.ops.vertex_table(inputs.edges)
        from repro import metrics

        asg = eng.spark.createDataFrame(pd.DataFrame({"id": eng.np.arange(self.wl.n), "part": parts}))
        ref_loc = metrics.edge_locality(inputs.edges, asg)
        ref_eps = metrics.epsilon_balance(inputs.vertices, asg, 2, self.wl.k)
        if abs(ref_loc - loc) > 1e-9 or abs(ref_eps - eps) > 1e-9:
            self.problems.append(f"cross-check: locality {loc} vs {ref_loc}, eps {eps} vs {ref_eps}")
            self.mismatch = True

    # -- untraced -------------------------------------------------------------
    def untraced(self) -> dict:
        """End-to-end figures.

        Spark: a warm-up, then one graph set up ``SETUP_REPS`` times and
        called while a median-length call still fits the window (a run makes
        one call at the sizes used). numpy: new graphs are partitioned for
        the first ``1/PASSES`` of the window, then every graph ``PASSES - 1``
        more times; each graph's time is its fastest call, which keeps the
        figure steady when other load on the machine comes and goes.
        """
        eng = self.engine
        setup_times = []
        warm_s = 0.0
        if self.wl.engine == "spark":
            warm_s = eng.warm_up()
            inputs = None
            for _ in range(SETUP_REPS):
                if inputs is not None:
                    eng.release(inputs)
                t0 = time.perf_counter()
                inputs = eng.setup(self.instance_seed(0))
                setup_times.append(time.perf_counter() - t0)
            deadline = time.perf_counter() + self.seconds
            self.record(inputs, self.call(inputs))
            while self.more(deadline):
                self.record(inputs, self.call(inputs), first=False)
        else:
            deadline = time.perf_counter() + self.seconds / PASSES
            graphs = []
            while not graphs or self.more(deadline):
                t0 = time.perf_counter()
                graphs.append(eng.setup(self.instance_seed(len(graphs))))
                setup_times.append(time.perf_counter() - t0)
                self.record(graphs[-1], self.call(graphs[-1]))
            for _ in range(PASSES - 1):
                for inputs in graphs:
                    self.record(inputs, self.call(inputs), first=False)
        self.setup_detail = {
            "session_s": eng.session_s, "warm_up_s": warm_s, "rounds_s": setup_times[:SETUP_REPS],
        }
        best = [self.best[s] for s in sorted(self.best)]
        rates = [self.edges[s] / self.best[s] for s in sorted(self.best)]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        med = lambda v: statistics.median(v) if v else float("nan")  # noqa: E731
        return {
            "partition_s": med(best),
            "edges_per_s": med(rates),
            "setup_s": eng.session_s + warm_s + statistics.median(setup_times),
            "eps_balance": med(self.eps),
            "driver_rss_mb": rss_kb / 1024.0,
            "edge_locality": med(self.locality),
            "ops_failed": self.timed_bad / max(self.timed, 1),
        }

    # -- traced ---------------------------------------------------------------
    def traced(self) -> dict:
        """Per-layer figures. Each graph is set up traced, called once with
        no wrapper installed and once traced; the two must agree."""
        import layers
        import tracer as T

        eng, wl = self.engine, self.wl
        if wl.engine == "spark":
            eng.warm_up()
        else:
            eng.start_spark()  # for the cross-check, and the DataFrame class to wrap
        df_cls = type(eng.spark.range(1))
        tr = T.Tracer(eng.last_job)
        roots, plain_s, traced_s, setups = [], [], [], []
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            layers.install(tr, df_cls)
            try:
                with tr.span("bench.setup"):
                    setups.append(len(tr.spans) - 1)
                    inputs = eng.setup(self.instance_seed(i), tr)
            finally:
                tr.remove()
            self.selftest_clean(T, df_cls)
            plain = self.call(inputs)
            d_plain = self.record(inputs, plain)
            layers.install(tr, df_cls)
            root = len(tr.spans)  # the call's own span comes first
            try:
                traced = self.call(inputs, tr)
            finally:
                tr.remove()
            self.selftest_clean(T, df_cls)
            d_traced = self.record(inputs, traced, first=False, timed=False)
            if plain is not None and traced is not None:
                roots.append(root)
                plain_s.append(plain[0])
                traced_s.append(traced[0])
                if d_plain != d_traced:
                    self.problems.append(f"seed {inputs.seed}: traced assignment differs")
                    self.mismatch = True
            i += 1
            if time.perf_counter() + 2 * statistics.median(plain_s or [0.0]) > deadline:
                break
            eng.release(inputs)
        self.cross_check()
        if not roots:
            return {k: float("nan") for k in layers.PER_LAYER}
        m, counts = layers.derive(tr.spans, roots, eng.job_stats)
        for kind in ("gd", "local"):
            samples, bisections = counts[f"{kind}_iter_samples"], counts[f"{kind}_bisections"]
            if samples != wl.n_iter * bisections:
                self.problems.append(
                    f"self-test: {samples} {kind} iteration samples for {bisections} bisections"
                )
                self.mismatch = True
        setup_kids = [j for j, s in enumerate(tr.spans) if s.parent in setups]
        gen = [tr.spans[j].dur for j in setup_kids if tr.spans[j].name == "generators.generate_edges"]
        load = [tr.spans[j].dur for j in setup_kids if tr.spans[j].name == "bench.load"]
        m["generators.generate_s"] = statistics.mean(gen)
        m["setup.load_s"] = statistics.mean(load) if load else 0.0
        m["trace.partition_s"] = statistics.median(traced_s)
        m["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        m["trace.bookkeeping_s"] = tr.bookkeeping_s / len(roots)
        return m

    def selftest_clean(self, T, df_cls) -> None:
        left = T.leftover_wrappers([df_cls])
        if left:
            self.problems.append(f"self-test: wrappers left installed: {left}")
            self.mismatch = True

    def summary(self) -> dict:
        """Counts and the timing distribution behind the medians."""
        out = {
            "calls": self.attempted,
            "graphs": len(self.best),
            "failed": self.failed,
            "eps_misses": self.eps_misses,
            "setup": self.setup_detail,
        }
        # Highest percentile of the per-graph times with ten samples beyond it.
        best = list(self.best.values())
        if len(best) >= 20:
            q = int(100 * (1 - 10 / len(best)))
            out[f"partition_s_p{q}"] = statistics.quantiles(best, n=100)[q - 1]
        return out


def environment(args, wl: Workload) -> dict:
    import numpy
    import pandas
    import pyspark

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": asdict(wl),
        "nproc": os.cpu_count(),
        "cores": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark.__version__,
        "spark_conf": spark_conf() if wl.engine == "spark" else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "core" / "gd.py").is_file():
        print(f"perfbench: no partitioner source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(STATE / "tmp")

    wl = WORKLOADS[args.workload]
    run = Run(wl, args.seed, args.seconds)
    try:
        if args.trace:
            import layers

            values = run.traced()
            units, shown = layers.PER_LAYER, layers.PER_LAYER
        else:
            values = run.untraced()
            units, shown = END_TO_END, {**END_TO_END, **REPORTED}
    finally:
        run.engine.close()
    run.ledger.save()

    print(json.dumps({"record": environment(args, wl), **run.summary()}))
    for problem in run.problems:
        print(f"perfbench: {problem.strip()}", file=sys.stderr)
    for name, unit in shown.items():
        print(f"{name:36s} {values[name]:14.6g} {unit}")
    correct = not run.mismatch and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
