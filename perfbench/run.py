"""tmgad benchmark: set-up, training, eval and motif-scan timings.

    python3 perfbench/run.py --workload train_full --seed 0 --seconds 30 --trace 0

Workloads are defined in workloads.py. One run generates the workload's CSV
inputs in a child process (untimed), sets the graph up from those files at
least SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS, then repeats the
workload's task (one ``train()`` call, or one whole motif scan) followed by
QUERY_REPEATS reads of its product (the ``tmgad eval`` path, or the scan's
histogram and correlation analysis) until ``--seconds`` have passed. Every task and read is an operation; it
fails if it raises or if an output check fails.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

    setup_s      median time from the CSV files to a graph ready for the task
    task_s       median task time: train_s on train workloads, scan_s on motif_scan
    peak_rss_mb  peak resident memory of the measuring process

The read time, test AUC/AUPRC and the failed-operation share are printed on
the lines before it.

With ``--trace 1`` untraced and traced tasks alternate; the traced ones run
with timing wrappers installed around the library's public functions, and
the last line holds the per-layer metrics (medians over traced tasks, per
task). The spans and a per-layer summary are written under
``.bench_build/perfbench/``.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import expit  # noqa: E402

import spans  # noqa: E402
from workloads import (EDGES_CSV, FEATURES_CSV, LABELS_CSV, ROOT, SRC,  # noqa: E402
                       WORKLOADS, seed_for)

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5   # cheap set-ups repeat more, for a steadier median
QUERY_REPEATS = 3
EPOCHS = 200
LEARNING_RATE = 1e-2
REFRESH_INTERVAL = 5
INSTANCE_CAP = 512
TRAIN_FRACTION = 0.8
SCAN_FRACTIONS = (1 / 8, 1 / 4, 1 / 2, 1.0)   # scan windows as shares of tau
OUT_DIR = ROOT / ".bench_build" / "perfbench"


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        doc = json.load(f)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description="tmgad benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One benchmark run: inputs, set-up graph, operation counts and samples."""

    def __init__(self, args, work: Path):
        from tmgad import backbone, diffcore, model, motif, train, txgraph

        self.tm = SimpleNamespace(backbone=backbone, diffcore=diffcore, model=model,
                                  motif=motif, train=train, txgraph=txgraph)
        self.name = args.workload
        self.w = WORKLOADS[args.workload]
        self.seed = args.seed
        self.work = work
        self.tracer = spans.Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)   # kind -> seconds
        self.traced_tasks: list[str] = []   # run ids of traced tasks that passed
        self.reports = []
        self.digests: set[str] = set()
        self.catalog = motif.build_catalog()

    # -- tracing -----------------------------------------------------------

    def _targets(self):
        tm, tr = self.tm, self.tracer
        backward_ops = lambda args: {"ops": len(args[0])}  # noqa: E731
        out = [(tm.txgraph, f, f"txgraph.{f}", None, None)
               for f in ("load_edge_list", "attach_features_labels", "save_cache",
                         "load_cache", "normalized_adjacency")]
        out += [(tm.train, "normalized_adjacency", "txgraph.normalized_adjacency", None, None)]
        out += [(mod, "build_index", "motif.build_index", None, tr.keep_index)
                for mod in (tm.motif, tm.train)]
        out += [(tm.motif, f, f"motif.{f}", None, None)
                for f in ("motif_histogram", "motif_cross_correlation")]
        out += [(mod, "forward_nodes", "model.forward_nodes", None, None)
                for mod in (tm.model, tm.train)]
        out += [(tm.train, "delta_snapshot", "model.delta_snapshot", None, None),
                (tm.model, "gcn_forward", "backbone.gcn_forward", None, None),
                (tm.diffcore.Tape, "backward", "diffcore.backward", backward_ops, None),
                (tm.train.Adam, "step", "train.adam_step", None, None)]
        out += [(tm.train, f, f"train.{f}", None, None)
                for f in ("auc", "auprc", "accuracy", "bce_loss")]
        return out

    def traced(self, run: str | None):
        """Install the wrappers and label spans with `run`; no-op when `run` is None."""
        if run is None:
            return nullcontext()
        self.tracer.run = run
        return spans.installed(self.tracer, self._targets())

    def span(self, name: str):
        if self.tracer is None or self.tracer.run is None:
            return nullcontext()
        return self.tracer.span(name)

    # -- operations --------------------------------------------------------

    def generate(self) -> None:
        subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                        "--workload", self.name, "--seed", str(self.seed),
                        "--out", str(self.work)], check=True, timeout=170)

    def setup(self):
        """CSV files -> cached graph -> normalized adjacency (and incidence cache)."""
        txgraph = self.tm.txgraph
        g = txgraph.load_edge_list(self.work / EDGES_CSV)
        g = txgraph.attach_features_labels(g, self.work / FEATURES_CSV,
                                           self.work / LABELS_CSV)
        txgraph.save_cache(g, self.work / "graph.cache")
        g = txgraph.load_cache(self.work / "graph.cache")
        a_hat = txgraph.normalized_adjacency(g)
        if self.w.ablation != "gcn_only":
            with self.span("txgraph.incidence"):
                g.incident_with_ts(0)
        return g, a_hat

    def operation(self, kind: str, fn, traced_run: str | None = None):
        """Run one timed operation; record its time, or its failure."""
        self.attempted += 1
        try:
            with self.traced(traced_run):
                with self.span(f"op.{kind}"):
                    t0 = time.perf_counter()
                    result = fn()
                    elapsed = time.perf_counter() - t0
            problems = self.check(kind, result)
        except Exception:  # a failed operation is counted, not fatal
            problems = [traceback.format_exc()]
        finally:
            if traced_run is not None:
                self.tracer.close_run()
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {kind} failed: {p}", file=sys.stderr)
            return None
        if traced_run is None:
            self.samples[kind].append(elapsed)
        else:
            self.samples[f"traced_{kind}"].append(elapsed)
            if kind == "task":
                self.traced_tasks.append(traced_run)
        return result

    def index_digest(self, index) -> str:
        path = self.work / "index.csv"
        self.tm.motif.write_index_csv(index, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    # train workloads

    def train_task(self):
        train = self.tm.train
        cfg = train.TrainConfig(epochs=EPOCHS, learning_rate=LEARNING_RATE,
                                refresh_interval=REFRESH_INTERVAL,
                                seed=seed_for(self.w.train_seed, self.seed),
                                ablation=self.w.ablation, instance_cap=INSTANCE_CAP)
        gcn = self.tm.backbone.GCNConfig(layers=2, hidden_dim=16, out_dim=8, dropout=0.1)
        return train.train(self.g, cfg, gcn, self.split)

    def score(self, state, report):
        """The `tmgad eval` path: rebuild the index at the extraction windows, score test ids."""
        model, motif, train = self.tm.model, self.tm.motif, self.tm.train
        opts = model.HeadOptions.from_ablation(self.w.ablation)
        index = None
        if opts.use_motifs:
            index = motif.build_index(self.g, report.extraction_windows, self.catalog,
                                      nodes=self.g.labeled_nodes(), cap=INSTANCE_CAP)
        ids = self.split.test_ids
        logits, _, _ = model.forward_nodes(self.g.features, self.a_hat, state, index, ids,
                                           opts, float(self.g.tau_max), training=False)
        return train.auc(expit(logits.data[:, 0]), self.g.labels[ids].astype(float)), index

    # motif_scan

    def scan_task(self):
        motif, g = self.tm.motif, self.g
        tau = float(g.tau_max)
        labeled = g.labeled_nodes()
        indexes = {}
        for share in SCAN_FRACTIONS:
            indexes[tau * share] = motif.build_index(g, np.full(g.n, tau * share), self.catalog,
                                                     nodes=labeled, cap=INSTANCE_CAP)
        return (indexes,) + self.analyse(indexes)

    def analyse(self, indexes):
        motif, g = self.tm.motif, self.g
        labeled = g.labeled_nodes()
        table = motif.motif_histogram(indexes, g.labels)
        corr = motif.motif_cross_correlation(indexes[max(indexes)],
                                             labeled[g.labels[labeled] == 1])
        return table, corr

    # -- output checks -------------------------------------------------------

    def check(self, kind: str, result) -> list[str]:
        problems = []
        if kind == "task" and self.w.kind == "train":
            report = result[1]
            for name in ("auc", "auprc"):
                v = getattr(report, name)
                if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                    problems.append(f"test {name} {v!r} not a finite value in [0, 1]")
            floor = self.w.min_auc
            if floor is not None and not report.auc >= floor:
                problems.append(f"test auc {report.auc:.4f} below {floor}")
        elif kind == "query" and self.w.kind == "train":
            (auc, index), report = result, self.reports[-1]
            if auc != report.auc:
                problems.append(f"eval auc {auc!r} differs from the train report's {report.auc!r}")
            if index is not None:
                self.digests.add(self.index_digest(index))
        elif kind == "task":
            indexes, table, corr = result
            totals = [indexes[d].total_instances() for d in sorted(indexes)]
            if any(b < a for a, b in zip(totals, totals[1:])):
                problems.append(f"instance totals decrease as delta grows: {totals}")
            for d, index in indexes.items():
                counted = sum(c for (dd, _, _), c in table.items() if dd == d)
                if counted != index.total_instances():
                    problems.append(f"histogram at delta {d} sums to {counted}, "
                                    f"index holds {index.total_instances()}")
            if not (np.array_equal(corr, corr.T) and np.all(np.diag(corr) == 1.0)):
                problems.append("correlation matrix not symmetric with a unit diagonal")
            self.digests.add(self.index_digest(indexes[max(indexes)]))
        elif kind == "query":
            table, corr = result
            if table != self.scan_table or not np.array_equal(corr, self.scan_corr):
                problems.append("re-run analysis differs from the scan's")
        if len(self.digests) > 1:
            problems.append(f"write_index_csv digests differ across operations: {sorted(self.digests)}")
        return problems

    # -- measurement loop ----------------------------------------------------

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        step = 0
        while True:
            self.round(step, traced=self.tracer is not None and step % 2 == 1)
            step += 1
            if time.perf_counter() - start >= seconds and (self.tracer is None or step >= 2):
                return

    def round(self, step: int, traced: bool) -> None:
        """One task and its reads; their results are dropped on return."""
        gc.collect()
        task = self.train_task if self.w.kind == "train" else self.scan_task
        out = self.operation("task", task, f"task-{step}" if traced else None)
        if out is None:
            return
        if self.w.kind == "train":
            state, report = out
            self.reports.append(report)
            query = lambda: self.score(state, report)  # noqa: E731
        else:
            indexes, self.scan_table, self.scan_corr = out
            query = lambda: self.analyse(indexes)  # noqa: E731
        for q in range(QUERY_REPEATS):
            self.operation("query", query, f"query-{step}-{q}" if traced else None)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def setup_metrics(tracer, runs, edges: int) -> dict:
    per = spans.per_run(tracer.spans)
    def self_s(run, *names):
        return sum(per[run].get(n, {}).get("self_s", 0.0) for n in names)
    return {
        "txgraph.parse_s": median([self_s(r, "txgraph.load_edge_list",
                                          "txgraph.attach_features_labels") for r in runs]),
        "txgraph.cache_roundtrip_s": median([self_s(r, "txgraph.save_cache",
                                                    "txgraph.load_cache") for r in runs]),
        "txgraph.adjacency_s": median([self_s(r, "txgraph.normalized_adjacency") for r in runs]),
        "txgraph.incidence_s": median([self_s(r, "txgraph.incidence") for r in runs]),
        "txgraph.edges": edges,
    }


def task_metrics(tracer, task_runs) -> dict:
    """Per-layer figures of each traced task, then the median over tasks."""
    per = spans.per_run(tracer.spans)
    rows = []
    for run in task_runs:
        r = per[run]
        def get(name, key="self_s"):
            return r.get(name, {}).get(key, 0.0)
        root = r["op.task"]
        bi_s = get("motif.build_index")
        ops = [s["ops"] for s in tracer.spans
               if s["run"] == run and s["name"] == "diffcore.backward"]
        rows.append({
            "motif.build_index_s": bi_s,
            "motif.build_index_calls": get("motif.build_index", "calls"),
            "motif.nodes_enumerated": get("motif.build_index", "nodes"),
            "motif.instances": get("motif.build_index", "instances"),
            "motif.instances_per_s": get("motif.build_index", "instances") / bi_s if bi_s else 0.0,
            "motif.refresh_changed_share": (get("motif.build_index", "changed")
                                            / get("motif.build_index", "reenumerated")
                                            if get("motif.build_index", "reenumerated") else 0.0),
            "motif.analysis_s": get("motif.motif_histogram") + get("motif.motif_cross_correlation"),
            "model.forward_self_s": get("model.forward_nodes"),
            "model.forward_calls": get("model.forward_nodes", "calls"),
            "model.delta_snapshot_s": get("model.delta_snapshot"),
            "backbone.gcn_forward_s": get("backbone.gcn_forward"),
            "backbone.gcn_forward_calls": get("backbone.gcn_forward", "calls"),
            "diffcore.tape_ops": sum(ops),
            "diffcore.tape_ops_first_epoch": ops[0] if ops else 0,
            "diffcore.tape_ops_last_epoch": ops[-1] if ops else 0,
            "diffcore.backward_s": get("diffcore.backward"),
            "train.adam_step_s": get("train.adam_step"),
            "train.metrics_s": sum(get(f"train.{f}") for f in
                                   ("auc", "auprc", "accuracy", "bce_loss")),
            "train.epochs": get("train.adam_step", "calls"),
            "trace.covered_share": 1.0 - root["self_s"] / root["total_s"],
            "trace.uncovered_s": root["self_s"],
        })
    return {k: median([row[k] for row in rows]) for k in rows[0]}


def trace_metrics(bench, setup_runs, env) -> dict:
    """Per-layer metrics of a traced run; also writes the span file and summary."""
    tracer = bench.tracer
    metrics = setup_metrics(tracer, setup_runs, bench.g.num_edges)
    if bench.traced_tasks:
        metrics.update(task_metrics(tracer, bench.traced_tasks))
    untraced, traced = median(bench.samples["task"]), median(bench.samples["traced_task"])
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced if untraced else 0.0
    metrics["trace.spans"] = len(tracer.spans)
    declared = declared_metrics()[1]
    if bench.traced_tasks and set(metrics) != set(declared):
        raise RuntimeError(f"per-layer metrics {sorted(set(metrics) ^ set(declared))} "
                           "are computed or declared, not both")
    metrics = {k: metrics.get(k, 0.0) for k in declared}   # no traced task passed
    stem = OUT_DIR / f"trace_{bench.name}_s{bench.seed}"
    tracer.write(stem.with_suffix(".spans.jsonl"))
    summary = {"workload": bench.name, "seed": bench.seed, "environment": env,
               "untraced_task_s": bench.samples["task"],
               "traced_task_s": bench.samples["traced_task"],
               "metrics": metrics, "runs": spans.per_run(tracer.spans)}
    with open(stem.with_suffix(".summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=1)
    print(f"spans: {stem.with_suffix('.spans.jsonl')}  summary: {stem.with_suffix('.summary.json')}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tmgad" / "__init__.py").is_file():
        print(f"perfbench: tmgad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args, work)
        bench.generate()
        setup_times, setup_runs = [], []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            run = f"setup-{len(setup_times)}" if args.trace else None
            with bench.traced(run):
                t0 = time.perf_counter()
                bench.g, bench.a_hat = bench.setup()
                setup_times.append(time.perf_counter() - t0)
            if run is not None:
                bench.tracer.close_run()
                setup_runs.append(run)
        if bench.w.kind == "train":
            bench.split = bench.tm.txgraph.make_splits(
                bench.g, 1, TRAIN_FRACTION, seed_for(bench.w.split_seed, args.seed))[0]
        bench.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} edges={bench.g.num_edges}")
    print("env " + json.dumps(env, sort_keys=True))
    end_to_end, per_layer = declared_metrics()
    if args.trace:
        metrics, units = trace_metrics(bench, setup_runs, env), per_layer
    else:
        metrics = {"setup_s": median(setup_times), "task_s": median(bench.samples["task"]),
                   "peak_rss_mb": peak_rss_mb}
        units = end_to_end
    task_name = "train_s" if bench.w.kind == "train" else "scan_s"
    query_name = "score_s" if bench.w.kind == "train" else "analysis_s"
    print(f"{task_name} = task_s = {median(bench.samples['task']):.6g} s "
          f"(median of {len(bench.samples['task'])} untraced tasks)")
    print("task samples s: " + " ".join(f"{t:.4f}" for t in bench.samples["task"]))
    print("setup samples s: " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"{query_name} = {median(bench.samples['query']):.6g} s "
          f"(median of {len(bench.samples['query'])} untraced reads; not gated)")
    print(f"setup_s over {len(setup_times)} set-ups")
    if bench.reports:
        print(f"test_auc = {median([r.auc for r in bench.reports]):.6f}  "
              f"test_auprc = {median([r.auprc for r in bench.reports]):.6f}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    failed, attempted = bench.failed, bench.attempted
    print(f"ops_failed_share = {failed / attempted:g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
