"""Command-line entry point: ingest, motifs, train, eval.

Runs are driven by a JSON config (sections: data, model, train, analysis,
output); flags override config values for sweeps. `eval` reads only the data
and output sections: it rebuilds the model its checkpoint records. All outputs
land under the output directory. Exit codes: 0 success, 1 internal error, 2
input or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import diffcore as dc
from . import model as model_mod
from . import motif as motif_mod
from . import train as train_mod
from . import txgraph
from .backbone import GCNConfig

EXIT_OK, EXIT_INTERNAL, EXIT_INPUT = 0, 1, 2


class ConfigError(Exception):
    pass


_NULL = type(None)

# section -> key -> accepted JSON type(s); float accepts integers too
_SCHEMA = {
    "data": {"edges": str, "features": str, "labels": str, "cache": str, "time_unit": int},
    "model": {"layers": int, "hidden_dim": int, "out_dim": int, "dropout": float},
    "train": {"epochs": int, "learning_rate": float, "refresh_interval": (int, _NULL),
              "seed": int, "ablation": str, "delta_fixed": (float, _NULL),
              "instance_cap": (int, _NULL), "pos_weight": (float, _NULL), "splits": int,
              "train_fraction": float},
    "analysis": {"delta_grid": list},
    "output": {"directory": str},
}

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list of numbers", _NULL: "null"}


def _is_a(value, kinds: tuple) -> bool:
    """isinstance, except that a bool is no number and an int is also a float."""
    return not isinstance(value, bool) and isinstance(value, kinds + (int,) * (float in kinds))


def _check_type(where: str, value, kinds) -> None:
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    ok = _is_a(value, kinds)
    if ok and isinstance(value, list):
        ok = all(_is_a(x, (float,)) for x in value)
    if not ok:
        expected = " or ".join(_TYPE_NAMES[k] for k in kinds)
        raise ConfigError(f"{where} must be {expected}, got {json.dumps(value)}")


def _check_section(section: str, body, schema: dict) -> None:
    """Reject a section that is not an object, keys `schema` lacks and values of another type."""
    if not isinstance(body, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    unknown = set(body) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")
    for key, value in body.items():
        _check_type(f"{section}.{key}", value, schema[key])


def _reject_constant(literal: str):
    """json's hook for NaN, Infinity and -Infinity, which are not JSON numbers."""
    raise ConfigError(f"config is not valid JSON: {literal} is not a finite number")


def load_config(path) -> dict:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for section, body in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        _check_section(section, body, _SCHEMA[section])
    for section in _SCHEMA:
        cfg.setdefault(section, {})
    if not 1 <= cfg["data"].get("time_unit", 1) < 2**63:  # timestamps are int64
        raise ConfigError(f"data.time_unit must be a positive integer below 2**63, "
                          f"got {cfg['data']['time_unit']}")
    if cfg["train"].get("seed", 0) < 0:
        raise ConfigError(f"train.seed must be a non-negative integer, got {cfg['train']['seed']}")
    base = path.parent
    for key in ("edges", "features", "labels", "cache"):
        if key in cfg["data"]:
            cfg["data"][key] = str((base / cfg["data"][key]).resolve())
    if "directory" in cfg["output"]:
        cfg["output"]["directory"] = str((base / cfg["output"]["directory"]).resolve())
    return cfg


def _out_dir(cfg, args) -> Path:
    d = args.output or cfg["output"].get("directory") or "tmgad_out"
    out = Path(d)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        clash = out
        while not (clash.exists() or clash.is_symlink()):
            clash = clash.parent
        raise ConfigError(f"output directory {out} cannot be created: "
                          f"{clash} is not a directory") from None
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _build(cls, body: dict):
    """The dataclass `cls` from the keys of `body` that name its fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in body.items() if k in names})


def _recorded_model(ckpt, record):
    """(GCNConfig, TrainConfig, HeadOptions) of the model a checkpoint records, checked
    as `load_config` and the dataclasses check a config; no field may be missing."""
    try:
        _check_section("config", record, {**_SCHEMA["model"], **_SCHEMA["train"]})
        missing = [f.name for cls in (GCNConfig, train_mod.TrainConfig)
                   for f in dataclasses.fields(cls) if f.name not in record]
        if missing:
            raise ConfigError(f"config lacks key {missing[0]!r}")
        gcn_cfg, tcfg = _build(GCNConfig, record), _build(train_mod.TrainConfig, record)
        opts = model_mod.HeadOptions.from_ablation(tcfg.ablation, tcfg.delta_fixed)
    except (ConfigError, ValueError) as e:
        raise txgraph.ValidationError(f"checkpoint {ckpt} records an invalid model: {e}") from None
    return gcn_cfg, tcfg, opts


def _source_files(data) -> dict:
    """The CSV files the data section names, by key; each must exist."""
    files = {k: data[k] for k in ("edges", "features", "labels") if k in data}
    for key, path in files.items():
        if not Path(path).exists():
            raise txgraph.ValidationError(f"missing {key} file: {path}")
    return files


def _provenance(data) -> dict:
    """What a cache records of its sources: each CSV's sha256, and time_unit."""
    return {"time_unit": data.get("time_unit"),
            **{k: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for k, p in _source_files(data).items()}}


def _read_dataset(cfg) -> tuple[txgraph.TransactionGraph, dict | None]:
    """The graph the config's CSVs describe, and its id token map (None when
    the edge file's ids are integers): edges, id compaction, time_unit, then
    features and labels."""
    data = cfg["data"]
    if "edges" not in data:
        raise ConfigError("data section needs 'edges' (or, outside ingest, an existing 'cache')")
    if ("features" in data) != ("labels" in data):
        raise ConfigError("features and labels must be provided together")
    _source_files(data)
    g, id_map = txgraph.read_edge_list(data["edges"], compact=True)
    unit = data.get("time_unit")
    if unit is not None:
        # rescale dataset-native time so the model sees a desk-scale horizon
        ts = (g.timestamp - (g.timestamp.min() if g.num_edges else 0)) // unit
        g = txgraph.build_graph(g.n, g.src, g.dst, ts, g.amount)
    if "features" in data:
        g = txgraph.attach_features_labels(g, data["features"], data["labels"])
    return g, id_map


def _load_graph(cfg) -> txgraph.TransactionGraph:
    """The config's cache when it exists and was built from the CSVs the config
    names, if any; else the graph those CSVs describe."""
    data, cache = cfg["data"], cfg["data"].get("cache")
    if not (cache and Path(cache).exists()):
        return _read_dataset(cfg)[0]
    g, built = txgraph.read_cache(cache)
    now, built = _provenance(data), built if isinstance(built, dict) else {}
    stale = sorted(k for k in now.keys() | built.keys() if built.get(k) != now.get(k))
    if stale and _source_files(data):  # a config that names no CSVs trusts its cache
        source = (f"data.time_unit {now['time_unit']}" if stale[0] == "time_unit"
                  else f"{stale[0]} file {data.get(stale[0], '(none)')}")
        raise txgraph.ValidationError(f"graph cache {cache} is stale: it was not built from "
                                      f"the config's {source}; re-run `tmgad ingest`")
    return g


def _time_span(g: txgraph.TransactionGraph) -> float:
    """The graph's time span tau, which windows need to be positive."""
    if g.tau_max is None:
        raise txgraph.ValidationError("graph has no edges")
    if g.tau_max == 0:
        raise txgraph.ValidationError(f"every edge has timestamp {g.timestamp[0]}, so the "
                                      f"time span tau is 0; windows need a positive span")
    return float(g.tau_max)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(cfg, args) -> int:
    out = _out_dir(cfg, args)
    g, id_map = _read_dataset(cfg)
    cache_path = out / "graph.cache"
    txgraph.save_cache(g, cache_path, _provenance(cfg["data"]))
    if id_map is not None:  # integer ids are node ids and need no map
        txgraph.save_id_map(id_map, out / "id_map.json")
    else:  # a map left by an earlier ingest of token ids does not describe this cache
        (out / "id_map.json").unlink(missing_ok=True)
    summary = txgraph.graph_summary(g)
    _write_json(out / "ingest_summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    print(f"cache written to {cache_path}")
    return EXIT_OK


def cmd_motifs(cfg, args) -> int:
    out = _out_dir(cfg, args)
    g = _load_graph(cfg)
    if g.labels is None:
        raise txgraph.ValidationError("motif analysis needs labels")
    tau = _time_span(g)
    grid = args.delta_grid or cfg["analysis"].get("delta_grid")
    if not grid:
        raise ConfigError("empty delta grid: set analysis.delta_grid or --delta-grid")
    grid = [float(d) for d in grid]
    bad = [d for d in grid if not 0 < d < math.inf]
    if bad:
        where = "--delta-grid" if args.delta_grid else "analysis.delta_grid"
        raise ConfigError(f"{where} values must be positive and finite, got {bad[0]}")
    for d in grid:
        if d > tau:
            print(f"warning: delta {d} exceeds tau_max {tau}; clamping", file=sys.stderr)
    clamped = [min(d, tau) for d in grid]
    tcfg = _build(train_mod.TrainConfig, cfg["train"])
    catalog = motif_mod.build_catalog()
    labeled = g.labeled_nodes()
    # one capped enumeration at the largest window, restricted by mask, gives each
    # smaller window's capped index
    enumerated = motif_mod.build_index(g, np.full(g.n, max(clamped)), catalog, nodes=labeled,
                                       cap=tcfg.instance_cap)
    indexes = {}
    for d in clamped:
        indexes[d] = enumerated.restrict(np.full(g.n, d))
        print(f"delta={d}: {indexes[d].total_instances()} instances")
    table = motif_mod.motif_histogram(indexes, g.labels)
    for i, d in enumerate(clamped):
        sub = {k: v for k, v in table.items() if k[0] == d}
        motif_mod.write_histogram_csv(sub, [d], catalog.size, out / f"histogram_delta_{i}.csv")
    anomalies = labeled[g.labels[labeled] == 1]
    corr = motif_mod.motif_cross_correlation(indexes[clamped[-1]], anomalies)
    motif_mod.write_correlation_csv(corr, out / "anomaly_correlation.csv")
    print(f"wrote {len(clamped)} histogram files and anomaly_correlation.csv to {out}")
    return EXIT_OK


def cmd_train(cfg, args) -> int:
    out = _out_dir(cfg, args)
    g = _load_graph(cfg)
    _time_span(g)
    gcn_cfg = _build(GCNConfig, cfg["model"])
    base = _build(train_mod.TrainConfig, cfg["train"])
    seed = args.seed if args.seed is not None else base.seed
    splits = txgraph.make_splits(g, cfg["train"].get("splits", 3),
                                 cfg["train"].get("train_fraction", 0.8), seed)
    per_split = []
    for i, split in enumerate(splits):
        tcfg = dataclasses.replace(base, seed=seed + i)
        state, report = train_mod.train(g, tcfg, gcn_cfg, split)
        arrays = {"train_ids": split.train_ids, "test_ids": split.test_ids}
        for key in ("extraction_windows", "delta_final"):
            value = getattr(report, key)
            arrays[key] = np.empty(0) if value is None else value
        model_mod.save_checkpoint(out / f"checkpoint_{i}.bin", state, arrays,
                                  {"split_index": i, "config": report.config})
        with open(out / f"loss_curve_{i}.csv", "w", encoding="utf-8") as f:
            f.write("epoch,loss,delta_min,delta_mean,delta_max\n")
            for e, loss in enumerate(report.loss_curve):
                if e < len(report.delta_stats):
                    stats = ",".join(repr(x) for x in report.delta_stats[e])
                else:
                    stats = ",,"
                f.write(f"{e},{loss!r},{stats}\n")
        if report.delta_final is not None:
            with open(out / f"delta_by_class_{i}.csv", "w", encoding="utf-8") as f:
                f.write("node,label,delta\n")
                for v in g.labeled_nodes():
                    f.write(f"{v},{g.labels[v]},{report.delta_final[v]!r}\n")
        per_split.append(report)
        print(f"split {i}: auc={report.auc:.4f} auprc={report.auprc:.4f} "
              f"accuracy={report.accuracy:.4f}")
    mean = {k: float(np.mean([getattr(r, k) for r in per_split]))
            for k in ("auc", "auprc", "accuracy")}
    _write_json(out / "train_report.json", {
        "mean": mean,
        "per_split": [r.to_dict() for r in per_split],
        "splits": len(splits),
        "seed": seed,
    })
    print(f"mean over {len(splits)} splits: auc={mean['auc']:.4f} "
          f"auprc={mean['auprc']:.4f}")
    return EXIT_OK


def cmd_eval(cfg, args) -> int:
    out = _out_dir(cfg, args)
    g = _load_graph(cfg)
    tau = _time_span(g)
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise txgraph.ValidationError(f"missing checkpoint: {ckpt}")
    tensors, arrays, meta = model_mod.load_checkpoint(ckpt)
    missing = ([k for k in ("config",) if k not in meta]
               + [k for k in ("extraction_windows", "train_ids", "test_ids") if k not in arrays])
    if missing:
        raise txgraph.ValidationError(f"checkpoint {ckpt} lacks key {missing[0]!r}")
    gcn_cfg, tcfg, opts = _recorded_model(ckpt, meta["config"])
    catalog = motif_mod.build_catalog()
    state = model_mod.init_model(np.random.default_rng(0), g.num_features, gcn_cfg, catalog.size)
    try:
        dc.restore_tensors(state.named(), tensors)
    except dc.DiffError as e:
        raise txgraph.ValidationError(f"cannot load checkpoint {ckpt}: {e}") from e
    a_hat = txgraph.normalized_adjacency(g)
    index = None
    if opts.use_motifs:
        windows = np.asarray(arrays["extraction_windows"], dtype=np.float64)
        if windows.shape != (g.n,):
            raise txgraph.ValidationError(f"checkpoint {ckpt} holds {windows.size} "
                                          f"extraction windows for the graph's {g.n} nodes")
        index = motif_mod.build_index(g, windows, catalog, nodes=g.labeled_nodes(),
                                      cap=tcfg.instance_cap)
    which = args.split or "test"
    ids = arrays["test_ids" if which == "test" else "train_ids"]
    if not (ids.ndim == 1 and np.issubdtype(ids.dtype, np.integer)
            and np.all((ids >= 0) & (ids < g.n))):
        raise txgraph.ValidationError(
            f"checkpoint {ckpt} {which} ids are not node ids for the graph's {g.n} nodes")
    logits, _, _ = model_mod.forward_nodes(
        g.features, a_hat, state, index, ids, opts, tau, training=False)
    scores = expit(logits.data[:, 0])
    y = g.labels[ids].astype(float)
    doc = {
        "split": which,
        "auc": train_mod.auc(scores, y),
        "auprc": train_mod.auprc(scores, y),
        "accuracy": train_mod.accuracy(scores, y),
        "checkpoint": str(ckpt),
    }
    _write_json(out / "eval_report.json", doc)
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _error_json(code: int, message: str, context: str) -> None:
    print(json.dumps({"code": code, "message": message, "context": context},
                     sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors also print the JSON error line.

    Subcommand parsers are made with the class of their parent, so they
    report the same way.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        _error_json(EXIT_INPUT, message, "arguments")
        self.exit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tmgad", description="temporal-motif transaction-graph anomaly detection")
    p.add_argument("--config", required=True, help="path to the run's JSON config")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--output", default=None, help="override output.directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", help="validate raw CSVs and write the graph cache")
    pm = sub.add_parser("motifs", help="motif histograms and anomaly correlation")
    pm.add_argument("--delta-grid", type=float, nargs="+", default=None)
    sub.add_parser("train", help="train over k stratified splits and report means")
    pe = sub.add_parser("eval", help="re-score a checkpoint on a named split")
    pe.add_argument("--checkpoint", required=True)
    pe.add_argument("--split", choices=["train", "test"], default="test")
    return p


_COMMANDS = {
    "ingest": cmd_ingest,
    "motifs": cmd_motifs,
    "train": cmd_train,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        cfg = load_config(args.config)
        # stderr carries only the JSON error line; the tape's guard names a non-finite op
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](cfg, args)
    except (ConfigError, txgraph.GraphError, motif_mod.MotifError,
            train_mod.MetricsError, ValueError) as e:
        _error_json(EXIT_INPUT, str(e), args.command)
        return EXIT_INPUT
    except (dc.DiffError, train_mod.TrainError) as e:
        _error_json(EXIT_INTERNAL, str(e), args.command)
        return EXIT_INTERNAL
    except Exception as e:  # anything else is a defect: report it as one JSON line
        _error_json(EXIT_INTERNAL, f"{type(e).__name__}: {e}", args.command)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
