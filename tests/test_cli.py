"""End-to-end CLI behavior: configs, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tmgad import cli
from tmgad import model as md
from tmgad import motif
from tmgad import train as tr
from tmgad import txgraph as tg
from tmgad.motif import FOCAL_ROOTED, UNROOTED, build_catalog

from oracles import brute_force_instances, write_edge_csv, write_zip, zip_members


def write_config(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def small_dataset(tmp_path):
    """Edge/feature/label CSVs for a small planted graph."""
    g = tr.synth_burst_graph(40, 0.2, burst_len=8, seed=9, horizon=120)
    edges = tmp_path / "edges.csv"
    write_edge_csv(g, edges)
    feats = tmp_path / "features.csv"
    with open(feats, "w") as f:
        for row in g.features:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
    labels = tmp_path / "labels.csv"
    with open(labels, "w") as f:
        for v in range(g.n):
            f.write(f"{v},{g.labels[v]}\n")
    return g, edges, feats, labels


def hex_edges(g, path, header="from,to,ts,amount"):
    """Write g's edges with fixed-width hex id tokens, whose sorted order is id order."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for s, d, t, a in zip(g.src.tolist(), g.dst.tolist(), g.timestamp.tolist(),
                              g.amount.tolist()):
            f.write(f"0x{s:04x},0x{d:04x},{t},{a!r}\n")


DATA = {"edges": "edges.csv", "features": "features.csv", "labels": "labels.csv"}
SRC = Path(__file__).resolve().parent.parent / "src"


class TestConfig:
    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"nonsense": {}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"data": {"edgez": "x.csv"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == cli.EXIT_INPUT
        assert "edgez" in err["message"]
        assert err["context"] == "ingest"

    @pytest.mark.parametrize("section, key", [
        ("data", "format"), ("model", "window_hidden"), ("model", "clf_hidden"),
        ("model", "catalog_mode"),
        ("train", "optimizer"), ("train", "window_slack")])
    def test_removed_key_rejected_as_unknown(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, {section: {key: 1}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"unknown keys in section {section!r}: [{key!r}]"

    @pytest.mark.parametrize("section, key, value, expected", [
        ("train", "epochs", "5", "an integer"),
        ("train", "splits", "2", "an integer"),
        ("train", "train_fraction", "0.5", "a number"),
        ("train", "refresh_interval", 2.5, "an integer or null"),
        ("train", "seed", True, "an integer"),
        ("model", "dropout", None, "a number"),
        ("data", "edges", 3, "a string"),
        ("analysis", "delta_grid", [5, "10"], "a list of numbers"),
    ])
    def test_value_of_wrong_type_exits_2_naming_key(self, tmp_path, capsys,
                                                   section, key, value, expected):
        small_dataset(tmp_path)
        doc = {"data": dict(DATA), "output": {"directory": "out"}}
        doc.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{section}.{key} must be {expected}, got {json.dumps(value)}"

    @pytest.mark.parametrize("unit", [0, -2, 2.5, "x", 2**63])
    def test_time_unit_must_be_a_positive_integer(self, tmp_path, capsys, unit):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": dict(DATA, time_unit=unit),
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"].startswith("data.time_unit must be ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config_seed, flag, message", [
        (-1, [], "train.seed must be a non-negative integer, got -1"),
        (0, ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ])
    def test_negative_seed_exits_2_naming_key_or_flag(self, tmp_path, capsys,
                                                      config_seed, flag, message):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA, "train": {"epochs": 2, "seed": config_seed},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, *flag, "train"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "train", "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("refresh_interval", 0), ("instance_cap", 0),
                                            ("instance_cap", -1)])
    def test_train_counts_below_one_exit_2(self, tmp_path, capsys, key, value):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA, "train": {"epochs": 2, key: value},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"].startswith(f"{key} must be >= 1")

    @pytest.mark.parametrize("weight", [-3.0, 0.0])
    def test_pos_weight_at_most_zero_exits_2(self, tmp_path, capsys, weight):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA,
                                      "train": {"epochs": 2, "pos_weight": weight},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "train",
                       "message": "pos_weight must be a positive finite number, or None "
                                  f"for unweighted, got {weight}"}
        assert not (tmp_path / "out" / "checkpoint_0.bin").exists()

    @pytest.mark.parametrize("train, message", [
        ({"learning_rate": -0.5}, "learning_rate must be a positive finite number, got -0.5"),
        ({"ablation": "tm_fixed", "delta_fixed": -1.0},
         "delta_fixed must be a positive finite number, or None, got -1.0"),
        ({"ablation": "tm_fixed", "delta_fixed": 0.0},
         "delta_fixed must be a positive finite number, or None, got 0.0"),
    ])
    def test_rate_and_fixed_window_out_of_range_exit_2(self, tmp_path, capsys, train, message):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA, "train": dict(train, epochs=2),
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "train", "message": message}
        assert not (tmp_path / "out" / "checkpoint_0.bin").exists()

    @pytest.mark.parametrize("key", ["learning_rate", "delta_fixed"])
    @pytest.mark.parametrize("value, literal", [(float("nan"), "NaN"),
                                                (float("inf"), "Infinity"),
                                                (float("-inf"), "-Infinity")])
    def test_non_finite_json_literal_exits_2_naming_it(self, tmp_path, capsys,
                                                       key, value, literal):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA, "output": {"directory": "out"},
                                      "train": {"ablation": "tm_fixed", "delta_fixed": 20.0,
                                                "epochs": 2, key: value}})
        assert literal in open(cfg).read()  # json.dumps writes the literal
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "train",
                       "message": f"config is not valid JSON: {literal} is not a finite number"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--bogus"], "unrecognized arguments: --bogus"),
        (["train", "--output", "x"], "unrecognized arguments: --output x"),  # global flag
        (["eval"], "the following arguments are required: --checkpoint"),
    ])
    def test_usage_error_prints_usage_and_json(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, {})
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--config", cfg, *argv])
        assert exit_info.value.code == cli.EXIT_INPUT
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[0].startswith("usage: tmgad")
        assert json.loads(lines[-1]) == {"code": cli.EXIT_INPUT, "context": "arguments",
                                         "message": message}

    @pytest.mark.parametrize("argv", [["bench"], ["motifs", "--anchor-offset", "5"]])
    def test_removed_subcommand_and_flag_rejected(self, tmp_path, argv):
        cfg = write_config(tmp_path, {})
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--config", cfg, *argv])
        assert exit_info.value.code == cli.EXIT_INPUT

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.json"), "ingest"]) == cli.EXIT_INPUT

    def test_paths_resolve_relative_to_config(self, tmp_path):
        (tmp_path / "sub").mkdir()
        _, edges, feats, labels = small_dataset(tmp_path / "sub")
        cfg = write_config(tmp_path / "sub", {
            "data": {"edges": "edges.csv"},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        assert (tmp_path / "sub" / "out" / "graph.cache").exists()


class TestIngest:
    def test_valid_ingest_writes_cache_and_summary(self, tmp_path, capsys):
        g, edges, feats, labels = small_dataset(tmp_path)
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "output": {"directory": "out"},
        })
        out = tmp_path / "out"
        out.mkdir()
        (out / "id_map.json").write_text('{"0xa": 0}')  # from an earlier ingest of tokens
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        assert (out / "graph.cache").exists()
        assert not (out / "id_map.json").exists()  # integer ids are node ids: no map
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["nodes"] == g.n
        assert summary["edges"] == g.num_edges
        g2 = tg.load_cache(out / "graph.cache")
        np.testing.assert_array_equal(g2.labels, g.labels)

    def test_missing_labels_exit_2_names_path(self, tmp_path, capsys):
        _, edges, feats, labels = small_dataset(tmp_path)
        labels.unlink()
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert "labels.csv" in err["message"]

    def test_repeated_label_node_exits_2_naming_both_lines(self, tmp_path, capsys):
        _, _, _, labels = small_dataset(tmp_path)
        rows = labels.read_text().splitlines(keepends=True)
        labels.write_text("".join(rows + [rows[3]]))
        cfg = write_config(tmp_path, {"data": DATA, "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == (f"labels line {len(rows) + 1}: node 3 already given "
                                  "on line 4")
        assert not (tmp_path / "out" / "graph.cache").exists()

    @pytest.mark.parametrize("command", ["ingest", "train"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_exits_2_naming_row_and_column(self, tmp_path, capsys,
                                                              command, value):
        _, _, feats, _ = small_dataset(tmp_path)
        rows = [line.split(",") for line in feats.read_text().splitlines()]
        rows[5][1] = value
        feats.write_text("".join(",".join(r) + "\n" for r in rows))
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "train": {"epochs": 2},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, command]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == (f"feature at node row 5, column 1 is {value}; "
                                  "features must be finite")
        assert not (tmp_path / "out" / "graph.cache").exists()

    @pytest.mark.parametrize("fault", ["token", "ragged", "empty"])
    def test_malformed_features_exit_2_naming_file(self, tmp_path, capsys, fault):
        g, _, feats, _ = small_dataset(tmp_path)
        lines = feats.read_text().splitlines(keepends=True)
        if fault == "token":
            lines[2] = "a," + lines[2].split(",", 1)[1]
            want = f"features file {feats} line 3: field 1 'a' is not a number"
        elif fault == "ragged":
            lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
            want = (f"features file {feats} line 3: expected {g.num_features} columns, "
                    f"got {g.num_features - 1}")
        else:
            lines = []
            want = f"feature row count mismatch in {feats}: expected {g.n}, got 0"
        feats.write_text("".join(lines))
        cfg = write_config(tmp_path, {"data": DATA, "output": {"directory": "out"}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning must not escape
            assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "ingest", "message": want}

    def test_reingest_is_byte_identical(self, tmp_path):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        first = (tmp_path / "out" / "graph.cache").read_bytes()
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        assert (tmp_path / "out" / "graph.cache").read_bytes() == first


    def test_hex_ids_with_from_to_header(self, tmp_path):
        g, edges, *_ = small_dataset(tmp_path)
        hex_edges(g, edges)
        cfg = write_config(tmp_path, {"data": DATA, "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        out = tmp_path / "out"
        id_map = json.loads((out / "id_map.json").read_text())
        assert id_map == {f"0x{v:04x}": v for v in range(g.n)}
        g2 = tg.load_cache(out / "graph.cache")
        for name in ("src", "dst", "timestamp", "labels"):
            np.testing.assert_array_equal(getattr(g2, name), getattr(g, name))
        assert sorted(p.name for p in out.iterdir()) == \
            ["graph.cache", "id_map.json", "ingest_summary.json"]

    @pytest.mark.parametrize("ids", [("1", "2", "3"), ("0x1", "0x2", "0x3")])
    def test_five_columns_rejected_for_both_id_kinds(self, tmp_path, capsys, ids):
        a, b, c = ids
        (tmp_path / "edges.csv").write_text(
            f"src,dst,timestamp,amount\n{a},{b},5\n{b},{c},7,1.0,9\n")
        cfg = write_config(tmp_path, {"data": {"edges": "edges.csv"},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "line 3: expected 3 or 4 columns, got 5"

    @pytest.mark.parametrize("row, fault", [
        ("99999999999999999999,2,4", "src 99999999999999999999"),
        ("1,2,9223372036854775808", "timestamp 9223372036854775808"),
    ])
    def test_values_beyond_int64_exit_2(self, tmp_path, capsys, row, fault):
        (tmp_path / "edges.csv").write_text(f"src,dst,timestamp\n1,2,3\n{row}\n")
        cfg = write_config(tmp_path, {"data": {"edges": "edges.csv"},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "ingest",
                       "message": f"line 3: {fault} does not fit in a 64-bit integer"}

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_timestamp_exits_2_naming_line_and_field(self, tmp_path, capsys, token):
        (tmp_path / "edges.csv").write_text(f"src,dst,timestamp\n1,2,3\n1,2,{token}\n")
        cfg = write_config(tmp_path, {"data": {"edges": "edges.csv"},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "ingest",
                       "message": f"line 3: timestamp must be a finite integer, got {token!r}"}

    def test_error_lines_count_comments_and_blank_lines(self, tmp_path, capsys):
        (tmp_path / "edges.csv").write_text(
            "src,dst,timestamp\n# exported by a wallet\n\n0xa,0xb,1\n0xb,0xc,soon\n")
        cfg = write_config(tmp_path, {"data": {"edges": "edges.csv"},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "line 5: cannot parse timestamp from 'soon'"


class TestOneLoader:
    """ingest, train, motifs and eval turn one config into one graph."""

    def test_time_unit_gives_the_same_tau_in_ingest_and_train(self, tmp_path):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": dict(DATA, time_unit=10),
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        cached = tg.load_cache(tmp_path / "out" / "graph.cache")
        loaded = cli._load_graph(cli.load_config(cfg))
        assert loaded.tau_max == cached.tau_max
        np.testing.assert_array_equal(loaded.timestamp, cached.timestamp)

    def test_hex_edges_train_without_ingest(self, tmp_path):
        g, edges, *_ = small_dataset(tmp_path)
        hex_edges(g, edges)
        cfg = write_config(tmp_path, {
            "data": DATA,
            "train": {"epochs": 2, "learning_rate": 0.01, "splits": 1, "seed": 1},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_OK
        assert (tmp_path / "out" / "train_report.json").exists()

    def test_missing_edges_file_exit_2_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"data": {"edges": "nowhere.csv"},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"missing edges file: {tmp_path / 'nowhere.csv'}"


class TestCacheUse:
    """Commands use data.cache only when it was built from the config's CSVs."""

    @staticmethod
    def ingested(tmp_path, **data):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": dict(DATA, cache="out/graph.cache", **data),
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        return tmp_path / "out" / "graph.cache"

    @staticmethod
    def motifs_error(tmp_path, capsys, data) -> str:
        cfg = write_config(tmp_path, {"data": data, "output": {"directory": "out"}},
                           name="motifs.json")
        capsys.readouterr()
        assert cli.main(["--config", cfg, "motifs", "--delta-grid", "30"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == cli.EXIT_INPUT and err["context"] == "motifs"
        return err["message"]

    def test_unchanged_sources_use_the_cache(self, tmp_path, monkeypatch):
        self.ingested(tmp_path)
        monkeypatch.setattr(cli, "_read_dataset", None)  # any CSV read would fail
        cfg = write_config(tmp_path, {"data": dict(DATA, cache="out/graph.cache"),
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "motifs", "--delta-grid", "30"]) == cli.EXIT_OK

    def test_cache_only_config_trusts_the_cache(self, tmp_path):
        self.ingested(tmp_path)
        (tmp_path / "edges.csv").write_text("0,1,5\n1,2,7\n")
        cfg = write_config(tmp_path, {"data": {"cache": "out/graph.cache"},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "motifs", "--delta-grid", "30"]) == cli.EXIT_OK

    def test_changed_edges_exit_2_naming_the_file(self, tmp_path, capsys):
        cache = self.ingested(tmp_path)
        (tmp_path / "edges.csv").write_text("0,1,5\n1,2,7\n")
        message = self.motifs_error(tmp_path, capsys, dict(DATA, cache=str(cache)))
        assert message == (f"graph cache {cache} is stale: it was not built from the config's "
                           f"edges file {tmp_path / 'edges.csv'}; re-run `tmgad ingest`")

    @pytest.mark.parametrize("data, source", [
        ({"time_unit": 5}, "data.time_unit 5"),
        ({"labels": "labels2.csv"}, "labels file {}"),
        ({"features": None, "labels": None}, "features file (none)")])
    def test_other_sources_exit_2_naming_them(self, tmp_path, capsys, data, source):
        cache = self.ingested(tmp_path, time_unit=1)
        (tmp_path / "labels2.csv").write_text((tmp_path / "labels.csv").read_text() + "\n")
        config = {**DATA, "cache": str(cache), "time_unit": 1, **data}
        config = {k: v for k, v in config.items() if v is not None}
        message = self.motifs_error(tmp_path, capsys, config)
        source = source.format(tmp_path / "labels2.csv")
        assert message == (f"graph cache {cache} is stale: it was not built from the config's "
                           f"{source}; re-run `tmgad ingest`")

    def test_cache_without_provenance_is_stale(self, tmp_path, capsys):
        cache = self.ingested(tmp_path)
        tg.save_cache(tg.load_cache(cache), cache)
        message = self.motifs_error(tmp_path, capsys, dict(DATA, cache=str(cache)))
        assert message.startswith(f"graph cache {cache} is stale: it was not built from the "
                                  f"config's edges file")

    @pytest.mark.parametrize("fault", ["earlier format", "truncated", "endpoint beyond n",
                                       "negative amount", "node count beyond the file"])
    def test_damaged_cache_exits_2_naming_it(self, tmp_path, capsys, fault):
        cache = self.ingested(tmp_path)
        if fault == "earlier format":
            cache.write_bytes(b"TXGC\x01" + bytes(40))
            want = (f"graph cache {cache} was written by an earlier tmgad in a format this "
                    "one does not read; re-run `tmgad ingest`")
        elif fault == "truncated":
            cache.write_bytes(cache.read_bytes()[:-1])
            want = (f"cannot read graph cache {cache}: not a complete zip file: truncated, "
                    "extended or of another format")
        elif fault == "endpoint beyond n":
            arrays, meta = tg.load_arrays(cache, "graph cache")
            meta["n"] = 20  # the graph has 40 nodes
            arrays["t_earliest"] = arrays["t_earliest"][:20]
            tg.save_arrays(cache, arrays, meta)
            want = f"graph cache {cache}: edge endpoint out of range"
        elif fault == "negative amount":
            arrays, meta = tg.load_arrays(cache, "graph cache")
            arrays["amount"] = np.where(np.arange(arrays["amount"].size) == 1, -3.0,
                                        arrays["amount"])
            tg.save_arrays(cache, arrays, meta)
            want = f"graph cache {cache}: negative amount -3.0"
        else:  # would allocate petabytes if the count were trusted
            arrays, meta = tg.load_arrays(cache, "graph cache")
            meta["n"] = 10**15
            tg.save_arrays(cache, arrays, meta)
            want = (f"graph cache {cache}: node count 1000000000000000 does not fit "
                    "t_earliest (40,)")
        assert self.motifs_error(tmp_path, capsys, {"cache": str(cache)}) == want


class TestMotifs:
    def make_cfg(self, tmp_path, grid):
        small_dataset(tmp_path)
        return write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "analysis": {"delta_grid": grid},
            "output": {"directory": "out"},
        })

    def test_grid_produces_files(self, tmp_path):
        cfg = self.make_cfg(tmp_path, [5.0, 10.0, 20.0, 40.0])
        assert cli.main(["--config", cfg, "motifs"]) == cli.EXIT_OK
        out = tmp_path / "out"
        for i in range(4):
            assert (out / f"histogram_delta_{i}.csv").exists()
        assert (out / "anomaly_correlation.csv").exists()

    @pytest.mark.parametrize("cap", [None, 2])
    def test_files_equal_one_build_per_delta(self, tmp_path, cap):
        # one enumeration at the largest window, restricted per delta, writes the
        # bytes that one capped build per delta writes
        g, *_ = small_dataset(tmp_path)
        grid = [5.0, 30.0, 1e9, 2e9]  # the last two clamp to tau
        cfg = write_config(tmp_path, {"data": DATA, "analysis": {"delta_grid": grid},
                                      "train": {"instance_cap": cap},
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "motifs"]) == cli.EXIT_OK
        catalog, labeled = build_catalog(FOCAL_ROOTED), g.labeled_nodes()
        clamped = [min(d, float(g.tau_max)) for d in grid]
        indexes = {d: motif.build_index(g, np.full(g.n, d), catalog, nodes=labeled, cap=cap)
                   for d in clamped}
        if cap is not None:
            uncapped = motif.build_index(g, np.full(g.n, clamped[-1]), catalog, nodes=labeled,
                                         cap=None)
            assert indexes[clamped[-1]].total_instances() < uncapped.total_instances()
        table = motif.motif_histogram(indexes, g.labels)
        want = tmp_path / "want"
        want.mkdir()
        for i, d in enumerate(clamped):
            motif.write_histogram_csv({k: v for k, v in table.items() if k[0] == d}, [d],
                                      catalog.size, want / f"histogram_delta_{i}.csv")
        corr = motif.motif_cross_correlation(indexes[clamped[-1]],
                                             labeled[g.labels[labeled] == 1])
        motif.write_correlation_csv(corr, want / "anomaly_correlation.csv")
        assert len(list(want.iterdir())) == 5
        for path in want.iterdir():
            assert (tmp_path / "out" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_oversized_delta_clamped_with_warning(self, tmp_path, capsys):
        cfg = self.make_cfg(tmp_path, [1e9])
        assert cli.main(["--config", cfg, "motifs"]) == cli.EXIT_OK
        assert "clamping" in capsys.readouterr().err

    def test_empty_grid_rejected(self, tmp_path):
        cfg = self.make_cfg(tmp_path, [])
        assert cli.main(["--config", cfg, "motifs"]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
    def test_flag_value_not_positive_and_finite_exits_2_naming_flag(self, tmp_path, capsys,
                                                                   value):
        cfg = self.make_cfg(tmp_path, [5.0])
        assert cli.main(["--config", cfg, "motifs",
                         "--delta-grid", "10", value]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "motifs",
                       "message": "--delta-grid values must be positive and finite, "
                                  f"got {float(value)}"}
        assert not (tmp_path / "out" / "histogram_delta_0.csv").exists()

    @pytest.mark.parametrize("value", [0, -5, "1e999"])
    def test_config_value_not_positive_and_finite_exits_2_naming_key(self, tmp_path, capsys,
                                                                    value):
        cfg = self.make_cfg(tmp_path, [5.0, value])
        path = tmp_path / "run.json"
        path.write_text(path.read_text().replace('"1e999"', "1e999"))  # JSON reads it as inf
        assert cli.main(["--config", cfg, "motifs"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == ("analysis.delta_grid values must be positive and finite, "
                                  f"got {float(value)}")

    def test_histogram_counts_match_oracle(self, tmp_path):
        rng = np.random.default_rng(12)
        src = rng.integers(0, 8, 30)
        dst = rng.integers(0, 8, 30)
        keep = src != dst
        g = tg.build_graph(8, src[keep], dst[keep], rng.integers(0, 40, int(keep.sum())))
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.int8)
        g = tg.set_features_labels(g, rng.normal(size=(8, 2)), labels)
        write_edge_csv(g, tmp_path / "edges.csv")
        with open(tmp_path / "features.csv", "w") as f:
            for row in g.features:
                f.write(",".join(repr(float(x)) for x in row) + "\n")
        with open(tmp_path / "labels.csv", "w") as f:
            for v in range(8):
                f.write(f"{v},{labels[v]}\n")
        delta = 15.0
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "analysis": {"delta_grid": [delta]},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "motifs"]) == cli.EXIT_OK
        catalog = build_catalog(FOCAL_ROOTED)
        oracle = brute_force_instances(g, catalog, {v: delta for v in range(8)})
        want = {}
        for v, items in oracle.items():
            for _, tid in items:
                key = (tid, int(labels[v]))
                want[key] = want.get(key, 0) + 1
        got = {}
        for line in (tmp_path / "out" / "histogram_delta_0.csv").read_text().splitlines()[1:]:
            _, tid, cls, count = line.split(",")
            if int(count):
                got[(int(tid), int(cls))] = int(count)
        assert got == want


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("train_run")
    small_dataset(tmp_path)
    cfg = write_config(tmp_path, {
        "data": {"edges": "edges.csv", "features": "features.csv",
                 "labels": "labels.csv"},
        "model": {"layers": 2, "hidden_dim": 16, "out_dim": 8, "dropout": 0.0},
        "train": {"epochs": 8, "learning_rate": 0.01, "splits": 2,
                  "train_fraction": 0.7, "seed": 3},
        "output": {"directory": "out"},
    })
    code = cli.main(["--config", cfg, "train"])
    return code, tmp_path, cfg


class TestTrainEval:
    def test_train_writes_artifacts(self, trained):
        code, tmp_path, _ = trained
        assert code == cli.EXIT_OK
        out = tmp_path / "out"
        report = json.loads((out / "train_report.json").read_text())
        assert report["splits"] == 2
        assert set(report["mean"]) == {"auc", "auprc", "accuracy"}
        for i in range(2):
            tensors, arrays, meta = md.load_checkpoint(out / f"checkpoint_{i}.bin")
            assert sorted(arrays) == ["delta_final", "extraction_windows", "test_ids",
                                      "train_ids"]
            assert meta == {"split_index": i, "config": report["per_split"][i]["config"]}
            assert not (out / f"checkpoint_{i}.bin.json").exists()
            assert (out / f"loss_curve_{i}.csv").exists()
            assert (out / f"delta_by_class_{i}.csv").exists()

    def test_eval_on_train_split_matches_training_metrics(self, trained):
        code, tmp_path, cfg = trained
        out = tmp_path / "out"
        report = json.loads((out / "train_report.json").read_text())
        assert cli.main(["--config", cfg, "eval",
                         "--checkpoint", str(out / "checkpoint_0.bin"),
                         "--split", "train"]) == cli.EXIT_OK
        eval_doc = json.loads((out / "eval_report.json").read_text())
        want = report["per_split"][0]["train_auc"]
        assert eval_doc["auc"] == pytest.approx(want, abs=1e-12)

    def test_eval_missing_checkpoint(self, trained):
        code, tmp_path, cfg = trained
        assert cli.main(["--config", cfg, "eval",
                         "--checkpoint", str(tmp_path / "ghost.bin")]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("key", ["config", "extraction_windows", "test_ids"])
    def test_meta_without_another_read_key_exits_2(self, trained, tmp_path, capsys, key):
        self.check_meta_without(trained, tmp_path, capsys, key)

    @staticmethod
    def check_meta_without(trained, tmp_path, capsys, key):
        _, run_path, cfg = trained
        arrays, meta = tg.load_arrays(run_path / "out" / "checkpoint_0.bin", "checkpoint")
        del (meta if key in meta else arrays)[key]
        ckpt = tmp_path / "checkpoint.bin"
        tg.save_arrays(ckpt, arrays, meta)
        capsys.readouterr()
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "eval"), "eval",
                         "--checkpoint", str(ckpt)]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "eval",
                       "message": f"checkpoint {ckpt} lacks key {key!r}"}

    @pytest.mark.parametrize("fault", ["not JSON", "list root", "windows not numbers"])
    def test_damaged_meta_exits_2_naming_file(self, trained, tmp_path, capsys, fault):
        _, run_path, cfg = trained
        manifest, members = zip_members(run_path / "out" / "checkpoint_0.bin")
        if fault == "not JSON":
            manifest = "{'config': 1}"
            want = "manifest is not valid JSON"
        elif fault == "list root":
            manifest = [manifest]
            want = "manifest must be an object with the objects 'arrays' and 'meta'"
        else:
            manifest["arrays"]["extraction_windows"][0] = "<U2"
            want = "array 'extraction_windows' is listed as [\"<U2\", [40]]"
        ckpt = tmp_path / "checkpoint.bin"
        write_zip(ckpt, members, manifest)
        capsys.readouterr()
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "eval"), "eval",
                         "--checkpoint", str(ckpt)]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == cli.EXIT_INPUT and err["context"] == "eval"
        assert err["message"].startswith(f"cannot read checkpoint {ckpt}: {want}")

    def test_missing_meta_exits_2_with_json(self, trained, tmp_path, capsys):
        _, run_path, cfg = trained
        _, members = zip_members(run_path / "out" / "checkpoint_0.bin")
        ckpt = tmp_path / "checkpoint.bin"
        write_zip(ckpt, members)
        capsys.readouterr()
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "eval"), "eval",
                         "--checkpoint", str(ckpt)]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == (f"cannot read checkpoint {ckpt}: \"There is no item named "
                                  "'manifest.json' in the archive\"")

    def test_earlier_format_exits_2_naming_train(self, trained, tmp_path, capsys):
        _, _, cfg = trained
        ckpt = tmp_path / "checkpoint_0.bin"
        ckpt.write_bytes(b"TMGC\x01" + bytes(40))
        capsys.readouterr()
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "eval"), "eval",
                         "--checkpoint", str(ckpt)]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == (f"checkpoint {ckpt} was written by an earlier tmgad in a "
                                  "format this one does not read; re-run `tmgad train`")

    def test_eval_catalog_mismatch(self, trained, tmp_path, capsys):
        """A checkpoint whose motif tensors have another catalog's size is refused."""
        _, run_path, cfg = trained
        arrays, meta = tg.load_arrays(run_path / "out" / "checkpoint_0.bin", "checkpoint")
        size = build_catalog(UNROOTED).size
        for name in ("tensors/supernodes", "tensors/w_inter"):
            arrays[name] = np.zeros((size, arrays[name].shape[1]))
        ckpt = tmp_path / "checkpoint.bin"
        tg.save_arrays(ckpt, arrays, meta)
        capsys.readouterr()
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "eval"), "eval",
                         "--checkpoint", str(ckpt)]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == (f"cannot load checkpoint {ckpt}: checkpoint shape mismatch "
                                  f"for 'supernodes': ({size}, 8) vs "
                                  f"({build_catalog(FOCAL_ROOTED).size}, 8)")


def recorded(run_path, tmp_path, record):
    """A copy of the trained checkpoint 0 whose config record is `record(config)`."""
    arrays, meta = tg.load_arrays(run_path / "out" / "checkpoint_0.bin", "checkpoint")
    meta["config"] = record(meta["config"])
    ckpt = tmp_path / "recorded.bin"
    tg.save_arrays(ckpt, arrays, meta)
    return ckpt


class TestEvalMismatch:
    """A checkpoint that does not fit the graph, or whose tensors do not fit its
    record, exits 2 naming the checkpoint."""

    @staticmethod
    def eval_error(trained, tmp_path, capsys, data=None, ckpt=None, **record):
        _, run_path, _ = trained
        data = data or {k: str(run_path / v) for k, v in DATA.items()}
        cfg = write_config(tmp_path, {"data": data,
                                      "output": {"directory": str(tmp_path / "eval")}},
                           name="eval.json")
        ckpt = ckpt or run_path / "out" / "checkpoint_0.bin"
        if record:
            ckpt = recorded(run_path, tmp_path, lambda config: {**config, **record})
        capsys.readouterr()
        assert cli.main(["--config", cfg, "eval", "--checkpoint", str(ckpt)]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == cli.EXIT_INPUT and err["context"] == "eval"
        assert str(ckpt) in err["message"]
        return err["message"]

    @pytest.mark.parametrize("ablation, mismatch", [
        ("full", "holds 40 extraction windows"),      # windows are checked before ids
        ("gcn_only", "test ids are not node ids")])   # gcn_only reads no windows
    def test_smaller_graph(self, trained, tmp_path, capsys, ablation, mismatch):
        g = tr.synth_burst_graph(25, 0.2, burst_len=8, seed=9, horizon=120)
        write_edge_csv(g, tmp_path / "edges.csv")
        np.savetxt(tmp_path / "features.csv", g.features, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "labels.csv", np.column_stack([np.arange(g.n), g.labels]),
                   delimiter=",", fmt="%d")
        message = self.eval_error(trained, tmp_path, capsys, ablation=ablation,
                                  data={k: str(tmp_path / v) for k, v in DATA.items()})
        assert message.endswith(f"{mismatch} for the graph's 25 nodes")

    def test_fewer_feature_columns(self, trained, tmp_path, capsys):
        _, run_path, _ = trained
        feats = np.loadtxt(run_path / "features.csv", delimiter=",")
        np.savetxt(tmp_path / "features.csv", feats[:, :3], delimiter=",", fmt="%.17g")
        data = {k: str(run_path / v) for k, v in DATA.items()}
        data["features"] = str(tmp_path / "features.csv")
        message = self.eval_error(trained, tmp_path, capsys, data=data)
        assert message.endswith("checkpoint shape mismatch for 'gcn.0': (4, 16) vs (3, 16)")

    def test_other_hidden_width(self, trained, tmp_path, capsys):
        """The record's widths must be the tensors' widths."""
        message = self.eval_error(trained, tmp_path, capsys, hidden_dim=32)
        assert message.endswith("checkpoint shape mismatch for 'gcn.0': (4, 16) vs (4, 32)")

    def test_truncated_checkpoint(self, trained, tmp_path, capsys):
        _, run_path, _ = trained
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_path / "out" / "checkpoint_0.bin").read_bytes()[:-5])
        message = self.eval_error(trained, tmp_path, capsys, ckpt=ckpt)
        assert message.startswith(f"cannot read checkpoint {ckpt}: not a complete zip file")

    @pytest.mark.parametrize("fault", ["tensor listed twice", "unlisted tensor",
                                       "renamed tensor", "unknown dtype", "bad shape"])
    def test_damaged_checkpoint_exits_2(self, trained, tmp_path, capsys, fault):
        _, run_path, _ = trained
        manifest, members = zip_members(run_path / "out" / "checkpoint_0.bin")
        listed = manifest["arrays"]
        if fault == "tensor listed twice":
            manifest = json.dumps(manifest).replace(
                '"arrays": {', '"arrays": {"tensors/clf.b1": ["<f8", [1, 8]], ', 1)
            want = "cannot read checkpoint {}: manifest lists 'tensors/clf.b1' twice"
        elif fault == "unlisted tensor":
            del listed["tensors/clf.b1"]
            want = "cannot read checkpoint {}: members ["
        elif fault == "renamed tensor":
            listed["tensors/clf.bx"] = listed.pop("tensors/clf.b1")
            members["tensors/clf.bx"] = members.pop("tensors/clf.b1")
            want = ("cannot load checkpoint {}: checkpoint name mismatch: "
                    "missing=['clf.b1'] extra=['clf.bx']")
        elif fault == "unknown dtype":
            listed["tensors/clf.b1"][0] = "<f4"
            want = "cannot read checkpoint {}: array 'tensors/clf.b1' is listed as"
        else:
            listed["tensors/clf.b1"][1] = [2, -4]
            want = "cannot read checkpoint {}: array 'tensors/clf.b1' is listed as"
        ckpt = tmp_path / "checkpoint.bin"
        write_zip(ckpt, members, manifest)
        message = self.eval_error(trained, tmp_path, capsys, ckpt=ckpt)
        assert message.startswith(want.format(ckpt))


# model and train sections that differ from every trained run's in each key eval once read
OTHER_MODEL = {"layers": 3, "hidden_dim": 32, "out_dim": 4, "dropout": 0.5}


class TestRecordedModel:
    """Eval rebuilds the model its checkpoint records, whatever the config says."""

    @pytest.mark.parametrize("ablation", md.ABLATIONS)
    def test_eval_reproduces_training(self, tmp_path, capsys, ablation):
        small_dataset(tmp_path)
        train = {"epochs": 6, "learning_rate": 0.01, "splits": 1, "seed": 2,
                 "ablation": ablation, "instance_cap": 64}
        if ablation == "tm_fixed":
            train["delta_fixed"] = 20.0
        cfg = write_config(tmp_path, {"data": DATA, "train": train,
                                      "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "train_report.json").read_text())["per_split"][0]
        other = {"ablation": "tm_fixed" if ablation == "gcn_only" else "gcn_only",
                 "delta_fixed": 5.0, "instance_cap": 1}
        cfg = write_config(tmp_path, {"data": DATA, "model": OTHER_MODEL, "train": other,
                                      "output": {"directory": "eval"}}, name="eval.json")
        for split, key in (("test", "auc"), ("train", "train_auc")):
            assert cli.main(["--config", cfg, "eval", "--split", split, "--checkpoint",
                             str(tmp_path / "out" / "checkpoint_0.bin")]) == cli.EXIT_OK
            got = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
            assert got["auc"] == report[key]

    @pytest.mark.parametrize("fault, record, message", [
        ("not an object", lambda c: [c], "config section 'config' must be an object"),
        ("unknown key", lambda c: {**c, "catalog_mode": "unrooted"},
         "unknown keys in section 'config': ['catalog_mode']"),
        ("missing model field", lambda c: {k: v for k, v in c.items() if k != "layers"},
         "config lacks key 'layers'"),
        ("missing train field", lambda c: {k: v for k, v in c.items() if k != "instance_cap"},
         "config lacks key 'instance_cap'"),
        ("wrong type", lambda c: {**c, "hidden_dim": "16"},
         'config.hidden_dim must be an integer, got "16"'),
        ("bool for a number", lambda c: {**c, "learning_rate": True},
         "config.learning_rate must be a number, got true"),
        ("out of range", lambda c: {**c, "layers": 5}, "layers must be 2, 3 or 4, got 5"),
        ("out of range", lambda c: {**c, "instance_cap": 0}, "instance_cap must be >= 1"),
        ("unknown ablation", lambda c: {**c, "ablation": "gcn"}, "unknown ablation 'gcn'"),
    ])
    def test_invalid_record_exits_2_naming_checkpoint_and_key(self, trained, tmp_path, capsys,
                                                              fault, record, message):
        _, run_path, cfg = trained
        ckpt = recorded(run_path, tmp_path, record)
        capsys.readouterr()
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "eval"), "eval",
                         "--checkpoint", str(ckpt)]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == cli.EXIT_INPUT and err["context"] == "eval"
        assert err["message"].startswith(f"checkpoint {ckpt} records an invalid model: {message}")


class TestMoreSurfaces:
    def test_divergence_exits_1_with_json(self, tmp_path, capsys):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA, "train": {"learning_rate": 1e200,
                                                              "splits": 1},
                                      "output": {"directory": "out"}})
        with np.errstate(all="ignore"):
            assert cli.main(["--config", cfg, "train"]) == cli.EXIT_INTERNAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INTERNAL, "context": "train",
                       "message": "training diverged at epoch 1: non-finite output in op "
                                  "'matmul'"}

    def test_divergence_prints_only_the_json_line(self, tmp_path):
        """numpy's floating-point warnings stay off stderr; the guard names the op."""
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA, "train": {"learning_rate": 1e200,
                                                              "splits": 1},
                                      "output": {"directory": "out"}})
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-m", "tmgad.cli", "--config", cfg, "train"],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == cli.EXIT_INTERNAL
        (line,) = run.stderr.splitlines()
        assert json.loads(line) == {"code": cli.EXIT_INTERNAL, "context": "train",
                                    "message": "training diverged at epoch 1: non-finite "
                                               "output in op 'matmul'"}

    @pytest.mark.parametrize("command", [["train"], ["motifs", "--delta-grid", "5"]])
    def test_one_timestamp_exits_2_naming_the_span(self, tmp_path, capsys, command):
        small_dataset(tmp_path)
        rows = (tmp_path / "edges.csv").read_text().splitlines()
        (tmp_path / "edges.csv").write_text("\n".join(
            [rows[0]] + [",".join(r.split(",")[:2] + ["7"] + r.split(",")[3:])
                         for r in rows[1:]]) + "\n")
        cfg = write_config(tmp_path, {"data": DATA, "output": {"directory": "out"}})
        assert cli.main(["--config", cfg, *command]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": command[0],
                       "message": "every edge has timestamp 7, so the time span tau is 0; "
                                  "windows need a positive span"}

    def test_tm_fixed_ablation_via_config(self, tmp_path):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "model": {"layers": 2, "hidden_dim": 16, "out_dim": 8, "dropout": 0.0},
            "train": {"epochs": 4, "learning_rate": 0.01, "splits": 1,
                      "ablation": "tm_fixed", "delta_fixed": 20.0, "seed": 1},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "train_report.json").read_text())
        assert report["per_split"][0]["config"]["ablation"] == "tm_fixed"
        assert report["per_split"][0]["config"]["delta_fixed"] == 20.0

    def test_time_unit_rescales_horizon(self, tmp_path):
        g, *_ = small_dataset(tmp_path)
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "time_unit": 10},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_OK
        g2 = tg.load_cache(tmp_path / "out" / "graph.cache")
        want = (int(g.timestamp.max()) - int(g.timestamp.min())) // 10
        assert g2.tau_max == want

    def test_train_rerun_is_byte_identical(self, tmp_path):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {
            "data": {"edges": "edges.csv", "features": "features.csv",
                     "labels": "labels.csv"},
            "model": {"layers": 2, "hidden_dim": 16, "out_dim": 8, "dropout": 0.1},
            "train": {"epochs": 4, "learning_rate": 0.01, "splits": 1, "seed": 6},
            "output": {"directory": "out"},
        })
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_OK
        report = (tmp_path / "out" / "train_report.json").read_bytes()
        ckpt = (tmp_path / "out" / "checkpoint_0.bin").read_bytes()
        assert cli.main(["--config", cfg, "train"]) == cli.EXIT_OK
        assert (tmp_path / "out" / "train_report.json").read_bytes() == report
        assert (tmp_path / "out" / "checkpoint_0.bin").read_bytes() == ckpt


    def test_output_naming_a_file_exits_2_with_json(self, tmp_path, capsys):
        self.check_output_clash(tmp_path, capsys, "")

    def test_output_below_a_file_exits_2_with_json(self, tmp_path, capsys):
        self.check_output_clash(tmp_path, capsys, "sub/dir")

    @staticmethod
    def check_output_clash(tmp_path, capsys, below):
        small_dataset(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        output = taken / below if below else taken
        cfg = write_config(tmp_path, {"data": DATA})
        assert cli.main(["--config", cfg, "--output", str(output), "ingest"]) == cli.EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INPUT, "context": "ingest",
                       "message": f"output directory {output} cannot be created: "
                                  f"{taken} is not a directory"}
        assert taken.read_text() == "not a directory"

    def test_unexpected_exception_still_exits_1_with_json(self, tmp_path, capsys,
                                                          monkeypatch):
        small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"data": DATA, "output": {"directory": "out"}})

        def boom(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "_read_dataset", boom)
        assert cli.main(["--config", cfg, "ingest"]) == cli.EXIT_INTERNAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": cli.EXIT_INTERNAL, "context": "ingest",
                       "message": "KeyError: 'boom'"}



class TestTimeOrigin:
    def test_unix_nanosecond_timestamps_give_the_same_outputs(self, tmp_path):
        """The same CSVs at time origin 0 and 1.7e18 train and count motifs alike.

        At 1.7e18 the ingest sorts edges by its lexsort branch, and floats are
        256 apart, so a window end taken in float would move.
        """
        outputs = []
        for origin in (0, 17 * 10**17):
            run = tmp_path / str(origin)
            run.mkdir()
            g, *_ = small_dataset(run)
            write_edge_csv(tg.build_graph(g.n, g.src, g.dst, g.timestamp + origin, g.amount),
                           run / "edges.csv")
            cfg = write_config(run, {
                "data": DATA,
                "model": {"layers": 2, "hidden_dim": 16, "out_dim": 8, "dropout": 0.1},
                "train": {"epochs": 6, "learning_rate": 0.01, "splits": 1, "seed": 2},
                "analysis": {"delta_grid": [5.0, 25.0, 60.0]},
                "output": {"directory": "out"},
            })
            assert cli.main(["--config", cfg, "train"]) == cli.EXIT_OK
            assert cli.main(["--config", cfg, "motifs"]) == cli.EXIT_OK
            out = run / "out"
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name == "train_report.json" or p.name.startswith("histogram")})
        base, moved = outputs
        assert sorted(base) == ["histogram_delta_0.csv", "histogram_delta_1.csv",
                                "histogram_delta_2.csv", "train_report.json"]
        assert moved == base
        report = json.loads(base["train_report.json"])
        assert report["per_split"][0]["total_instances"] > 0
