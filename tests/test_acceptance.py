"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The synthetic-detection and scaling criteria train real models
and take a few minutes combined.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from tmgad import diffcore as dc
from tmgad import model as md
from tmgad import train as tr
from tmgad.backbone import GCNConfig, gcn_forward
from tmgad.motif import (FOCAL_ROOTED, UNROOTED, build_catalog, build_index,
                         canonical_type, enumerate_instances, spanning_sequences)
from tmgad.txgraph import make_splits, normalized_adjacency

from oracles import (brute_force_instances, orbit_count_focal_rooted,
                     orbit_count_unrooted, random_graph)
from test_diffcore import simplex_projection_bisect


def report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


ACCEPT_GCN = dict(layers=2, hidden_dim=16, out_dim=8, dropout=0.1)
ACCEPT_TRAIN = dict(learning_rate=1e-2, refresh_interval=5)


def test_criterion_1_motif_oracle_equivalence():
    catalog = build_catalog(FOCAL_ROOTED)
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for trial in range(100):
        g = random_graph(rng, max_nodes=12, max_edges=40, max_ts=60)
        for _ in range(5):
            delta = float(rng.uniform(1.0, 70.0))
            windows = {v: delta for v in range(g.n)}
            want = brute_force_instances(g, catalog, windows)
            for v in range(g.n):
                got = {(m.edges, m.type_id)
                       for m in enumerate_instances(g, v, delta, catalog)}
                assert got == want[v], f"trial {trial} node {v} delta {delta}"
                checked += len(got)
    elapsed = time.perf_counter() - start
    report(1, "motif oracle equivalence", elapsed < 60.0,
           f"100 graphs x 5 windows, {checked} instances matched, {elapsed:.1f}s")


def test_criterion_2_catalog_correctness():
    unrooted = build_catalog(UNROOTED)
    rooted = build_catalog(FOCAL_ROOTED)
    ok = unrooted.size == 32 == orbit_count_unrooted()
    ok = ok and rooted.size == 96 == orbit_count_focal_rooted()
    seqs = spanning_sequences()
    ok = ok and len(seqs) == 192
    for seq in seqs:
        hits = {canonical_type(seq, None, UNROOTED, unrooted)}
        assert len(hits) == 1
        for focal in range(3):
            canonical_type(seq, focal, FOCAL_ROOTED, rooted)
    report(2, "catalog correctness", ok,
           f"unrooted={unrooted.size} focal_rooted={rooted.size}, "
           "192 spanning sequences all map")


def test_criterion_3_gradient_correctness(fixture_graph):
    start = time.perf_counter()
    g = fixture_graph
    catalog = build_catalog(FOCAL_ROOTED)
    rng = np.random.default_rng(7)
    state = md.init_model(rng, g.num_features, GCNConfig(**{**ACCEPT_GCN, "dropout": 0.0}),
                          catalog.size)
    a_hat = normalized_adjacency(g)
    tau = float(g.tau_max)
    index = build_index(g, np.full(g.n, tau), catalog, nodes=np.arange(g.n), cap=None)
    y = g.labels.astype(float).reshape(-1, 1)
    params = state.parameters()
    opts = md.HeadOptions()

    def build():
        logits, _, _ = md.forward_nodes(g.features, a_hat, state, index,
                                        list(range(g.n)), opts, tau)
        return dc.bce_with_logits(logits, y)

    err = dc.finite_difference_check(build, params, rng=np.random.default_rng(1),
                                     max_per_tensor=6)
    # sparsemax unit gradients at stable-support points
    unit_rng = np.random.default_rng(5)
    unit_worst = 0.0
    checked = 0
    while checked < 10:
        z = unit_rng.normal(0, 1, size=(6, 1))
        support = dc.sparsemax_project(z[:, 0]) > 0
        stable = all((dc.sparsemax_project(z[:, 0] + s * 2e-5 * np.eye(6)[i]) > 0).tolist()
                     == support.tolist() for i in range(6) for s in (1, -1))
        if not stable:
            continue
        x = dc.parameter(z)
        probe = unit_rng.normal(0, 1, size=(6, 1))
        unit_err = dc.finite_difference_check(
            lambda: dc.mean_all(dc.mul_const(dc.sparsemax_vec(x), probe)), [x],
            rng=unit_rng)
        unit_worst = max(unit_worst, unit_err)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = err < 1e-4 and unit_worst < 1e-4 and elapsed < 120.0
    report(3, "gradient correctness", ok,
           f"full-model fd={err:.2e}, sparsemax fd={unit_worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_sparsemax_exactness():
    rng = np.random.default_rng(11)
    worst = 0.0
    worst_simplex = 0.0
    for _ in range(1000):
        z = rng.normal(0, rng.uniform(0.5, 4.0), size=rng.integers(2, 24))
        got = dc.sparsemax_project(z)
        want = simplex_projection_bisect(z)
        worst = max(worst, float(np.abs(got - want).max()))
        worst_simplex = max(worst_simplex,
                            abs(got.sum() - 1.0), float(max(0.0, -got.min())))
    ok = worst < 1e-9 and worst_simplex < 1e-12
    report(4, "sparsemax exactness", ok,
           f"max dev vs projection oracle {worst:.2e}, simplex dev {worst_simplex:.2e}")


def test_criterion_5_window_bounds_and_weight_monotonicity():
    g = tr.synth_burst_graph(150, 0.1, burst_len=10, seed=10)
    cfg = tr.TrainConfig(epochs=60, seed=0, ablation="full", **ACCEPT_TRAIN)
    _, rep = tr.train(g, cfg, GCNConfig(**ACCEPT_GCN))
    tau = float(g.tau_max)
    bounds_ok = len(rep.delta_stats) == cfg.epochs and all(
        0.0 < lo and hi < tau for lo, _, hi in rep.delta_stats)

    rng = np.random.default_rng(3)
    mono_ok = True
    for _ in range(10000):
        delta = rng.uniform(0.05, 60.0)
        gap = rng.uniform(0.0, 100.0)
        eps = rng.uniform(0.01, 10.0)
        w = md.instance_weight(delta, gap, 0.0)
        up = md.instance_weight(delta + eps, gap, 0.0)
        down = md.instance_weight(delta, gap + eps, 0.0)
        if not (up >= w >= down):
            mono_ok = False
            break
        resolvable = 1e-12 < w < 1 - 1e-12
        if resolvable and 1e-12 < up < 1 - 1e-12 and not up > w:
            mono_ok = False
            break
        if resolvable and 1e-12 < down < 1 - 1e-12 and not down < w:
            mono_ok = False
            break
    report(5, "window bounds + weight monotonicity", bounds_ok and mono_ok,
           f"delta in (0, tau) over {len(rep.delta_stats)} epochs; 10k triples monotone")


def _train_synthetic(ablation, seed, epochs=200, **extra):
    g = tr.synth_burst_graph(300, 0.1, burst_len=10, seed=42 + seed)
    split = make_splits(g, 1, 0.8, 7 + seed)[0]
    cfg = tr.TrainConfig(epochs=epochs, seed=seed, ablation=ablation,
                         **ACCEPT_TRAIN, **extra)
    start = time.perf_counter()
    _, rep = tr.train(g, cfg, GCNConfig(**ACCEPT_GCN), split)
    return rep, time.perf_counter() - start


def test_criterion_6_synthetic_detection():
    full_auc, full_prc, runtimes = [], [], []
    for seed in (0, 1, 2):
        rep, secs = _train_synthetic("full", seed)
        full_auc.append(rep.auc)
        full_prc.append(rep.auprc)
        runtimes.append(secs)
    gcn_auc = []
    for seed in (0, 1, 2):
        rep, _ = _train_synthetic("gcn_only", seed)
        gcn_auc.append(rep.auc)
    mean_auc = float(np.mean(full_auc))
    mean_prc = float(np.mean(full_prc))
    mean_gcn = float(np.mean(gcn_auc))
    ok = (mean_auc >= 0.95 and mean_prc >= 0.80 and mean_gcn < mean_auc
          and max(runtimes) < 300.0)
    report(6, "end-to-end synthetic detection", ok,
           f"full auc={mean_auc:.3f} auprc={mean_prc:.3f} vs gcn_only auc={mean_gcn:.3f}; "
           f"slowest run {max(runtimes):.0f}s")


def test_criterion_7_adaptive_vs_fixed():
    # fixed windows span an eighth of the horizon up to all of it, the same
    # small-to-full scope range the reference comparison uses
    seeds = (0, 1, 2)
    ada = [_train_synthetic("tm_ada", s, epochs=150)[0].auc for s in seeds]
    fixed = {}
    for s in seeds:
        g = tr.synth_burst_graph(300, 0.1, burst_len=10, seed=42 + s)
        tau = float(g.tau_max)
        for frac in (0.125, 0.25, 0.5, 1.0):
            rep, _ = _train_synthetic("tm_fixed", s, epochs=150,
                                      delta_fixed=frac * tau)
            fixed.setdefault(frac, []).append(rep.auc)
    mean_ada = float(np.mean(ada))
    mean_fixed = float(np.mean([v for vals in fixed.values() for v in vals]))
    per_frac = {f: round(float(np.mean(v)), 3) for f, v in fixed.items()}
    report(7, "adaptive >= fixed over delta grid", mean_ada >= mean_fixed,
           f"tm_ada auc={mean_ada:.3f} vs tm_fixed grid mean auc={mean_fixed:.3f} "
           f"(per fraction {per_frac})")


def test_criterion_8_bitcoin_alpha_informational():
    candidates = [
        os.environ.get("TMGAD_BITCOIN_ALPHA", ""),
        "data/bitcoin_alpha.csv",
        str(Path(__file__).resolve().parent.parent / "data" / "bitcoin_alpha.csv"),
    ]
    path = next((p for p in candidates if p and Path(p).exists()), None)
    if path is None:
        pytest.skip("Bitcoin Alpha dataset not present; see scripts/fetch_bitcoin_alpha.py"
                    " (criterion 8 is informational, not gating)")
    from tmgad.txgraph import load_edge_list, set_features_labels, build_graph
    g = load_edge_list(path)
    labels_path = Path(path).with_name("bitcoin_alpha_labels.csv")
    if not labels_path.exists():
        pytest.skip("Bitcoin Alpha labels not present")
    # timestamps rescaled to ~1000 ticks so recency weights stay resolvable
    span = max(1, (int(g.timestamp.max()) - int(g.timestamp.min())) // 1000)
    ts = (g.timestamp - g.timestamp.min()) // span
    g = build_graph(g.n, g.src, g.dst, ts, g.amount)
    labels = np.full(g.n, -1, dtype=np.int8)
    for line in labels_path.read_text().splitlines():
        v, y = line.split(",")
        labels[int(v)] = int(y)
    deg = np.zeros((g.n, 4))
    deg[:, 0] = np.log1p(np.bincount(g.src, minlength=g.n))
    deg[:, 1] = np.log1p(np.bincount(g.dst, minlength=g.n))
    deg[:, 2] = np.log1p(np.bincount(g.src, weights=np.nan_to_num(g.amount, nan=1.0),
                                     minlength=g.n))
    deg[:, 3] = 1.0
    g = set_features_labels(g, deg, labels)
    aucs, prcs = [], []
    for i, split in enumerate(make_splits(g, 3, 0.8, seed=0)):
        cfg = tr.TrainConfig(epochs=100, seed=i, ablation="full", **ACCEPT_TRAIN)
        _, rep = tr.train(g, cfg, GCNConfig(**ACCEPT_GCN), split)
        aucs.append(rep.auc)
        prcs.append(rep.auprc)
    auc, prc = float(np.mean(aucs)), float(np.mean(prcs))
    in_band = abs(auc - 0.762) <= 0.08 and abs(prc - 0.618) <= 0.08
    # informational: report divergence, never fail
    report(8, "bitcoin alpha informational", True,
           f"auc={auc:.3f} (target ~0.762) auprc={prc:.3f} (target ~0.618); "
           f"{'within' if in_band else 'OUTSIDE'} +-0.08 band — reported only")


def test_criterion_9_enumeration_scaling():
    catalog = build_catalog(FOCAL_ROOTED)
    sizes = [1000, 2000, 4000, 8000]
    best = []
    degs = []
    for n in sizes:
        g = tr.synth_burst_graph(n, 0.05, burst_len=10, seed=1)
        degs.append(2.0 * g.num_edges / g.n)
        windows = np.full(g.n, float(g.tau_max) / 8.0)
        times = []
        # builds take milliseconds: the best of many keeps host jitter out of the slope
        while len(times) < 7 or sum(times) < 0.5:
            t0 = time.perf_counter()
            build_index(g, windows, catalog, nodes=np.arange(g.n), cap=512)
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    slope = float(np.polyfit(np.log(sizes), np.log(best), 1)[0])
    ok = slope <= 1.3
    report(9, "enumeration scaling", ok,
           f"sizes {sizes} -> best times {[f'{t:.3f}s' for t in best]}, "
           f"mean degree {degs[0]:.1f}..{degs[-1]:.1f}, log-log slope {slope:.2f}")
