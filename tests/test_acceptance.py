"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (visible under `pytest -s`) and
then asserts, so a red run names exactly which guarantees broke.  The
checks pin analytic identities, cross-route agreement at stated
tolerances, statistical tolerances for the simulators, a directional
quality ordering on synthetic farms, byte determinism of outputs, and a
scaling smoke test.  Tolerances here are contractual; do not widen them
to make a run pass.
"""

import json
import math
import time

import numpy as np
import pytest

from spectral_imputer.cli import main
from spectral_imputer.estimators import (
    EstimatorConfig,
    Panel,
    impute_naive,
    impute_sampling,
    impute_weighted_graph,
    run_estimator,
)
from spectral_imputer.evaluation import (
    MissingnessSpec,
    apply_missingness,
    complexity_smoke,
    leave_one_out_eval,
    synth_panel,
)
from spectral_imputer.graph import adjacency, build_graph, components, propose_grid_edges
from spectral_imputer.kernels import KERNEL_NAMES, WeightVector
from spectral_imputer.online import track_sequence
from spectral_imputer.spectral import solve_generalized

from conftest import grid_layout, make_layout, random_connected_graph
from oracles import oracle_impute_cell


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num:02d} ({name}): {detail}"


def _random_panel(rng, n, t, missing_rate):
    values = rng.uniform(0.05, 0.95, size=(t, n))
    values[rng.random((t, n)) < missing_rate] = np.nan
    return Panel.from_values([str(float(k)) for k in range(t)], [f"s{k:02d}" for k in range(n)], values)


def test_c01_path_graph_eigen_oracle():
    L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    D = np.array([1.0, 2.0, 1.0])
    start = time.perf_counter()
    solution = solve_generalized(L, D)
    elapsed = time.perf_counter() - start
    value_err = float(np.abs(solution.eigenvalues - np.array([0.0, 1.0, 2.0])).max())
    u = solution.vectors[:, 1]
    u = u / np.linalg.norm(u)
    target = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    angle = float(np.linalg.norm(u - np.dot(u, target) * target))
    ok = value_err <= 1e-9 and angle <= 1e-8 and elapsed < 1.0
    _verdict(
        1, "path-graph eigen oracle", ok,
        f"eigenvalue err {value_err:.2e}, angle {angle:.2e}, {elapsed * 1e3:.1f} ms",
    )


def test_c02_zero_eigenvalue_multiplicity_counts_components():
    rng = np.random.default_rng(42)
    agree = 0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(2, 21))
        max_parts = max(1, n // 2)
        parts = int(rng.integers(1, min(4, max_parts) + 1))
        order = rng.permutation(n)
        cuts = sorted(rng.choice(np.arange(1, max_parts), size=parts - 1, replace=False) * 2) if parts > 1 else []
        groups = np.split(order, cuts)
        pairs = []
        for group in groups:
            for k in range(1, len(group)):
                a = group[k]
                b = group[int(rng.integers(0, k))]
                pairs.append((int(a), int(b)))
            for _ in range(int(rng.integers(0, len(group)))):
                a, b = group[rng.integers(0, len(group), size=2)]
                if a != b:
                    pairs.append((int(a), int(b)))
        layout = make_layout(rng.uniform(0, 10, size=(n, 2)))
        ids = layout.ids
        graph = build_graph(layout, [(ids[a], ids[b]) for a, b in pairs])
        graph = graph.with_weights(rng.uniform(0.1, 1.0, len(graph.edges)))
        a_mat = adjacency(graph)
        deg = a_mat.sum(axis=1)
        solution = solve_generalized(np.diag(deg) - a_mat, deg)
        multiplicity = int((np.abs(solution.eigenvalues) <= 1e-9).sum())
        if multiplicity == components(graph).count:
            agree += 1
    ok = agree == trials
    _verdict(
        2, "zero-eigenvalue multiplicity vs component labels", ok,
        f"{agree}/{trials} graphs agree",
    )


def test_c03_naive_kernel_reduces_to_plain_mean():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        t = int(rng.integers(1, 51))
        panel = _random_panel(rng, n, t, 0.25)
        layout = make_layout(rng.uniform(0, 5, size=(n, 2)))
        graph = random_connected_graph(rng, layout, extra_edges=int(rng.integers(0, n)))
        mean_fill = impute_naive(panel).filled
        for method, kwargs in (
            ("location", {"layout": layout}),
            ("unweighted_graph", {"graph": graph}),
        ):
            config = EstimatorConfig(method=method, kernel="naive")
            filled = run_estimator(panel, config, **kwargs).filled
            assert np.array_equal(np.isnan(filled), np.isnan(mean_fill))
            both = ~np.isnan(filled)
            if both.any():
                worst = max(worst, float(np.abs(filled[both] - mean_fill[both]).max()))
    ok = worst <= 1e-12
    _verdict(3, "naive kernel equals plain mean", ok, f"max |diff| {worst:.2e}")


def test_c04_half_rate_tracking_is_persistence():
    rng = np.random.default_rng(11)
    t_len, lanes = 200, 1000
    sims = rng.uniform(0.0, 1.0, size=(t_len, lanes))
    sims[rng.random((t_len, lanes)) < 0.45] = np.nan
    guesses, _ = track_sequence(sims, 0.5)
    carry = np.ones(lanes)
    exact = True
    for t in range(t_len):
        if not np.array_equal(guesses[t], carry):
            exact = False
            break
        revealed = ~np.isnan(sims[t])
        carry = np.where(revealed, sims[t], carry)
    _verdict(
        4, "rate-0.5 tracking equals last-revealed persistence", exact,
        f"{lanes} gappy sequences, {t_len} rounds, exact equality",
    )


def test_c05_tuned_rate_meets_regret_bound():
    rng = np.random.default_rng(13)
    lanes, t_max = 1000, 10_000
    start = time.perf_counter()
    lengths = rng.integers(10, t_max + 1, size=lanes)
    sims = rng.uniform(0.0, 1.0, size=(t_max, lanes))
    sims[rng.random((t_max, lanes)) < 0.3] = np.nan
    sims[np.arange(t_max)[:, None] >= lengths[None, :]] = np.nan
    sims[0] = rng.uniform(0.0, 1.0, size=lanes)
    revealed = ~np.isnan(sims)
    counts = revealed.sum(axis=0)
    eta = 1.0 / (2.0 * np.sqrt(counts))
    _, losses = track_sequence(sims, eta)
    paid = losses.sum(axis=0)
    sums = np.where(revealed, sims, 0.0).sum(axis=0)
    squares = np.where(revealed, sims, 0.0)
    best = (squares**2).sum(axis=0) - sums**2 / counts
    regrets = paid - best
    bounds = 1.5 * np.sqrt(counts)
    elapsed = time.perf_counter() - start
    ok = bool((regrets <= bounds).all()) and elapsed < 10.0
    _verdict(
        5, "tuned-rate regret bound", ok,
        f"max regret/bound {float((regrets / bounds).max()):.3f}, {elapsed:.2f} s",
    )


def test_c06_mcar_complete_row_arithmetic():
    details = []
    ok = True
    for k, n in enumerate((11, 174)):
        t_len = 100_000
        panel = Panel.from_values(
            [str(t) for t in range(t_len)],
            [f"s{j:03d}" for j in range(n)],
            np.full((t_len, n), 0.5),
        )
        masked = apply_missingness(panel, MissingnessSpec("mcar", 0.01, seed=60 + k))
        frac = float(masked.complete_rows().mean())
        expected = 0.99**n
        sigma = math.sqrt(expected * (1.0 - expected) / t_len)
        ok = ok and abs(frac - expected) <= 3.0 * sigma
        details.append(f"N={n}: {frac:.4f} vs {expected:.4f} (3sigma {3 * sigma:.4f})")
    _verdict(6, "complete-row fraction under 1% dropout", ok, "; ".join(details))


def test_c07_method_quality_ordering_on_synthetic_farms():
    layout = grid_layout(5, 7, spacing=1.0)
    graph = build_graph(layout, propose_grid_edges(layout, "king"))
    methods = ("naive", "location", "unweighted_graph", "weighted_graph")
    sums = dict.fromkeys(methods, 0.0)
    seeds = range(20)
    start = time.perf_counter()
    for seed in seeds:
        full = synth_panel(
            layout, 5000, spatial_scale=1.5, temporal_persistence=0.6, seed=seed
        )
        panel = apply_missingness(full, MissingnessSpec("mcar", 0.02, seed=seed + 1000))
        for method in methods:
            report = leave_one_out_eval(
                panel,
                EstimatorConfig(method=method),
                "complete",
                layout=layout,
                graph=graph,
            )
            sums[method] += report.mean_rmse
    elapsed = time.perf_counter() - start
    avg = {m: sums[m] / len(seeds) for m in methods}
    ordered = avg["naive"] >= avg["location"] >= avg["unweighted_graph"]
    margin = avg["weighted_graph"] <= 0.98 * avg["naive"]
    ok = ordered and margin and elapsed < 300.0
    _verdict(
        7, "seed-averaged method ordering", ok,
        "rmse " + ", ".join(f"{m}={avg[m]:.4f}" for m in methods)
        + f"; {elapsed:.0f} s",
    )


def test_c08_single_hole_matches_direct_formula_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    cases = 0
    for trial in range(30):
        n = int(rng.integers(2, 7))
        t_len = int(rng.integers(1, 21))
        layout = make_layout(rng.uniform(0, 4, size=(n, 2)))
        graph = random_connected_graph(rng, layout, extra_edges=int(rng.integers(0, n)))
        values = rng.uniform(0.05, 0.95, size=(t_len, n))
        t = int(rng.integers(0, t_len))
        col = int(rng.integers(0, n))
        values[t, col] = np.nan
        panel = Panel.from_values(
            [str(float(k)) for k in range(t_len)], layout.ids, values
        )
        positions = layout.positions()
        edge_idx = [(int(a), int(b)) for a, b in graph.edges]
        kind = KERNEL_NAMES[trial % len(KERNEL_NAMES)]
        r = int(rng.integers(1, 4))
        for method in ("naive", "location", "unweighted_graph", "weighted_graph"):
            config = EstimatorConfig(method=method, kernel=kind, r=r)
            if method == "weighted_graph":
                got = impute_weighted_graph(panel, graph, kind=kind, r=r)[0]
            else:
                got = run_estimator(panel, config, layout=layout, graph=graph)
            expected = oracle_impute_cell(
                method, panel.values, panel.mask, t, col,
                positions, edge_idx, kind=kind, r=r,
            )
            lib = got.filled[t, col]
            assert np.isnan(lib) == (isinstance(expected, float) and math.isnan(expected))
            if not np.isnan(lib):
                worst = max(worst, abs(lib - expected))
            cases += 1
    ok = worst <= 1e-10
    _verdict(
        8, "one-hole estimates match direct formulas", ok,
        f"{cases} method/panel cases, max |diff| {worst:.2e}",
    )


def test_c09_sampling_frequencies_match_weights():
    rng = np.random.default_rng(19)
    draws = 10_000
    ok = True
    worst_z = 0.0
    for case in range(50):
        m = int(rng.integers(2, 7))
        raw = rng.uniform(0.05, 1.0, size=m)
        p = raw / raw.sum()
        ids = [f"n{j}" for j in range(m)]
        weights = WeightVector(dict(zip(ids, p)), False)
        observed = {ids[j]: j / m for j in range(m)}
        value_to_idx = {observed[i]: j for j, i in enumerate(ids)}
        counts = np.zeros(m)
        for d in range(draws):
            got = impute_sampling(weights, observed, seed=case * draws + d)
            counts[value_to_idx[got]] += 1
        sigma = np.sqrt(draws * p * (1.0 - p))
        z = np.abs(counts - draws * p) / sigma
        worst_z = max(worst_z, float(z.max()))
        ok = ok and bool((z <= 3.0).all())
    _verdict(
        9, "sampling draw frequencies", ok,
        f"50 weight vectors x {draws} draws, max |z| {worst_z:.2f}",
    )


def test_c10_identical_runs_are_byte_identical(tmp_path):
    lines = ["sensor_id,latitude,longitude,nominal_capacity"]
    for k in range(6):
        lines.append(f"t{k:02d},{float(k % 3)},{float(k // 3)},7.0")
    layout_csv = tmp_path / "layout.csv"
    layout_csv.write_text("\n".join(lines) + "\n")
    graph_dir = tmp_path / "graph"
    assert main(["graph", "--layout", str(layout_csv), "--out", str(graph_dir)]) == 0
    edges = str(graph_dir / "edges.csv")
    sim_dir = tmp_path / "sim"
    assert main(
        ["simulate", "--layout", str(layout_csv), "--t-len", "80",
         "--spatial-scale", "1.5", "--persistence", "0.6", "--seed", "3",
         "--mechanism", "mcar", "--rate", "0.1", "--out", str(sim_dir)]
    ) == 0
    panel = str(sim_dir / "panel_masked.csv")
    payloads = []
    for run in ("a", "b"):
        ev = tmp_path / f"ev-{run}"
        emb = tmp_path / f"emb-{run}"
        assert main(
            ["evaluate", "--layout", str(layout_csv), "--edges", edges,
             "--panel", panel, "--method", "weighted_graph",
             "--setup", "incomplete", "--out", str(ev)]
        ) == 0
        assert main(
            ["embed", "--layout", str(layout_csv), "--edges", edges,
             "--out", str(emb)]
        ) == 0
        payloads.append(
            (
                (ev / "report.csv").read_bytes(),
                (ev / "report.json").read_bytes(),
                (emb / "embedding.svg").read_bytes(),
            )
        )
    ok = payloads[0] == payloads[1]
    _verdict(
        10, "identical config gives identical bytes", ok,
        "report.csv, report.json, embedding.svg compared across two runs",
    )


def test_c11_weighted_method_scales_steeper_than_mean():
    report = complexity_smoke(n_values=(10, 20, 40))
    ok = report.weighted_slope > report.naive_slope
    _verdict(
        11, "per-row cost slope ordering", ok,
        f"weighted slope {report.weighted_slope:.2f} vs naive {report.naive_slope:.2f}",
    )
