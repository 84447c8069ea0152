"""Output checks: independent oracles plus recorded references.

Every command's outputs are checked against what the benchmark can work
out on its own from the inputs it generated:

- impute: observed cells pass through exactly, every hole is filled and
  tagged, naive fills equal the row mean of the observed cells, and
  weighted_graph fills equal a dense eigendecomposition oracle (tracker
  replay, normalized Laplacian, degenerate-group widening, triweight
  weights) on every row, or on a seeded sample of rows for large farms.
- regret: the whole curve equals a replay of the tracker against the
  prefix-best constant.
- evaluate: every per-sensor RMSE equals a full leave-one-out oracle,
  and scored-cell and fallback counts match exactly.
- simulate: shapes, ranges, mask consistency and the masked share.

Values compare at 1e-8 relative to max(1, |reference|), the loosest
cross-route tolerance the package promises; counts compare exactly.
`summarize` condenses outputs to sums, sums of squares, RMSEs and counts,
which run.py compares against references recorded for fixed seeds.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

TOL = 1e-8
WEIGHT_FLOOR = 1e-12
KERNEL_SUM_FLOOR = 1e-12
DEGENERACY_TOL = 1e-9
DIM = 2
ETA = 0.5
FILL_TAGS = (
    "weighted_knn",
    "small_component_copy",
    "uniform_fallback",
    "static_graph_fallback",
)
TAGS = ("observed",) + FILL_TAGS + ("unimputable",)


def close(a, b) -> bool:
    return abs(float(a) - float(b)) <= TOL * max(1.0, abs(float(b)))


def read_panel(path, capacity):
    """(ids, timestamps, normalized values with NaN holes) of a panel CSV."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    ids = rows[0][1:]
    stamps = [r[0] for r in rows[1:]]
    values = np.array(
        [[float(x) if x else np.nan for x in r[1:]] for r in rows[1:]]
    ).reshape(len(stamps), len(ids))
    return ids, stamps, values / capacity


def read_labels(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return np.array([r[1:] for r in rows[1:]])


# ---------------------------------------------------------------------------
# Oracles.


def triweight_weights(dist, obs):
    """Adaptive-bandwidth triweight weights with the uniform fallback."""
    counts = obs.sum(axis=1)
    h = np.where(obs, dist, -np.inf).max(axis=1)
    u = dist / np.where(h > 0, h, 1.0)[:, None]
    k = np.where(u <= 1.0, (1.0 - u**2) ** 3, 0.0) * obs
    total = k.sum(axis=1)
    fallback = (h <= 0) | (total < KERNEL_SUM_FLOOR)
    weights = np.where(
        fallback[:, None],
        obs / counts[:, None],
        k / np.where(fallback, 1.0, total)[:, None],
    )
    return weights, fallback


def embedding_coords(adj):
    """(B, n, n-1) embedding coordinates of each graph in a (B, n, n) stack.

    Solves the normalized Laplacian of every connected graph and keeps
    eigenvectors 1..r_eff, r_eff being DIM widened over a degenerate
    eigenvalue group; the columns past r_eff are zero.
    """
    b, n, _ = adj.shape
    s = 1.0 / np.sqrt(adj.sum(axis=2))
    reduced = np.eye(n) - adj * s[:, :, None] * s[:, None, :]
    lam, u = np.linalg.eigh(reduced)
    r_eff = np.full(b, min(DIM, n - 1))
    for row in range(b):
        k = r_eff[row]
        while k + 1 < n and lam[row, k + 1] - lam[row, k] <= DEGENERACY_TOL:
            k += 1
        r_eff[row] = k
    use = np.arange(1, n)[None, :] <= r_eff[:, None]
    return (u * s[:, :, None])[:, :, 1:] * use[:, None, :]


def adjacency_stack(weights, edges, n):
    adj = np.zeros((weights.shape[0], n, n))
    adj[:, edges[:, 0], edges[:, 1]] = weights
    adj[:, edges[:, 1], edges[:, 0]] = weights
    return adj


def revealed(observed, edges):
    a, b = observed[:, edges[:, 0]], observed[:, edges[:, 1]]
    return 1.0 - np.abs(a - b)  # NaN wherever either end is missing


def tracker_replay(sims):
    """(guesses played before each row, per-edge losses) of the tracker."""
    y = np.ones(sims.shape[1])
    s_hat = np.ones(sims.shape[1])
    guesses = np.empty_like(sims)
    losses = np.empty_like(sims)
    for t in range(sims.shape[0]):
        guesses[t] = s_hat
        err = np.where(np.isnan(sims[t]), 0.0, sims[t] - s_hat)
        losses[t] = err**2
        y = y + 2.0 * ETA * err
        s_hat = np.clip(y, 0.0, 1.0)
    return guesses, losses


def weighted_fill(farm, rows):
    """Oracle estimates and tags for the holes of `rows`, streaming imputer.

    Returns (rows checked, hole columns, estimates, tags) with one entry
    per hole.  Rows whose similarity graph splits are skipped; recorded
    references cover them.
    """
    vals = farm.observed
    n = vals.shape[1]
    sims = revealed(vals, farm.edge_index)
    guesses, _ = tracker_replay(sims)
    w = np.where(np.isnan(sims[rows]), guesses[rows], sims[rows])
    live = (w > WEIGHT_FLOOR).all(axis=1)
    rows, w = rows[live], w[live]
    coords = embedding_coords(adjacency_stack(w, farm.edge_index, n))
    batch, hole = np.nonzero(np.isnan(vals[rows]))
    diff = coords[batch] - coords[batch, hole][:, None, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    obs = ~np.isnan(vals[rows][batch])
    weights, fallback = triweight_weights(dist, obs)
    est = (weights * np.where(obs, vals[rows][batch], 0.0)).sum(axis=1)
    tags = np.where(fallback, "uniform_fallback", "weighted_knn")
    return rows[batch], hole, est, tags


def scorable(mask, col, setup):
    if setup == "complete":
        return np.flatnonzero(mask.all(axis=1))
    others = mask.sum(axis=1) - mask[:, col]
    return np.flatnonzero(mask[:, col] & (others > 0))


def loo_scores(farm, method, setup, cols):
    """{col: (rmse, naive_rmse, scored, fallbacks)} leave-one-out oracle."""
    vals = farm.observed
    mask = ~np.isnan(vals)
    filled0 = np.where(mask, vals, 0.0)
    n = vals.shape[1]
    if method in ("location", "unweighted_graph"):
        if method == "location":
            diff = farm.positions[:, None, :] - farm.positions[None, :, :]
            dist_all = np.sqrt((diff**2).sum(axis=2))
        else:
            ones = np.ones((1, len(farm.edge_index)))
            coords = embedding_coords(adjacency_stack(ones, farm.edge_index, n))[0]
            dist_all = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=2))
    if method == "weighted_graph":
        sims = revealed(vals, farm.edge_index)
        guesses, _ = tracker_replay(sims)
    out = {}
    for col in cols:
        rows = scorable(mask, col, setup)
        if rows.size == 0:
            continue
        obs = mask[rows].copy()
        obs[:, col] = False
        truth = vals[rows, col]
        naive = (filled0[rows] * obs).sum(axis=1) / obs.sum(axis=1)
        fallbacks = 0
        if method == "naive":
            est = naive
        else:
            if method == "weighted_graph":
                e = farm.edge_index
                hidden = (e[:, 0] == col) | (e[:, 1] == col)
                w = np.where(np.isnan(sims[rows]) | hidden, guesses[rows], sims[rows])
                if not (w > WEIGHT_FLOOR).all():
                    continue  # split graphs take the slow path; not re-scored
                coords = embedding_coords(adjacency_stack(w, e, n))
                dist = np.sqrt(((coords - coords[:, col : col + 1]) ** 2).sum(axis=2))
            else:
                dist = np.broadcast_to(dist_all[col], obs.shape)
            weights, fallback = triweight_weights(dist, obs)
            est = (weights * filled0[rows]).sum(axis=1)
            fallbacks = int(fallback.sum())
        rmse = float(np.sqrt(np.mean((truth - est) ** 2)))
        naive_rmse = float(np.sqrt(np.mean((truth - naive) ** 2)))
        out[col] = (rmse, naive_rmse, rows.size, fallbacks)
    return out


# ---------------------------------------------------------------------------
# Per-command checks.  Each returns a list of problems (empty when fine).


def _check_filled(farm, out_dir, capacity, problems):
    ids, stamps, filled = read_panel(os.path.join(out_dir, "filled.csv"), capacity)
    labels = read_labels(os.path.join(out_dir, "provenance.csv"))
    if filled.shape != farm.truth.shape or len(stamps) != farm.truth.shape[0]:
        problems.append(f"filled.csv has shape {filled.shape}")
        return None, None
    obs = ~np.isnan(farm.observed)
    if not np.array_equal(filled[obs], farm.observed[obs]):
        problems.append("observed cells changed")
    if np.isnan(filled).any() or (filled < 0).any() or (filled > 1).any():
        problems.append("a hole is unfilled or outside [0, 1]")
    if labels.shape != filled.shape or (labels[obs] != "observed").any():
        problems.append("provenance does not mark observed cells")
    elif not np.isin(labels[~obs], FILL_TAGS).all():
        problems.append("a hole carries no fill tag")
    return filled, labels


def check_impute(farm, method, out_dir, capacity, seed, sample):
    problems = []
    filled, labels = _check_filled(farm, out_dir, capacity, problems)
    if filled is None:
        return problems
    miss = np.isnan(farm.observed)
    if method == "naive":
        want = np.nanmean(farm.observed, axis=1)[:, None]
        bad = miss & ~np.isclose(filled, want, rtol=0.0, atol=TOL)
        if bad.any():
            problems.append(f"{int(bad.sum())} naive fills differ from the row mean")
        return problems
    rows = np.flatnonzero(miss.any(axis=1))
    if sample is not None and sample < rows.size:
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(rows, size=sample, replace=False))
    t, i, est, tags = weighted_fill(farm, rows)
    if t.size == 0:
        problems.append("no row could be checked against the oracle")
    scale = np.maximum(1.0, np.abs(est))
    bad = np.flatnonzero((np.abs(filled[t, i] - est) > TOL * scale) | (labels[t, i] != tags))
    if bad.size:
        k = bad[0]
        problems.append(
            f"{bad.size} holes differ from the oracle, first row {t[k]} sensor "
            f"{i[k]}: {filled[t[k], i[k]]!r} [{labels[t[k], i[k]]}] != "
            f"{est[k]!r} [{tags[k]}]"
        )
    return problems


def check_regret(farm, out_dir):
    with open(os.path.join(out_dir, "regret_curve.csv"), newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    got = np.array([[float(x) for x in r[1:]] for r in rows])
    sims = revealed(farm.observed, farm.edge_index)
    _, losses = tracker_replay(sims)
    alg = np.cumsum(losses.sum(axis=1))
    rev = ~np.isnan(sims)
    v = np.where(rev, sims, 0.0)
    cum_n, cum_s, cum_s2 = np.cumsum(rev, 0), np.cumsum(v, 0), np.cumsum(v**2, 0)
    best = np.where(cum_n > 0, cum_s2 - cum_s**2 / np.maximum(cum_n, 1), 0.0).sum(1)
    want = np.stack([alg, best, alg - best], axis=1)
    if got.shape != want.shape:
        return [f"regret curve has shape {got.shape}, want {want.shape}"]
    scale = np.maximum(1.0, np.abs(want))
    if (np.abs(got - want) > TOL * scale).any():
        return [f"regret curve differs from the tracker replay (final {got[-1, 2]!r} "
                f"vs {want[-1, 2]!r})"]
    return []


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as handle:
        return json.load(handle)


def check_evaluate(farm, method, setup, out_dir):
    problems = []
    report = read_report(out_dir)
    n = farm.observed.shape[1]
    oracle = loo_scores(farm, method, setup, range(n))
    sensors = report["sensors"]
    scored = 0
    for col in range(n):
        rows = scorable(~np.isnan(farm.observed), col, setup).size
        scored += rows
        if sensors[col]["scored"] != rows:
            problems.append(f"sensor {col}: scored {sensors[col]['scored']}, want {rows}")
    fallbacks = report["fallback_counts"]
    if report["scored_cells"] != scored:
        problems.append(f"scored_cells {report['scored_cells']}, want {scored}")
    if method != "naive" and sum(fallbacks.values()) != scored:
        problems.append(f"fallback counts {fallbacks} do not cover {scored} cells")
    rmses = [s["rmse"] for s in sensors if s["scored"]]
    if not close(report["mean_rmse"], np.mean(rmses)):
        problems.append("mean_rmse is not the mean of the sensor RMSEs")
    total_fb = 0
    for col, (rmse, naive_rmse, _, fb) in oracle.items():
        total_fb += fb
        got = sensors[col]
        if not close(got["rmse"], rmse) or not close(got["naive_rmse"], naive_rmse):
            problems.append(
                f"sensor {col}: rmse {got['rmse']!r}/{got['naive_rmse']!r} "
                f"!= oracle {rmse!r}/{naive_rmse!r}"
            )
            break
    if method in ("location", "unweighted_graph"):
        if fallbacks.get("uniform_fallback", 0) != total_fb:
            problems.append(f"uniform fallbacks {fallbacks}, oracle {total_fb}")
    if method == "weighted_graph" and not oracle:
        problems.append("no sensor could be re-scored by the oracle")
    return problems


def check_simulate(layout_ids, out_dir, t_len, rate, capacity):
    problems = []
    ids, _, full = read_panel(os.path.join(out_dir, "panel_full.csv"), capacity)
    _, _, masked = read_panel(os.path.join(out_dir, "panel_masked.csv"), capacity)
    if ids != list(layout_ids) or full.shape != (t_len, len(layout_ids)):
        return [f"panel_full.csv has shape {full.shape}"]
    if masked.shape != full.shape:
        return [f"panel_masked.csv has shape {masked.shape}"]
    if np.isnan(full).any() or (full <= 0).any() or (full > 1).any():
        problems.append("simulated readings outside (0, 1]")
    seen = ~np.isnan(masked)
    if not np.array_equal(masked[seen], full[seen]):
        problems.append("masked panel disagrees with the full panel")
    share = 1.0 - seen.mean()
    sigma = np.sqrt(rate * (1.0 - rate) / seen.size)
    if abs(share - rate) > 6.0 * sigma:
        problems.append(f"masked share {share:.4f} is far from rate {rate}")
    return problems


# ---------------------------------------------------------------------------
# Summaries, for recorded references and the per-layer counts.


def _column_moments(values):
    return {
        "col_sum": np.nansum(values, axis=0).tolist(),
        "col_sumsq": np.nansum(values**2, axis=0).tolist(),
    }


def summarize(kind, out_dir, capacity):
    """Condensed outputs of one command, as plain JSON data."""
    if kind.startswith("impute"):
        _, _, filled = read_panel(os.path.join(out_dir, "filled.csv"), capacity)
        labels = read_labels(os.path.join(out_dir, "provenance.csv"))
        tags = {tag: int((labels == tag).sum()) for tag in TAGS}
        return dict(_column_moments(filled), tags=tags)
    if kind.startswith("evaluate"):
        report = read_report(out_dir)
        return {
            "mean_rmse": report["mean_rmse"],
            "scored_cells": report["scored_cells"],
            "fallbacks": report["fallback_counts"],
        }
    if kind == "regret":
        with open(os.path.join(out_dir, "regret_curve.csv"), newline="") as handle:
            last = list(csv.reader(handle))[-1]
        return {"final": [float(x) for x in last[1:]]}
    _, _, full = read_panel(os.path.join(out_dir, "panel_full.csv"), capacity)
    _, _, masked = read_panel(os.path.join(out_dir, "panel_masked.csv"), capacity)
    return dict(_column_moments(full), masked_cells=int(np.isnan(masked).sum()))


def compare(got, want, where="") -> list[str]:
    """Differences between two summaries: numbers at TOL, ints exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: missing, or keys differ from {sorted(want)}"]
        out = []
        for key in want:
            out += compare(got[key], want[key], f"{where}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{where}[{k}]")
            if out:
                break
        return out
    if isinstance(want, int) and not isinstance(want, bool):
        return [] if got == want else [f"{where}: {got} != {want}"]
    if isinstance(want, str):
        return [] if got == want else [f"{where}: digest differs"]
    return [] if close(got, want) else [f"{where}: {got!r} != {want!r}"]
