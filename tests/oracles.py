"""Independent recomputations the test suite checks estimators against.

Everything here is deliberately written from the defining formulas with
different machinery than the package: the generalized eigenproblem goes
through scipy's two-argument eigh instead of the package's symmetric
reduction, connectivity uses flood fill instead of root hooking, kernels use
math.exp instead of numpy expressions, the tracker is a plain loop over
edges and rounds, and the panel CSV writers go cell by cell through
csv.writer.  Agreement between these routes and the package is the
evidence; sharing code would make the checks circular.
"""

import csv
import io
import math

import numpy as np
import scipy.linalg

from spectral_imputer.errors import InputError, SpectralImputerError, UndefinedScoreError
from spectral_imputer.graph import adjacency


class UndefinedBaselineError(SpectralImputerError):
    """A statistic over revealed values was requested with none revealed."""


def kernel_value(kind, u):
    if kind == "naive":
        return 1.0 if u <= 1.0 else 0.0
    if kind == "gaussian":
        return math.exp(-(u**2))
    if u > 1.0:
        return 0.0
    if kind == "epanechnikov":
        return 1.0 - u**2
    if kind == "triangular":
        return 1.0 - u
    if kind == "quartic":
        return (1.0 - u**2) ** 2
    if kind == "triweight":
        return (1.0 - u**2) ** 3
    if kind == "tricube":
        return (1.0 - u**3) ** 3
    raise ValueError(kind)


def nw_estimate(kind, dists, values):
    """Kernel-weighted mean with adaptive bandwidth, direct formula."""
    h = max(dists)
    if h <= 0.0:
        return sum(values) / len(values)
    k = [kernel_value(kind, d / h) for d in dists]
    total = sum(k)
    if total < 1e-12:
        return sum(values) / len(values)
    return sum(ki * vi for ki, vi in zip(k, values)) / total


def flood_components(n, pairs):
    """Component label per node via breadth-first flood fill."""
    adj = {i: [] for i in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * n
    next_label = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        frontier = [start]
        labels[start] = next_label
        while frontier:
            node = frontier.pop()
            for other in adj[node]:
                if labels[other] == -1:
                    labels[other] = next_label
                    frontier.append(other)
        next_label += 1
    return labels


def embedding_coords(a_sub, r, tol=1e-9):
    """Component embedding via scipy's generalized eigh, group-widened."""
    d = a_sub.sum(axis=0)
    lap = np.diag(d) - a_sub
    w, v = scipy.linalg.eigh(lap, np.diag(d))
    k = min(r, len(w) - 1)
    while k + 1 < len(w) and w[k + 1] - w[k] <= tol:
        k += 1
    return v[:, 1 : k + 1]


def embedding_distance(emb, a, b):
    """Euclidean distance between two sensors of one component's embedding.

    Raises KeyError if either sensor is not in the component.
    """
    for sid in (a, b):
        if sid not in emb.coordinates:
            raise KeyError(f"sensor {sid!r} is not in this embedding's component")
    pairs = zip(emb.coordinates[a], emb.coordinates[b])
    return math.sqrt(sum((x - y) ** 2 for x, y in pairs))


TRACKER_STATE = ("y", "s_hat", "cumulative_loss", "revealed_count", "running_sum_revealed")


def tracker_rounds(similarity_rows, eta):
    """A fresh tracker run one edge and one round at a time.

    `similarity_rows` is (T, E) with None/NaN for unrevealed entries, and
    `eta` one learning rate or one per edge.  Returns (guesses, losses,
    state): (T, E) lists of the guess played before each round and the
    squared error paid in it (0 where nothing was revealed), and a dict
    with each TRACKER_STATE name's final per-edge list.
    """
    t_len = len(similarity_rows)
    n_edges = len(similarity_rows[0]) if t_len else 0
    etas = np.broadcast_to(eta, (n_edges,)).tolist()
    guesses = [[None] * n_edges for _ in range(t_len)]
    losses = [[0.0] * n_edges for _ in range(t_len)]
    state = {name: [] for name in TRACKER_STATE}
    for e in range(n_edges):
        y = s_hat = 1.0
        loss = total = 0.0
        count = 0
        for t in range(t_len):
            guesses[t][e] = s_hat
            s = similarity_rows[t][e]
            if s is None or math.isnan(s):
                continue
            err = float(s) - s_hat
            losses[t][e] = err * err
            loss += err * err
            total += float(s)
            count += 1
            y += 2.0 * etas[e] * err
            s_hat = max(min(y, 1.0), 0.0)
        for name, value in zip(TRACKER_STATE, (y, s_hat, loss, count, total)):
            state[name].append(value)
    return guesses, losses, state


def _geo_dists(positions, col, others):
    return [
        math.dist(positions[col], positions[o]) for o in others
    ]


def _static_coords(n, edges, r):
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return embedding_coords(a, r)


def oracle_impute_cell(
    method,
    values,
    mask,
    t,
    col,
    positions,
    edges,
    kind="triweight",
    r=2,
    eta=0.5,
    floor=1e-12,
):
    """Direct recomputation of one missing cell's estimate.

    `values`/`mask` are the full (T, N) panel arrays, `edges` index pairs
    of the fixed graph, `positions` (N, 2) coordinates.  Returns the
    estimate (NaN when nothing can say anything).
    """
    n = values.shape[1]
    others = [j for j in range(n) if j != col and mask[t, j]]
    if not others:
        return float("nan")
    vals = [values[t, j] for j in others]
    if method == "naive":
        return sum(vals) / len(vals)
    if method == "location":
        return nw_estimate(kind, _geo_dists(positions, col, others), vals)
    if method == "unweighted_graph":
        coords = _static_coords(n, edges, r)
        dists = [
            float(np.linalg.norm(coords[col] - coords[j])) for j in others
        ]
        return nw_estimate(kind, dists, vals)
    if method != "weighted_graph":
        raise ValueError(method)

    # Weighted graph: replay guesses, build this row's edge weights,
    # split into components, embed the target's component.
    sim_rows = []
    for tt in range(values.shape[0]):
        row = []
        for i, j in edges:
            if mask[tt, i] and mask[tt, j]:
                row.append(1.0 - abs(values[tt, i] - values[tt, j]))
            else:
                row.append(None)
        sim_rows.append(row)
    guesses, _, _ = tracker_rounds(sim_rows, eta)
    weights_row = [
        sim_rows[t][e] if sim_rows[t][e] is not None else guesses[t][e]
        for e in range(len(edges))
    ]
    kept = [
        (edges[e], weights_row[e])
        for e in range(len(edges))
        if weights_row[e] > floor
    ]
    labels = flood_components(n, [pair for pair, _ in kept])
    members = [j for j in range(n) if labels[j] == labels[col]]
    obs_members = [j for j in members if mask[t, j]]
    if len(members) >= 3 and obs_members:
        a = np.zeros((len(members), len(members)))
        local = {node: k for k, node in enumerate(members)}
        for (i, j), w in kept:
            if i in local and j in local:
                a[local[i], local[j]] = a[local[j], local[i]] = w
        coords = embedding_coords(a, r)
        dists = [
            float(np.linalg.norm(coords[local[col]] - coords[local[j]]))
            for j in obs_members
        ]
        return nw_estimate(kind, dists, [values[t, j] for j in obs_members])
    if len(members) == 2 and len(obs_members) == 1:
        return float(values[t, obs_members[0]])
    coords = _static_coords(n, edges, r)
    dists = [float(np.linalg.norm(coords[col] - coords[j])) for j in others]
    return nw_estimate(kind, dists, vals)


# ---------------------------------------------------------------------------
# Panel CSV writers, cell by cell.


def hidden_cell_weights(values_row, obs_row, guesses_row, edges, hidden):
    """One row's edge weights with sensor `hidden` hidden, edge by edge.

    The row is copied with the hidden sensor unobserved; an edge between
    two observed sensors then carries similarity 1 - |a - b|, and every
    other edge the tracker's guess.
    """
    obs = list(obs_row)
    obs[hidden] = False
    return [
        1.0 - abs(values_row[a] - values_row[b]) if obs[a] and obs[b] else guesses_row[k]
        for k, (a, b) in enumerate(edges)
    ]


def _raw_reading(value, capacity):
    """Raw reading that divides back to `value`, nudged an ulp at a time."""
    raw = value * capacity
    if raw / capacity == value:
        return raw
    lo = hi = raw
    for _ in range(8):
        lo = math.nextafter(lo, -math.inf)
        if lo / capacity == value:
            return lo
        hi = math.nextafter(hi, math.inf)
        if hi / capacity == value:
            return hi
    raise ValueError(f"cannot encode {value!r} at capacity {capacity!r}")


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def panel_csv_text(timestamps, sensor_ids, values, mask, capacities):
    """Raw-unit panel CSV written one cell at a time through csv.writer."""
    rows = [("timestamp",) + tuple(sensor_ids)]
    for t, ts in enumerate(timestamps):
        row = [ts]
        for i, cap in enumerate(capacities):
            if mask[t, i]:
                row.append(repr(float(_raw_reading(float(values[t, i]), float(cap)))))
            else:
                row.append("")
        rows.append(row)
    return _csv(rows)


def provenance_csv_text(timestamps, sensor_ids, provenance, labels):
    """Provenance CSV with `labels[code]` looked up one cell at a time."""
    rows = [("timestamp",) + tuple(sensor_ids)]
    for t, ts in enumerate(timestamps):
        rows.append([ts] + [labels[int(code)] for code in provenance[t]])
    return _csv(rows)


def laplacian(graph):
    """Unnormalized Laplacian L = D - A and degree matrix D.

    D[i][i] is the i-th column sum of A.
    """
    a = adjacency(graph)
    d = a.sum(axis=0)
    return np.diag(d) - a, np.diag(d)


def assignments(partition) -> dict[str, int]:
    """Component index of each node id."""
    return dict(zip(partition.node_ids, partition.labels))


def rmse(truth, estimates) -> float:
    """Root mean squared error over aligned arrays.

    Raises:
        UndefinedScoreError: if the arrays are empty.
    """
    truth = np.asarray(truth, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if truth.shape != estimates.shape:
        raise InputError(f"shape mismatch in rmse: {truth.shape} vs {estimates.shape}")
    if truth.size == 0:
        raise UndefinedScoreError("rmse over an empty set is undefined")
    return float(np.sqrt(np.mean((truth - estimates) ** 2)))


def best_constant(history) -> float:
    """Mean of the revealed values, the best fixed guess in hindsight.

    Raises:
        UndefinedBaselineError: with nothing revealed.
    """
    h = np.asarray(history, dtype=float)
    rev = ~np.isnan(h)
    if not np.any(rev):
        raise UndefinedBaselineError("no revealed values; baseline undefined")
    return float(np.clip(np.mean(h[rev]), 0.0, 1.0))


def regret(losses, history) -> float:
    """Total paid loss minus the best fixed guess's loss on `history`.

    Missing rounds contribute nothing to either side.  Can be negative.
    """
    losses = np.asarray(losses, dtype=float)
    h = np.asarray(history, dtype=float)
    if losses.shape != h.shape:
        raise InputError("losses and history must have the same length")
    c = best_constant(h)
    rev = ~np.isnan(h)
    best = float(np.sum((h[rev] - c) ** 2))
    return float(losses.sum()) - best
