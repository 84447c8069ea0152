"""Seeded benchmark inputs, built without the program under test.

Every workload feeds the program only the files written here: a grid
layout, its king-adjacency edge list and an AR(1) logistic panel with an
MCAR mask.  The generator follows the same recipe as the package's
`synth_panel` (a farm-wide driver plus a spatially correlated disturbance,
both first-order autoregressive, squashed through a logistic), but owns
its code, so a change to the package's generator cannot change what the
timed commands read.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

CAPACITY = 7.0
SPATIAL_SCALE = 1.5
PERSISTENCE = 0.6
DRIVER_SCALE = 1.2
NOISE_SCALE = 0.6


@dataclass
class FarmInputs:
    """Paths of the written files plus the ground truth behind them.

    `truth` and `observed` are normalized readings exactly as the program
    will see them (each raw cell parsed back and divided by capacity);
    `observed` is NaN where the mask hides a cell.
    """

    layout: str
    edges: str
    panel: str
    truth: np.ndarray
    observed: np.ndarray
    positions: np.ndarray
    edge_index: np.ndarray
    digests: dict


def grid_positions(rows: int, cols: int) -> np.ndarray:
    """(rows*cols, 2) row-major unit-spaced grid coordinates."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    return np.stack([r, c], axis=1).astype(float)


def king_edges(rows: int, cols: int) -> np.ndarray:
    """(E, 2) index pairs i < j of grid neighbours, diagonals included."""
    pairs = []
    for i in range(rows * cols):
        ri, ci = divmod(i, cols)
        for j in range(i + 1, rows * cols):
            rj, cj = divmod(j, cols)
            if abs(ri - rj) <= 1 and abs(ci - cj) <= 1:
                pairs.append((i, j))
    return np.array(pairs, dtype=int)


def ar1_logistic(positions: np.ndarray, t_len: int, rng) -> np.ndarray:
    """(t_len, n) readings in (0, 1) with spatial and temporal correlation."""
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    cov = np.exp(-(diff**2).sum(axis=2) / SPATIAL_SCALE**2)
    vals, vecs = np.linalg.eigh(cov)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    innovation = np.sqrt(1.0 - PERSISTENCE**2)
    shocks = rng.standard_normal((t_len, n + 1))
    shocks[:, 1:] = shocks[:, 1:] @ factor.T
    # Stationary start: the first row is an unscaled draw, later rows mix
    # the previous state with a scaled innovation.
    scaled = shocks * innovation
    scaled[0] = shocks[0]
    series = lfilter([1.0], [1.0, -PERSISTENCE], scaled, axis=0)
    signal = DRIVER_SCALE * series[:, :1] + NOISE_SCALE * series[:, 1:]
    return 1.0 / (1.0 + np.exp(-signal))


def mcar_mask(shape, rate: float, rng) -> np.ndarray:
    """(T, n) availability with holes placed completely at random.

    How many rows have k holes is fixed at its Binomial(n, rate)
    expectation (largest-remainder rounding, k <= n - 2 so every row keeps
    two observed cells); which rows and which sensors are uniform random.
    Every seed thus asks for the same work: the same number of holes and of
    complete rows, which set the cost of impute and evaluate.
    """
    t, n = shape
    k = np.arange(n - 1)
    pmf = np.array([math.comb(n, j) * rate**j * (1.0 - rate) ** (n - j) for j in k])
    share = t * pmf / pmf.sum()
    rows_with = np.floor(share).astype(int)
    extra = np.argsort(-(share - rows_with), kind="stable")[: t - rows_with.sum()]
    rows_with[extra] += 1
    holes = rng.permutation(np.repeat(k, rows_with))
    rank = np.argsort(rng.random(shape), axis=1).argsort(axis=1)
    return rank >= holes[:, None]


def sensor_ids(n: int) -> list[str]:
    return [f"s{k:03d}" for k in range(n)]


def _write(path: str, text: str, digests: dict) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(text)
    digests[os.path.basename(path)] = hashlib.sha256(text.encode()).hexdigest()


def write_farm(directory, rows, cols, t_len, rate, seed) -> FarmInputs:
    """Write layout.csv, edges.csv and panel.csv for one seeded farm."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    pos = grid_positions(rows, cols)
    ids = sensor_ids(rows * cols)
    edges = king_edges(rows, cols)
    digests: dict = {}

    layout_lines = ["sensor_id,latitude,longitude,nominal_capacity"]
    layout_lines += [
        f"{sid},{float(lat)!r},{float(lon)!r},{CAPACITY!r}"
        for sid, (lat, lon) in zip(ids, pos)
    ]
    layout = os.path.join(directory, "layout.csv")
    _write(layout, "\n".join(layout_lines) + "\n", digests)

    edge_lines = ["from,to"] + [f"{ids[i]},{ids[j]}" for i, j in edges]
    edge_path = os.path.join(directory, "edges.csv")
    _write(edge_path, "\n".join(edge_lines) + "\n", digests)

    values = ar1_logistic(pos, t_len, rng)
    mask = mcar_mask(values.shape, rate, rng)
    raw = [[repr(float(v)) for v in row] for row in values * CAPACITY]
    truth = np.array([[float(x) for x in row] for row in raw]) / CAPACITY
    lines = ["timestamp," + ",".join(ids)]
    for t in range(t_len):
        cells = [raw[t][i] if mask[t, i] else "" for i in range(len(ids))]
        lines.append(f"{t}," + ",".join(cells))
    panel = os.path.join(directory, "panel.csv")
    _write(panel, "\n".join(lines) + "\n", digests)

    return FarmInputs(
        layout=layout,
        edges=edge_path,
        panel=panel,
        truth=truth,
        observed=np.where(mask, truth, np.nan),
        positions=pos,
        edge_index=edges,
        digests=digests,
    )
