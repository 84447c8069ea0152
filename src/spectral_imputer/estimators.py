"""Panel data and the k-NN imputation estimators.

A panel holds normalized sensor readings, one row per timestamp, with an
explicit missingness mask.  Every estimator fills missing entries with a
kernel-weighted mean over some neighbor set; they differ only in where the
neighbor distances come from:

- naive: no distances; every observed sensor counts equally.
- location: Euclidean distance between geographic coordinates.
- unweighted_graph: distances in the spectral embedding of the fixed
  sensor graph.
- weighted_graph: distances in a per-timestep embedding of the graph
  reweighted by instantaneous value similarity, with unrevealed
  similarities supplied by an online tracker.

Every filled cell carries a provenance tag saying which path produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import IntEnum

import numpy as np

from . import spectral
from .errors import ConfigError, InputError
from .graph import FarmGraph, FarmLayout, component_labels, components
from .kernels import KERNEL_NAMES, WeightVector, kernel_weight_rows
from .online import SimilarityTracker
from .spectral import (
    _spectrum_for_adjacency,
    batch_rows,
    batched_coordinates,
    embed,
    target_distances,
    widen_to_degenerate_group,
)

METHODS = ("naive", "location", "unweighted_graph", "weighted_graph")

DEFAULT_WEIGHT_FLOOR = 1e-12


def timestamp_keys(timestamps):
    """Sortable keys for timestamp strings; numeric first, then ISO-8601.

    Raises:
        InputError: carrying the row of the first timestamp that parses
            under neither convention, a numeric one that is not finite, or
            the first whose timezone awareness differs from row 0's
            (aware and naive ISO-8601 values have no order).
    """
    try:
        keys = [float(t) for t in timestamps]
    except (TypeError, ValueError):
        pass
    else:
        bad = next((k for k, key in enumerate(keys) if not math.isfinite(key)), None)
        if bad is not None:
            raise InputError("numeric timestamps must be finite", row=bad)
        return keys
    keys = []
    for k, t in enumerate(timestamps):
        try:
            keys.append(datetime.fromisoformat(str(t)))
        except ValueError as exc:
            raise InputError(f"unparsable timestamp: {exc}", row=k) from None
    aware = [key.utcoffset() is not None for key in keys]
    if len(set(aware)) > 1:
        mixed = "timestamps mix timezone-aware and naive ISO-8601 values"
        raise InputError(mixed, row=aware.index(not aware[0]))
    return keys


@dataclass
class Panel:
    """Aligned sensor readings over time.

    `values` is (T, N) with NaN exactly where `mask` is False; observed
    entries are normalized readings in [0, 1].  Column order follows
    `sensor_ids`, which must match the layout the panel will be used with.
    """

    timestamps: tuple[str, ...]
    sensor_ids: tuple[str, ...]
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.timestamps = tuple(str(t) for t in self.timestamps)
        self.sensor_ids = tuple(str(s) for s in self.sensor_ids)
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        t, n = len(self.timestamps), len(self.sensor_ids)
        if t == 0:
            raise InputError("panel has no rows")
        if self.values.shape != (t, n) or self.mask.shape != (t, n):
            raise InputError(
                f"panel shapes disagree: {t} timestamps, {n} sensors, "
                f"values {self.values.shape}, mask {self.mask.shape}"
            )
        observed = self.values[self.mask]
        if np.any(~np.isfinite(observed)):
            raise InputError("observed panel values must be finite")
        if observed.size and (observed.min() < 0.0 or observed.max() > 1.0):
            raise InputError("observed panel values must lie in [0, 1]")
        if np.any(np.isfinite(self.values[~self.mask])):
            raise InputError("masked-out cells must hold NaN")
        keys = timestamp_keys(self.timestamps)
        for k in range(1, len(keys)):
            if not keys[k - 1] < keys[k]:
                raise InputError("timestamps must be strictly increasing", row=k)

    @classmethod
    def from_values(cls, timestamps, sensor_ids, values) -> "Panel":
        """Panel with the mask inferred from NaN entries."""
        values = np.asarray(values, dtype=float)
        return cls(tuple(timestamps), tuple(sensor_ids), values, ~np.isnan(values))

    @property
    def t_len(self) -> int:
        return len(self.timestamps)

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_ids)

    def complete_rows(self) -> np.ndarray:
        """(T,) bool: rows where every sensor is observed."""
        return self.mask.all(axis=1)


class Provenance(IntEnum):
    """How each cell of an imputation result was produced."""

    OBSERVED = 0
    WEIGHTED_KNN = 1
    SMALL_COMPONENT_COPY = 2
    UNIFORM_FALLBACK = 3
    STATIC_GRAPH_FALLBACK = 4
    UNIMPUTABLE = 5

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass
class ImputationResult:
    """Filled panel plus per-cell provenance.

    `filled` matches the panel's shape; unimputable cells stay NaN and are
    tagged as such.  Observed cells pass through untouched.
    """

    sensor_ids: tuple[str, ...]
    timestamps: tuple[str, ...]
    filled: np.ndarray
    provenance: np.ndarray

    def tag_counts(self) -> dict[str, int]:
        out = {}
        for p in Provenance:
            count = int(np.sum(self.provenance == int(p)))
            if count:
                out[p.label] = count
        return out


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimator run's settings.

    `r` only matters to the graph methods, `learning_rate` only to
    weighted_graph; both are validated regardless so a config is either
    wholly usable or rejected early.
    """

    method: str
    kernel: str = "triweight"
    r: int = 2
    learning_rate: float = 0.5
    weight_floor: float = DEFAULT_WEIGHT_FLOOR

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise ConfigError(
                f"unknown kernel {self.kernel!r}; choose from {', '.join(KERNEL_NAMES)}"
            )
        if self.r < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got {self.r}")
        if not self.learning_rate > 0:
            raise ConfigError("learning rate must be > 0")
        if self.weight_floor < 0:
            raise ConfigError("weight floor must be >= 0")


def geo_distance_matrix(layout: FarmLayout) -> np.ndarray:
    """Pairwise Euclidean distances between sensor coordinates."""
    pos = layout.positions()
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def static_embedding_distances(graph: FarmGraph, r: int) -> np.ndarray:
    """Pairwise distances in the fixed graph's embedding.

    Raises:
        ConfigError: if the graph is not connected; a fixed-graph
            estimator has no distance between separate components.
    """
    part = components(graph)
    if part.count != 1:
        raise ConfigError(
            "the sensor graph must be connected for fixed-graph embedding "
            f"distances; found {part.count} components"
        )
    if graph.n < 3:
        # Too small to embed; zero distances make every neighbor equal,
        # which the kernel stage resolves with uniform weights.
        return np.zeros((graph.n, graph.n))
    emb = embed(graph, part, r)[0]
    coords = np.stack([emb.coordinates[s] for s in graph.node_ids])
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _check_alignment(panel: Panel, ids, what: str):
    if panel.sensor_ids != tuple(ids):
        raise InputError(
            f"panel sensors do not match the {what}: "
            f"{panel.sensor_ids} vs {tuple(ids)}"
        )


def _impute_by_distances(panel: Panel, dist: np.ndarray, kind: str) -> ImputationResult:
    """Fill each missing cell from observed same-row sensors at fixed distances."""
    values = np.where(panel.mask, panel.values, 0.0)
    filled = panel.values.copy()
    provenance = np.zeros(panel.values.shape, dtype=np.int8)
    provenance[~panel.mask] = int(Provenance.UNIMPUTABLE)
    for col in range(panel.n_sensors):
        rows = np.flatnonzero(~panel.mask[:, col])
        if rows.size == 0:
            continue
        obs = panel.mask[rows]
        counts = obs.sum(axis=1)
        good = counts > 0
        if not np.any(good):
            continue
        sel = rows[good]
        weights, fallback = kernel_weight_rows(
            kind, np.broadcast_to(dist[col], (sel.size, panel.n_sensors)), panel.mask[sel]
        )
        filled[sel, col] = (weights * values[sel]).sum(axis=1)
        provenance[sel, col] = np.where(
            fallback, int(Provenance.UNIFORM_FALLBACK), int(Provenance.WEIGHTED_KNN)
        )
    return ImputationResult(
        panel.sensor_ids, panel.timestamps, filled, provenance
    )


def impute_naive(panel: Panel) -> ImputationResult:
    """Arithmetic mean of the row's observed sensors.

    One vectorized pass over the panel; no per-sensor work beyond the
    row sums, since every observed neighbor carries the same weight.
    """
    vals = np.where(panel.mask, panel.values, 0.0)
    counts = panel.mask.sum(axis=1)
    means = vals.sum(axis=1) / np.where(counts > 0, counts, 1)
    miss = ~panel.mask
    filled = panel.values.copy()
    provenance = np.zeros(panel.values.shape, dtype=np.int8)
    fillable = miss & (counts > 0)[:, None]
    filled[fillable] = np.broadcast_to(means[:, None], filled.shape)[fillable]
    provenance[fillable] = int(Provenance.WEIGHTED_KNN)
    provenance[miss & (counts == 0)[:, None]] = int(Provenance.UNIMPUTABLE)
    return ImputationResult(panel.sensor_ids, panel.timestamps, filled, provenance)


def impute_location(panel: Panel, layout: FarmLayout, kind: str = "triweight") -> ImputationResult:
    """Kernel weights from geographic distances."""
    _check_alignment(panel, layout.ids, "layout")
    return _impute_by_distances(panel, geo_distance_matrix(layout), kind)


def impute_unweighted_graph(
    panel: Panel, graph: FarmGraph, kind: str = "triweight", r: int = 2
) -> ImputationResult:
    """Kernel weights from the fixed graph's embedding distances."""
    _check_alignment(panel, graph.node_ids, "graph")
    return _impute_by_distances(panel, static_embedding_distances(graph, r), kind)


def instantaneous_similarity(a, b):
    """Similarity of two normalized readings: 1 - |a - b|."""
    return 1.0 - np.abs(a - b)


class _WeightedRowImputer:
    """Shared per-row machinery for the time-varying graph estimator.

    Holds everything that is constant across rows: topology, kernel,
    dimension, weight floor, and the static-graph distances used when a
    sensor ends up outside any embeddable component.  `impute_rows` takes
    many rows at once when every edge is live; `impute_row` handles one
    row whatever its graph.
    """

    def __init__(self, graph: FarmGraph, kind: str, r: int, weight_floor: float):
        self.n = graph.n
        self.ei, self.ej = graph.edge_index_arrays()
        self.kind = kind
        self.r = r
        self.weight_floor = weight_floor
        self.static_dist = static_embedding_distances(graph, r)

    def batchable(self, obs, edge_weights) -> np.ndarray:
        """(B,) bool: rows that `impute_rows` takes, the rest `impute_row`.

        A row qualifies when it has an observed sensor and every edge
        weight clears the floor, on a farm of 3 to DENSE_SOLVER_MAX
        sensors.  Smaller farms copy a lone neighbor, and larger ones embed
        each row with the iterative solver.
        """
        if not 3 <= self.n <= spectral.DENSE_SOLVER_MAX:
            return np.zeros(len(obs), dtype=bool)
        return obs.any(axis=1) & (edge_weights > self.weight_floor).all(axis=1)

    def impute_rows(self, values, obs, edge_weights):
        """`impute_row` for a batch of rows that are all `batchable`.

        With every weight above the floor each row's graph is the static
        graph, which is connected: one component over all sensors, so one
        batched eigendecomposition embeds the whole batch.

        Args:
            values: (B, N) readings; entries where `obs` is False are
                ignored.
            obs: (B, N) bool availability.
            edge_weights: (B, E) similarity weights, all > weight_floor.

        Returns:
            (estimates, codes), both (B, N), laid out as `impute_row`
            lays out one row.
        """
        coords = batched_coordinates(edge_weights, self.ei, self.ej, self.n, self.r)
        rows, targets = np.nonzero(~obs)
        dist = target_distances(coords[rows], targets)
        weights, fallback = kernel_weight_rows(self.kind, dist, obs[rows])
        estimates = np.full(obs.shape, np.nan)
        codes = np.zeros(obs.shape, dtype=np.int8)
        vals = np.where(obs, values, 0.0)
        estimates[rows, targets] = (weights * vals[rows]).sum(axis=1)
        codes[rows, targets] = np.where(
            fallback, int(Provenance.UNIFORM_FALLBACK), int(Provenance.WEIGHTED_KNN)
        )
        return estimates, codes

    def impute_row(self, values_row, obs_row, edge_weights):
        """Estimates and provenance for one row's missing sensors.

        Args:
            values_row: (N,) readings, NaN at missing sensors.
            obs_row: (N,) bool availability.
            edge_weights: (E,) similarity weight per graph edge, revealed
                or guessed, in [0, 1].

        Returns:
            (estimates, codes): (N,) float with estimates at missing
            positions (NaN if unimputable) and (N,) int8 provenance codes
            for those positions (0 elsewhere).
        """
        n = self.n
        estimates = np.full(n, np.nan)
        codes = np.zeros(n, dtype=np.int8)
        missing = np.flatnonzero(~obs_row)
        if missing.size == 0:
            return estimates, codes
        keep = edge_weights > self.weight_floor
        if keep.all():
            # Every edge is live, so the row's graph is the static graph,
            # which is connected: one component, no union-find needed.
            ei_k, ej_k, w_k = self.ei, self.ej, edge_weights
            labels = np.zeros(n, dtype=int)
        else:
            ei_k, ej_k, w_k = self.ei[keep], self.ej[keep], edge_weights[keep]
            labels = component_labels(n, ei_k, ej_k)
        a_full = np.zeros((n, n))
        a_full[ei_k, ej_k] = w_k
        a_full[ej_k, ei_k] = w_k
        vals = np.where(obs_row, values_row, 0.0)
        for comp in np.unique(labels[missing]):
            members = np.flatnonzero(labels == comp)
            miss = members[~obs_row[members]]
            obs = members[obs_row[members]]
            if members.size >= 3 and obs.size > 0:
                a_sub = a_full[np.ix_(members, members)]
                r_base = min(self.r, members.size - 1)
                eigenvalues, vectors = _spectrum_for_adjacency(a_sub, r_base)
                r_eff = widen_to_degenerate_group(eigenvalues, r_base)
                coords = vectors[:, 1 : r_eff + 1]
                local = {node: row for row, node in enumerate(members)}
                obs_coords = coords[[local[o] for o in obs]]
                for l in miss:
                    d = np.linalg.norm(obs_coords - coords[local[l]], axis=1)
                    weights, fallback = kernel_weight_rows(
                        self.kind, d[None, :], np.ones((1, obs.size), dtype=bool)
                    )
                    estimates[l] = float(weights[0] @ vals[obs])
                    codes[l] = int(
                        Provenance.UNIFORM_FALLBACK
                        if fallback[0]
                        else Provenance.WEIGHTED_KNN
                    )
            elif members.size == 2 and obs.size == 1:
                estimates[miss[0]] = vals[obs[0]]
                codes[miss[0]] = int(Provenance.SMALL_COMPONENT_COPY)
            else:
                # Isolated sensors and components with nothing observed:
                # fall back to the fixed graph over whatever is observed.
                all_obs = np.flatnonzero(obs_row)
                for l in miss:
                    if all_obs.size == 0:
                        codes[l] = int(Provenance.UNIMPUTABLE)
                        continue
                    d = self.static_dist[l, all_obs]
                    weights, _ = kernel_weight_rows(
                        self.kind, d[None, :], np.ones((1, all_obs.size), dtype=bool)
                    )
                    estimates[l] = float(weights[0] @ vals[all_obs])
                    codes[l] = int(Provenance.STATIC_GRAPH_FALLBACK)
        return estimates, codes


def revealed_similarity_rows(panel: Panel, graph: FarmGraph) -> np.ndarray:
    """(T, E) edge similarities where both endpoints are observed, else NaN."""
    ei, ej = graph.edge_index_arrays()
    both = panel.mask[:, ei] & panel.mask[:, ej]
    sims = instantaneous_similarity(panel.values[:, ei], panel.values[:, ej])
    return np.where(both, sims, np.nan)


def impute_weighted_graph(
    panel: Panel,
    graph: FarmGraph,
    kind: str = "triweight",
    r: int = 2,
    tracker: SimilarityTracker | None = None,
    eta: float = 0.5,
    weight_floor: float = DEFAULT_WEIGHT_FLOOR,
) -> tuple[ImputationResult, SimilarityTracker]:
    """Impute with per-timestep similarity-weighted graphs.

    At each row, edges between two observed sensors carry the revealed
    similarity; every other edge carries the tracker's guess as it stood
    before that row.  The tracker learns only from revealed similarities,
    so the value being imputed never feeds its own weights, and the guess
    sequence does not depend on the estimates.  Rows are therefore taken
    in blocks: the tracker is replayed over a block first, then every
    holed row of it whose edges all clear `weight_floor` is embedded in one
    batched eigendecomposition.  Rows where an edge drops out, rows with
    nothing observed, and farms under 3 or over `DENSE_SOLVER_MAX` sensors
    go one row at a time through the per-component path.

    Args:
        tracker: state to continue from; a fresh one (rate `eta`) is made
            when omitted.  Updated in place and returned.

    Raises:
        InputError: if the tracker's edges do not match the graph's.
    """
    _check_alignment(panel, graph.node_ids, "graph")
    if tracker is None:
        tracker = SimilarityTracker.for_graph(graph, eta=eta)
    if tracker.edge_ids != graph.edge_ids:
        raise InputError("tracker edges do not match the graph")
    worker = _WeightedRowImputer(graph, kind, r, weight_floor)
    revealed = revealed_similarity_rows(panel, graph)
    filled = panel.values.copy()
    provenance = np.zeros(panel.values.shape, dtype=np.int8)
    step = batch_rows(panel.n_sensors)
    for start in range(0, panel.t_len, step):
        block = revealed[start : start + step]
        guesses, _ = tracker.replay(block)
        weights = np.where(np.isnan(block), guesses, block)
        mask = panel.mask[start : start + step]
        values = panel.values[start : start + step]
        holed = ~mask.all(axis=1)
        fast = holed & worker.batchable(mask, weights)
        if fast.any():
            estimates, codes = worker.impute_rows(
                values[fast], mask[fast], weights[fast]
            )
            t = start + np.flatnonzero(fast)
            filled[t] = np.where(mask[fast], values[fast], estimates)
            provenance[t] = codes
        for b in np.flatnonzero(holed & ~fast):
            estimates, codes = worker.impute_row(values[b], mask[b], weights[b])
            filled[start + b] = np.where(mask[b], values[b], estimates)
            provenance[start + b] = codes
    return (
        ImputationResult(panel.sensor_ids, panel.timestamps, filled, provenance),
        tracker,
    )


def impute_sampling(weights: WeightVector, observed: dict[str, float], seed: int) -> float:
    """Draw one neighbor's value with probability equal to its weight.

    Deterministic for a given seed.  A stochastic alternative to the
    weighted mean that preserves the neighbor-value distribution.

    Raises:
        InputError: if the weight and value keys disagree.
    """
    ids = list(weights.weights)
    if set(ids) != set(observed):
        raise InputError("sampling weights and observed values disagree on ids")
    p = np.array([weights.weights[i] for i in ids], dtype=float)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    choice = ids[int(rng.choice(len(ids), p=p))]
    return float(observed[choice])


def run_estimator(
    panel: Panel,
    config: EstimatorConfig,
    layout: FarmLayout | None = None,
    graph: FarmGraph | None = None,
    tracker: SimilarityTracker | None = None,
) -> ImputationResult:
    """Dispatch one configured estimator over a panel.

    Raises:
        ConfigError: when the method needs a layout or graph not given.
    """
    if config.method == "naive":
        return impute_naive(panel)
    if config.method == "location":
        if layout is None:
            raise ConfigError("location method needs a layout")
        return impute_location(panel, layout, config.kernel)
    if config.method == "unweighted_graph":
        if graph is None:
            raise ConfigError("unweighted_graph method needs a graph")
        return impute_unweighted_graph(panel, graph, config.kernel, config.r)
    if graph is None:
        raise ConfigError("weighted_graph method needs a graph")
    result, _ = impute_weighted_graph(
        panel,
        graph,
        kind=config.kernel,
        r=config.r,
        tracker=tracker,
        eta=config.learning_rate,
        weight_floor=config.weight_floor,
    )
    return result
