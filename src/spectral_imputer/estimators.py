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
`make_estimator` builds the configured estimator, which sizes its own
blocks of rows; weighted_graph's also owns the similarity tracker and
replays it over each block.  `_blocks` walks the panel in those blocks
and runs the estimator on every hole for imputation and on the hidden
cells for leave-one-out evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import IntEnum

import numpy as np

from .errors import ConfigError, InputError
from .graph import FarmGraph, FarmLayout, component_labels, components, pairwise_distances
from .kernels import KERNEL_NAMES, KERNEL_SUM_FLOOR, WeightVector
from .kernels import kernel_weight_rows, kernel_weight_table
from .online import ETA_ERROR, ETA_MAX, SimilarityTracker
from .spectral import (
    DENSE_SOLVER_MAX,
    batch_rows,
    batched_coordinates,
    component_coordinates,
    graph_block_rows,
    target_distances,
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
        self._check_cells()
        keys = timestamp_keys(self.timestamps)
        for k in range(1, len(keys)):
            if not keys[k - 1] < keys[k]:
                raise InputError("timestamps must be strictly increasing", row=k)

    def _check_cells(self):
        """Normalize and check every field but the timestamps' order."""
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
        tags = np.bincount(self.provenance.ravel(), minlength=len(Provenance))
        return {p.label: int(tags[p]) for p in Provenance if tags[p]}


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
        if not 0 < self.learning_rate <= ETA_MAX:
            raise ConfigError(ETA_ERROR)
        if not self.weight_floor >= 0:
            raise ConfigError("weight floor must be >= 0")


def _check_connected(graph: FarmGraph):
    """ConfigError unless connected: separate components have no distance."""
    part = components(graph)
    if part.count != 1:
        raise ConfigError(
            "the sensor graph must be connected for fixed-graph embedding "
            f"distances; found {part.count} components"
        )


def static_embedding_distances(graph: FarmGraph, r: int) -> np.ndarray:
    """Pairwise distances in the fixed graph's embedding; ConfigError if not connected."""
    _check_connected(graph)
    if graph.n < 3:
        # Too small to embed; zero distances make every neighbor equal,
        # which the kernel stage resolves with uniform weights.
        return np.zeros((graph.n, graph.n))
    ei, ej = graph.edge_index_arrays()
    return pairwise_distances(
        batched_coordinates(graph.weight_array()[None], ei, ej, graph.n, r)[0]
    )


def _check_alignment(panel_ids, ids, what: str):
    if panel_ids != tuple(ids):
        raise InputError(
            f"panel sensors do not match the {what}: {panel_ids} vs {tuple(ids)}"
        )


def _kernel_fill(kind: str, dist, values, obs):
    """Kernel-weighted means over each target cell's observed neighbors.

    Args:
        dist, values, obs: (C, M) distances from each target cell to its
            candidate neighbors, their readings (finite, and ignored where
            `obs` is False) and their availability, >= 1 per row.

    Returns:
        (estimates, codes), both (C,): uniform_fallback where the kernel
        weights vanished, weighted_knn elsewhere.
    """
    weights, fallback = kernel_weight_rows(kind, dist, obs)
    codes = np.where(
        fallback, int(Provenance.UNIFORM_FALLBACK), int(Provenance.WEIGHTED_KNN)
    )
    return (weights * values).sum(axis=1), codes


# Every estimator holds `block_rows`, the rows per block `_blocks` walks
# it over, and answers `estimate(values, obs, rows, targets)`: values and
# obs are (B, N) row arrays, values finite and ignored where obs is False;
# cell c is sensor targets[c] of row rows[c].  It returns (C,) estimates
# and provenance codes.  `_blocks` calls it on every block in order, with
# cells or none, so weighted_graph's tracker sees every row.  A cell's
# row observes another sensor, and its own is never its neighbor: one
# more hole in leave-one-out, none in `impute`.


class _MeanEstimator:
    """naive: the plain mean of the row's other observed sensors.

    Its estimates do not depend on its blocks, but leave-one-out adds up
    its errors block by block, so the blocks fix its reports' last bits:
    `batch_rows(n)` rows up to DENSE_SOLVER_MAX, and above it as many as
    per-row work with no edges takes.
    """

    def __init__(self, n: int):
        self.block_rows = batch_rows(n) if n <= DENSE_SOLVER_MAX else graph_block_rows(n, 0)

    def estimate(self, values, obs, rows, targets):
        own = obs[rows, targets]
        sums = (values * obs).sum(axis=1)[rows] - np.where(own, values[rows, targets], 0.0)
        counts = obs.sum(axis=1)[rows] - own
        return sums / counts, np.full(rows.size, int(Provenance.WEIGHTED_KNN))


class _FixedDistanceEstimator:
    """location and unweighted_graph: one (N, N) distance matrix for all rows.

    A cell whose row observes a sensor furthest from its target takes its
    weights from `kernel_weight_table`, so a block's kernel sums are matrix
    products; the other cells take `_kernel_fill`, on (C, N) arrays with C
    up to B·N, so blocks hold `batch_rows(N)` rows at any farm size.
    """

    def __init__(self, kind: str, dist: np.ndarray):
        self.kind = kind
        self.dist = dist
        self.block_rows = batch_rows(len(dist))
        self.weights, self.far_sets = kernel_weight_table(kind, dist)

    def estimate(self, values, obs, rows, targets):
        seen = obs.astype(float)
        total = (seen @ self.weights.T)[rows, targets]
        fast = ((seen @ self.far_sets.T)[rows, targets] > 0) & (total >= KERNEL_SUM_FLOOR)
        sums = ((values * seen) @ self.weights.T)[rows, targets]
        estimates = sums / np.where(fast, total, 1.0)
        codes = np.full(rows.size, int(Provenance.WEIGHTED_KNN), dtype=np.int8)
        slow = np.flatnonzero(~fast)
        if slow.size:
            at, own = rows[slow], targets[slow]
            others = obs[at] & (np.arange(obs.shape[1]) != own[:, None])
            estimates[slow], codes[slow] = _kernel_fill(
                self.kind, self.dist[own], values[at], others
            )
        return estimates, codes


def _edge_similarities(values, obs, ei, ej):
    """(B, E) similarity 1 - |a - b| of each edge's normalized readings a, b
    where both ends are observed, else NaN."""
    both = obs[:, ei] & obs[:, ej]
    return np.where(both, 1.0 - np.abs(values[:, ei] - values[:, ej]), np.nan)


class _WeightedRowImputer:
    """weighted_graph: per-row embeddings of the similarity-weighted graph.

    Holds everything that is constant across rows: topology, kernel,
    dimension, weight floor, and the static-graph distances used when a
    sensor ends up outside any embeddable component, built on first use;
    and the similarity tracker, which `estimate` replays over each block.
    It embeds the rows whose graph is whole in one `batched_coordinates`
    call, and sends the rest to `impute_row`, which handles one row
    whatever its graph.
    """

    def __init__(self, graph: FarmGraph, kind: str, r: int, weight_floor: float, tracker):
        _check_connected(graph)
        self.tracker = tracker
        self.graph = graph
        self.n = graph.n
        self.ei, self.ej = graph.edge_index_arrays()
        self.block_rows = graph_block_rows(self.n, self.ei.size)
        self.kind = kind
        self.r = r
        self.weight_floor = weight_floor
        self.static_dist = None

    def estimate(self, values, obs, rows, targets):
        """Replay the tracker over the block, then estimate its cells.

        The tracker sees the block's revealed similarities only, so a
        value never feeds its own weights: a row's edge weights are its
        revealed similarities, with the guesses played before it on the
        other edges.  Hiding a sensor puts the guesses on its edges: each
        cell then gets its own copy of its row, made `block_rows` cells at
        a time.
        """
        weights = _edge_similarities(values, obs, self.ei, self.ej)
        guesses, _ = self.tracker.replay(weights)
        np.copyto(weights, guesses, where=np.isnan(weights))
        if not obs[rows, targets].any():
            return self._embed_cells(values, obs, rows, targets, weights)
        bounds = range(self.block_rows, rows.size, self.block_rows)
        parts = []
        for at, own in zip(np.split(rows, bounds), np.split(targets, bounds)):
            touched = (self.ei == own[:, None]) | (self.ej == own[:, None])
            hidden = obs[at]
            hidden[np.arange(at.size), own] = False
            cells = np.arange(at.size)
            hidden_weights = np.where(touched, guesses[at], weights[at])
            parts.append(self._embed_cells(values[at], hidden, cells, own, hidden_weights))
        return tuple(map(np.concatenate, zip(*parts)))

    def _embed_cells(self, values, obs, rows, targets, weights):
        """Estimate cells of rows embedded together, the rest by `impute_row`.

        A row is embedded with the others when it has an observed sensor
        and every edge weight clears the floor, on a farm of at least 3
        sensors.  With every edge live the row's graph is the static
        graph, which is connected, so one `batched_coordinates` call
        embeds them all, whatever the farm size; it alone picks the
        solver.  Farms under 3 sensors copy a lone neighbor instead.
        """
        embeddable = obs.any(axis=1) & (weights > self.weight_floor).all(axis=1)
        fast = embeddable[rows] & (self.n >= 3)
        estimates = np.empty(rows.size)
        codes = np.empty(rows.size, dtype=np.int8)
        batch = np.unique(rows[fast])
        coords = batched_coordinates(weights[batch], self.ei, self.ej, self.n, self.r)
        at = rows[fast]
        dist = target_distances(coords[np.searchsorted(batch, at)], targets[fast])
        estimates[fast], codes[fast] = _kernel_fill(self.kind, dist, values[at], obs[at])
        slow = np.unique(rows[~fast])
        row_estimates = np.empty((slow.size, self.n))
        row_codes = np.empty((slow.size, self.n), dtype=np.int8)
        for k, b in enumerate(slow):
            row_estimates[k], row_codes[k] = self.impute_row(values[b], obs[b], weights[b])
        k = np.searchsorted(slow, rows[~fast])
        estimates[~fast] = row_estimates[k, targets[~fast]]
        codes[~fast] = row_codes[k, targets[~fast]]
        return estimates, codes

    def impute_row(self, values_row, obs_row, edge_weights):
        """Estimates and provenance for one row's missing sensors.

        Args:
            values_row: (N,) readings; entries where `obs_row` is False
                are ignored.
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
        observed = np.flatnonzero(obs_row)
        if missing.size == 0 or observed.size == 0:
            # Nothing to fill, or nothing to fill it from.
            codes[missing] = int(Provenance.UNIMPUTABLE)
            return estimates, codes
        keep = edge_weights > self.weight_floor
        ei_k, ej_k, w_k = self.ei[keep], self.ej[keep], edge_weights[keep]
        labels = component_labels(n, ei_k, ej_k)
        vals = np.where(obs_row, values_row, 0.0)
        for comp in np.unique(labels[missing]):
            members = np.flatnonzero(labels == comp)
            inside = obs_row[members]
            miss, obs = members[~inside], members[inside]
            if members.size >= 3 and obs.size > 0:
                coords = component_coordinates(w_k, ei_k, ej_k, labels == comp, self.r)
                d = np.linalg.norm(coords[inside] - coords[~inside][:, None], axis=2)
                estimates[miss], codes[miss] = _kernel_fill(
                    self.kind, d, np.broadcast_to(vals[obs], d.shape), np.ones(d.shape, bool)
                )
            elif members.size == 2 and obs.size == 1:
                estimates[miss[0]] = vals[obs[0]]
                codes[miss[0]] = int(Provenance.SMALL_COMPONENT_COPY)
            else:
                # Isolated sensors and components with nothing observed:
                # fall back to the fixed graph over whatever is observed.
                if self.static_dist is None:
                    self.static_dist = static_embedding_distances(self.graph, self.r)
                d = self.static_dist[np.ix_(miss, observed)]
                estimates[miss], _ = _kernel_fill(
                    self.kind, d, np.broadcast_to(vals[observed], d.shape), np.ones(d.shape, bool)
                )
                codes[miss] = int(Provenance.STATIC_GRAPH_FALLBACK)
        return estimates, codes


def make_estimator(
    config: EstimatorConfig,
    sensor_ids,
    layout: FarmLayout | None = None,
    graph: FarmGraph | None = None,
    tracker: SimilarityTracker | None = None,
):
    """The estimator `config` names, for a panel with these sensors.

    Args:
        tracker: weighted_graph only: the state to continue from, updated
            in place as blocks are estimated; a fresh one (rate
            `config.learning_rate`) when omitted.

    Raises:
        ConfigError: when the method needs a layout or graph not given,
            or a graph method's graph is not connected.
        InputError: when the sensors do not match the layout or graph,
            or the tracker's edges do not match the graph.
    """
    if config.method == "naive":
        return _MeanEstimator(len(sensor_ids))
    if config.method == "location":
        if layout is None:
            raise ConfigError("method 'location' needs a farm layout")
        _check_alignment(sensor_ids, layout.ids, "layout")
        dist = pairwise_distances(layout.positions())
        return _FixedDistanceEstimator(config.kernel, dist)
    if graph is None:
        raise ConfigError(f"method {config.method!r} needs a sensor graph")
    _check_alignment(sensor_ids, graph.node_ids, "graph")
    if config.method == "unweighted_graph":
        dist = static_embedding_distances(graph, config.r)
        return _FixedDistanceEstimator(config.kernel, dist)
    if tracker is None:
        tracker = SimilarityTracker.for_graph(graph, eta=config.learning_rate)
    elif tracker.edge_ids != graph.edge_ids:
        raise InputError("tracker edges do not match the graph")
    return _WeightedRowImputer(graph, config.kernel, config.r, config.weight_floor, tracker)


def _blocks(panel: Panel, estimator, cells):
    """Yield (start, values, mask, rows, targets, estimates, codes) per block.

    Blocks hold the estimator's `block_rows` rows, which bounds every
    per-block array; values are their readings, 0 where unobserved.
    `cells(start, mask)` picks a block's cells as (rows, targets).  Every
    block goes to the estimator in order, with cells or none, so a
    weighted estimator's tracker sees every row; only blocks with cells
    are yielded.  A block's arrays are dropped before the next is built.
    """
    step = estimator.block_rows
    for start in range(0, panel.t_len, step):
        mask = panel.mask[start : start + step]
        values = np.where(mask, panel.values[start : start + step], 0.0)
        rows, targets = cells(start, mask)
        estimates, codes = estimator.estimate(values, mask, rows, targets)
        if rows.size:
            yield start, values, mask, rows, targets, estimates, codes
        del mask, values, rows, targets, estimates, codes


def run_estimator(
    panel: Panel,
    config: EstimatorConfig,
    layout: FarmLayout | None = None,
    graph: FarmGraph | None = None,
    tracker: SimilarityTracker | None = None,
) -> ImputationResult:
    """Fill every hole of the panel with the configured estimator.

    The estimator runs over the holes of each of `_blocks`.  A row with
    nothing observed has no neighbor to draw on, so its cells stay NaN,
    tagged unimputable, whatever the method.  Each row is estimated with
    the guesses the tracker played before it.

    Args:
        tracker: weighted_graph only, as `make_estimator` takes it.

    Raises:
        ConfigError: when the method needs a layout or graph not given.
        InputError: when the panel's sensors or the tracker's edges do
            not match.
    """
    estimator = make_estimator(config, panel.sensor_ids, layout, graph, tracker)
    filled = panel.values.copy()
    provenance = np.where(
        panel.mask, int(Provenance.OBSERVED), int(Provenance.UNIMPUTABLE)
    ).astype(np.int8)

    def holes(start, mask):
        return np.nonzero(~mask & mask.any(axis=1, keepdims=True))

    for start, _, _, rows, targets, estimates, codes in _blocks(panel, estimator, holes):
        filled[start + rows, targets] = estimates
        provenance[start + rows, targets] = codes
    return ImputationResult(panel.sensor_ids, panel.timestamps, filled, provenance)


def impute_naive(panel: Panel) -> ImputationResult:
    """Arithmetic mean of the row's observed sensors."""
    return run_estimator(panel, EstimatorConfig("naive"))


def revealed_similarity_rows(panel: Panel, graph: FarmGraph) -> np.ndarray:
    """(T, E) edge similarities where both endpoints are observed, else NaN."""
    ei, ej = graph.edge_index_arrays()
    return _edge_similarities(panel.values, panel.mask, ei, ej)


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
    before that row.  The guess sequence does not depend on the estimates,
    so rows are taken in blocks: the tracker is replayed over a block
    first, then every holed row of it whose edges all clear `weight_floor`
    is embedded in one `batched_coordinates` call.  Rows where an edge
    drops out, and farms under 3 sensors, go one row at a time through
    the per-component path.

    Args:
        tracker: state to continue from; a fresh one (rate `eta`) is made
            when omitted.  Updated in place and returned.

    Raises:
        InputError: if the tracker's edges do not match the graph's.
    """
    if tracker is None:
        tracker = SimilarityTracker.for_graph(graph, eta=eta)
    config = EstimatorConfig("weighted_graph", kind, r, eta, weight_floor)
    return run_estimator(panel, config, graph=graph, tracker=tracker), tracker


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
