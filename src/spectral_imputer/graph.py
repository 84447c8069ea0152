"""Farm layouts and the a-priori sensor graph.

A layout is the ordered roster of sensors with geographic coordinates and
nominal capacities.  A graph over that roster is a set of undirected edges,
optionally weighted, with node order inherited from the layout.  Node order
is load-bearing: adjacency matrices, Laplacians, and component labels all
index by it, and every consumer downstream relies on it being stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


@dataclass(frozen=True)
class Sensor:
    """One sensor: identifier, geographic position, nominal capacity."""

    sensor_id: str
    latitude: float
    longitude: float
    nominal_capacity: float


@dataclass(frozen=True)
class FarmLayout:
    """Ordered roster of sensors.

    Args:
        sensors: sensors in file order; order defines node indices everywhere.

    Raises:
        InputError: on duplicate or empty ids, or non-positive capacity.
    """

    sensors: tuple[Sensor, ...]

    def __post_init__(self):
        seen = set()
        for s in self.sensors:
            if not s.sensor_id:
                raise InputError("sensor with empty id")
            if s.sensor_id in seen:
                raise InputError(f"duplicate sensor id {s.sensor_id!r}")
            seen.add(s.sensor_id)
            if not s.nominal_capacity > 0:
                raise InputError(
                    f"sensor {s.sensor_id!r} has non-positive capacity "
                    f"{s.nominal_capacity!r}"
                )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.sensor_id for s in self.sensors)

    @property
    def n(self) -> int:
        return len(self.sensors)

    def positions(self) -> np.ndarray:
        """(N, 2) array of (latitude, longitude) in layout order."""
        return np.array(
            [(s.latitude, s.longitude) for s in self.sensors], dtype=float
        )

    def capacities(self) -> np.ndarray:
        return np.array([s.nominal_capacity for s in self.sensors], dtype=float)


@dataclass(frozen=True)
class FarmGraph:
    """Undirected graph over a layout's sensors.

    Edges are canonical index pairs (i, j) with i < j, sorted; `weights`
    aligns with `edges` when present, else every edge counts as 1.
    """

    node_ids: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.weights is not None and len(self.weights) != len(self.edges):
            raise InputError(
                f"{len(self.weights)} weights for {len(self.edges)} edges"
            )

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def edge_ids(self) -> tuple[tuple[str, str], ...]:
        """Edges as (from_id, to_id) pairs in canonical order."""
        return tuple(
            (self.node_ids[i], self.node_ids[j]) for i, j in self.edges
        )

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint index vectors (ei, ej), each of length E."""
        if not self.edges:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        arr = np.asarray(self.edges, dtype=np.intp)
        return arr[:, 0], arr[:, 1]

    def weight_array(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(len(self.edges))
        return np.asarray(self.weights, dtype=float)

    def with_weights(self, weights) -> "FarmGraph":
        """Same topology with per-edge weights aligned to `edges`.

        Raises:
            InputError: if any weight falls outside [0, 1].
        """
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(self.edges),):
            raise InputError(
                f"expected {len(self.edges)} weights, got shape {w.shape}"
            )
        if np.any(~np.isfinite(w)) or np.any(w < 0) or np.any(w > 1):
            raise InputError("edge weights must lie in [0, 1]")
        return FarmGraph(self.node_ids, self.edges, tuple(float(x) for x in w))


def build_graph(layout: FarmLayout, edge_pairs) -> FarmGraph:
    """Build an unweighted graph from (from_id, to_id) pairs.

    Duplicate and reversed-duplicate pairs collapse to one edge.

    Raises:
        InputError: on unknown ids or self-loops.
    """
    index = {sid: i for i, sid in enumerate(layout.ids)}
    seen: set[tuple[int, int]] = set()
    for a, b in edge_pairs:
        if a not in index:
            raise InputError(f"edge references unknown sensor id {a!r}")
        if b not in index:
            raise InputError(f"edge references unknown sensor id {b!r}")
        i, j = index[a], index[b]
        if i == j:
            raise InputError(f"self-loop on sensor id {a!r}")
        seen.add((min(i, j), max(i, j)))
    return FarmGraph(layout.ids, tuple(sorted(seen)))


def adjacency(graph: FarmGraph) -> np.ndarray:
    """Symmetric N x N adjacency with zero diagonal."""
    a = np.zeros((graph.n, graph.n))
    ei, ej = graph.edge_index_arrays()
    w = graph.weight_array()
    a[ei, ej] = w
    a[ej, ei] = w
    return a


def component_labels(n: int, ei, ej) -> np.ndarray:
    """Component label per node for edges (ei[k], ej[k]) over range(n).

    Labels are assigned in order of each component's smallest member, so
    label 0 always contains node 0.
    """
    # Not scipy's csgraph: importing it would more than double `graph`'s start-up.
    # Each round hooks every edge's larger root onto its smaller one and lets
    # every node jump to its root, so each component ends at its smallest member.
    root = np.arange(n)
    while True:
        ra, rb = root[ei], root[ej]
        split = ra != rb
        if not split.any():
            return np.unique(root, return_inverse=True)[1]
        ra, rb = ra[split], rb[split]
        root[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while not np.array_equal(jumped := root[root], root):
            root = jumped


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of a graph under a weight floor.

    `labels[i]` is the component index of node i; component indices are
    ordered by smallest member, so they are deterministic for a given graph.
    `weight_floor` records the threshold the partition was computed with;
    embeddings built from this partition drop the same edges.
    """

    node_ids: tuple[str, ...]
    labels: tuple[int, ...]
    weight_floor: float

    @property
    def count(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    @property
    def assignments(self) -> dict[str, int]:
        return dict(zip(self.node_ids, self.labels))


def components(graph: FarmGraph, weight_floor: float = 0.0) -> ComponentPartition:
    """Partition nodes into components; edges with weight <= floor are absent."""
    if not weight_floor >= 0:
        raise ConfigError("weight floor must be >= 0")
    ei, ej = graph.edge_index_arrays()
    w = graph.weight_array()
    keep = w > weight_floor
    labels = component_labels(graph.n, ei[keep], ej[keep])
    return ComponentPartition(
        graph.node_ids, tuple(int(x) for x in labels), float(weight_floor)
    )


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of `points`; a pair whose
    sum of squares overflows is summed again scaled by its largest difference.

    Raises:
        InputError: if a distance overflows a float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        big = np.isinf(dist)
        scale = np.abs(diff[big]).max(axis=1)
        dist[big] = scale * np.sqrt(((diff[big] / scale[:, None]) ** 2).sum(axis=1))
    if not np.isfinite(dist).all():
        raise InputError("sensors lie too far apart: a distance overflows a float")
    return dist


def propose_grid_edges(
    layout: FarmLayout, mode: str = "king"
) -> list[tuple[str, str]]:
    """Propose edges connecting grid neighbors, for review.

    Connects sensor pairs whose Euclidean coordinate distance is within a
    multiple of the minimum pairwise spacing: 1.2x for "rook" (axis
    neighbors), 1.5x for "king" (axis plus diagonal).  The result is a
    proposal to inspect and edit, not a decision.

    Raises:
        InputError: on an unknown mode, fewer than two sensors, or
            coincident sensor positions (no usable minimum spacing).
    """
    factors = {"rook": 1.2, "king": 1.5}
    if mode not in factors:
        raise InputError(f"unknown proposal mode {mode!r}")
    if layout.n < 2:
        raise InputError("need at least two sensors to propose edges")
    dist = pairwise_distances(layout.positions())
    iu = np.triu_indices(layout.n, k=1)
    pairwise = dist[iu]
    if np.min(pairwise) <= 0:
        raise InputError("two sensors share a position; cannot infer spacing")
    cutoff = factors[mode] * float(np.min(pairwise))
    ids = layout.ids
    return [
        (ids[i], ids[j])
        for i, j in zip(*iu)
        if dist[i, j] <= cutoff
    ]
