"""Spectral embeddings of the sensor graph.

The generalized eigenproblem L f = lambda D f is reduced to an ordinary
symmetric one: with u = D^(1/2) f, solve (D^(-1/2) L D^(-1/2)) u = lambda u
and map back f = D^(-1/2) u.  Eigenvectors come out D-orthonormal
(f_i^T D f_j = delta_ij) and the reduced matrix is symmetric, so the solver
is the reliable symmetric path rather than a general nonsymmetric one.

An embedding drops the constant eigenvector and places each sensor at the
values the next r eigenvectors take on its node.  Eigenvalues closer than
DEGENERACY_TOL form a group whose eigenvectors only span a well-defined
subspace individually; a requested dimension that would split such a group
is widened to include it whole, which keeps pairwise embedding distances
basis-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDegreeError, InputError
from .graph import ComponentPartition, FarmGraph, adjacency

# Full dense spectrum up to this many nodes; iterative partial solves beyond.
DENSE_SOLVER_MAX = 200
# Eigenvalues within this of each other are treated as one degenerate group.
DEGENERACY_TOL = 1e-9
# Batched eigendecompositions take as many rows as keep one (B, n, n)
# float64 stack near this size; a few such stacks are live at once, so
# this bounds their memory whatever the farm size.
BATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class EigenSolution:
    """Full spectrum of L f = lambda D f for one connected graph.

    `eigenvalues` ascend; column k of `vectors` is the eigenvector f_k,
    normalized to f_k^T D f_k = 1 with the sign convention that its largest-
    magnitude component is positive (ties: lowest node index wins).
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    mags = np.abs(vectors)
    top = mags.max(axis=0)
    # Near-ties resolve to the lowest node index, so orientations that are
    # tied in exact arithmetic are not left to rounding noise.
    lead = np.argmax(mags >= top * (1.0 - 1e-12), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _degree_vector(degrees) -> np.ndarray:
    d = np.asarray(degrees, dtype=float)
    if d.ndim == 2:
        if not np.array_equal(d, np.diag(np.diag(d))):
            raise InputError("degree matrix has off-diagonal entries")
        d = np.diag(d).copy()
    if np.any(~np.isfinite(d)) or np.any(d <= 0):
        raise DegenerateDegreeError(
            "every node needs a strictly positive degree; "
            "an isolated node cannot be embedded"
        )
    return d


def solve_generalized(L, D) -> EigenSolution:
    """Solve L f = lambda D f by symmetric reduction, full spectrum.

    Args:
        L: (m, m) symmetric Laplacian.
        D: degree matrix, or just its diagonal as a vector; all entries
            must be strictly positive.

    Raises:
        DegenerateDegreeError: on a zero or negative degree.
        InputError: on a non-symmetric L or malformed D.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise InputError(f"Laplacian must be square, got shape {L.shape}")
    if not np.allclose(L, L.T, atol=1e-10):
        raise InputError("Laplacian must be symmetric")
    d = _degree_vector(D)
    if d.shape[0] != L.shape[0]:
        raise InputError("degree vector length does not match Laplacian")
    s = 1.0 / np.sqrt(d)
    reduced = s[:, None] * L * s[None, :]
    reduced = (reduced + reduced.T) / 2.0
    eigenvalues, u = np.linalg.eigh(reduced)
    vectors = _fix_signs(s[:, None] * u)
    return EigenSolution(eigenvalues, vectors)


def widen_to_degenerate_group(eigenvalues, k, tol=DEGENERACY_TOL) -> int:
    """Smallest k' >= k such that eigenvectors 1..k' cover whole groups.

    `k` counts embedding dimensions, i.e. eigenvector indices 1..k are in
    use; the group containing index k is extended until a gap > tol.
    """
    m = len(eigenvalues)
    while k + 1 < m and eigenvalues[k + 1] - eigenvalues[k] <= tol:
        k += 1
    return k


@dataclass(frozen=True)
class Embedding:
    """Coordinates of one connected component's sensors.

    `coordinates[sensor_id]` is an r_eff-vector; r_eff can fall below the
    requested r on small components (at most size - 1 dimensions exist) and
    can exceed it when the cut would have split a degenerate eigenvalue
    group.
    """

    coordinates: dict[str, np.ndarray]
    r_requested: int
    r_eff: int
    component_index: int

    def distance(self, a: str, b: str) -> float:
        """Euclidean distance between two member sensors.

        Raises:
            KeyError: if either sensor is not in this component.
        """
        for sid in (a, b):
            if sid not in self.coordinates:
                raise KeyError(
                    f"sensor {sid!r} is not in this embedding's component"
                )
        return float(
            np.linalg.norm(self.coordinates[a] - self.coordinates[b])
        )


def batch_rows(n: int) -> int:
    """Rows per batched eigendecomposition of n-node graphs."""
    return max(1, BATCH_BYTES // (8 * n * n))


def batched_coordinates(weights, ei, ej, n: int, r: int) -> np.ndarray:
    """Embedding coordinates of many weightings of one connected edge set.

    Every weight must be strictly positive, so each row of `weights` is one
    connected graph over all n nodes and the whole batch reduces to a single
    batched symmetric eigendecomposition.  Each row's dimension is widened
    to its degenerate group exactly as `embed` widens it.

    Args:
        weights: (B, E) edge weights, all > 0.
        ei, ej: (E,) endpoint indices of the edges, which connect all n
            nodes.
        n: node count, >= 2.
        r: requested embedding dimension, >= 1.

    Returns:
        (B, n, k) coordinates, k the largest effective dimension in the
        batch; a row's columns beyond its own effective dimension are zero,
        so distances over all k columns are distances in its own embedding.
    """
    a = np.zeros((weights.shape[0], n, n))
    a[:, ei, ej] = weights
    a[:, ej, ei] = weights
    s = 1.0 / np.sqrt(a.sum(axis=2))
    # I - S A S, exactly symmetric because s_i * s_j == s_j * s_i.
    a *= s[:, :, None] * s[:, None, :]
    np.negative(a, out=a)
    idx = np.arange(n)
    a[:, idx, idx] = 1.0
    eigenvalues, u = np.linalg.eigh(a)
    base = min(r, n - 1)
    chained = np.diff(eigenvalues[:, base:], axis=1) <= DEGENERACY_TOL
    r_eff = base + np.cumprod(chained, axis=1).sum(axis=1)
    k = int(r_eff.max())
    live = np.arange(k)[None, None, :] < r_eff[:, None, None]
    return np.where(live, u[:, :, 1 : k + 1] * s[:, :, None], 0.0)


def target_distances(coords: np.ndarray, targets) -> np.ndarray:
    """(C, n) distances from node targets[c] to every node of coords[c].

    Squares are summed one dimension at a time, so zero columns appended
    by `batched_coordinates` change no bit of the result, whichever rows
    shared a batch.
    """
    diff = coords - coords[np.arange(coords.shape[0]), targets][:, None, :]
    d2 = np.zeros(coords.shape[:2])
    for j in range(coords.shape[2]):
        d2 += diff[:, :, j] ** 2
    return np.sqrt(d2)


def _component_submatrix(graph, members, weight_floor):
    a = adjacency(graph)[np.ix_(members, members)]
    a[a <= weight_floor] = 0.0
    return a


def _spectrum_for_adjacency(a: np.ndarray, need: int):
    """(eigenvalues, vectors) with at least `need`+1 leading pairs valid.

    Dense full solve up to DENSE_SOLVER_MAX nodes; a shift-inverted
    iterative solve beyond, fetching enough extra pairs to expose the gap
    after the last requested eigenvector.
    """
    m = a.shape[0]
    degrees = a.sum(axis=0)
    if m <= DENSE_SOLVER_MAX:
        sol = solve_generalized(np.diag(degrees) - a, degrees)
        return sol.eigenvalues, sol.vectors
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    d = _degree_vector(degrees)
    s = 1.0 / np.sqrt(d)
    reduced = s[:, None] * (np.diag(d) - a) * s[None, :]
    reduced = (reduced + reduced.T) / 2.0
    sparse = csr_matrix(reduced)
    v0 = np.full(m, 1.0 / np.sqrt(m))  # fixed start keeps runs reproducible
    k = min(m - 1, need + 2)
    while True:
        vals, u = eigsh(sparse, k=k, sigma=-0.01, which="LM", v0=v0)
        order = np.argsort(vals)
        vals, u = vals[order], u[:, order]
        # Enough if the widened group boundary sits strictly inside what
        # was fetched; otherwise fetch more and retry.
        boundary = widen_to_degenerate_group(vals, min(need, k - 1))
        if boundary + 1 < k:
            return vals, _fix_signs(s[:, None] * u)
        if k >= m - 1:
            # Group runs past what eigsh can expose; settle it densely.
            sol = solve_generalized(np.diag(d) - a, d)
            return sol.eigenvalues, sol.vectors
        k = min(m - 1, k * 2)


def embed(graph: FarmGraph, partition: ComponentPartition, r: int) -> list[Embedding]:
    """Embed every component of size >= 3; smaller ones yield nothing.

    Components of size 1 or 2 admit no useful spectrum (after dropping the
    constant eigenvector nothing, or a single sign, remains); callers are
    expected to detect them via the partition and fall back.

    Args:
        graph: weighted or unweighted sensor graph.
        partition: its components; the partition's weight floor decides
            which edges enter each component's submatrix.
        r: requested embedding dimension, >= 1.

    Raises:
        ConfigError: if r < 1.
    """
    if r < 1:
        raise ConfigError(f"embedding dimension must be >= 1, got {r}")
    out = []
    for comp in range(partition.count):
        members = partition.members(comp)
        m = len(members)
        if m < 3:
            continue
        a = _component_submatrix(graph, members, partition.weight_floor)
        r_base = min(r, m - 1)
        eigenvalues, vectors = _spectrum_for_adjacency(a, r_base)
        r_eff = widen_to_degenerate_group(eigenvalues, r_base)
        coords = vectors[:, 1 : r_eff + 1]
        out.append(
            Embedding(
                coordinates={
                    graph.node_ids[node]: coords[row].copy()
                    for row, node in enumerate(members)
                },
                r_requested=r,
                r_eff=r_eff,
                component_index=comp,
            )
        )
    return out
