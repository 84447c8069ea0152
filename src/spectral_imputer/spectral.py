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

Up to DENSE_SOLVER_MAX nodes each graph is solved densely, on its
reduced matrix I - S A S (S = D^(-1/2)) built from the edges.  An
embedding reads only pairs 1..r + 1: pair 0, eigenvalue 0 with vector
D^(1/2) 1 (Belkin & Niyogi, 2003), is known.  So from PARTIAL_SOLVER_MIN
nodes each graph gets LAPACK's `dsyevr` for pairs 1..r + 1 alone (more
while a degenerate group reaches the last one fetched), called through
ctypes from numpy's bundled OpenBLAS; smaller graphs, or all of them
where that symbol is missing, share batched full `eigh` calls.  This
route and the iterative one below form a graph's degrees and matrix
entries by one code path, bit for bit.  The dense route is the only
code that runs on more than one thread: it splits the batch across
`thread_cap()` workers, with numpy's bundled OpenBLAS pinned to one
thread meanwhile, since BLAS threads and worker threads compete for the
same cores; a ctypes call, like `eigh`, runs without the GIL.  The
workers are a pool kept per calling thread, built by the first call that
splits and rebuilt only when the cap changes, so a call costs no thread
start.  Each graph is solved on its own, so the split changes no bit of
the result.

Above DENSE_SOLVER_MAX each graph gets a shift-inverted partial solve
(ARPACK's Lanczos through `eigsh`, on a basis sized for the pairs asked
for).  Its shifted matrix I - S A S - SHIFT I is positive definite, so
LAPACK's banded Cholesky (`dpbtrf`) factors it in the narrower of the
given node order and the reverse Cuthill-McKee order, chosen once per
edge set and cached, which keeps a farm graph's band narrow
(half-bandwidth 17 on a row-major 16x16 king grid); at worst, a band as
wide as n, it is a dense Cholesky.  This route runs serially, with both
numpy's and scipy's bundled OpenBLAS pinned to one thread: ARPACK holds
the GIL, so worker threads gain nothing.  Its blocks of rows are sized
by per-row arrays, as no (B, n, n) stack is formed.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDegreeError, InputError
from .graph import ComponentPartition, FarmGraph

# Dense eigensolves up to this many nodes; iterative partial solves beyond.
DENSE_SOLVER_MAX = 200
# From this many nodes the dense route asks LAPACK's `dsyevr` for each
# graph's lowest pairs but the trivial one; below it one batched full
# `eigh` per chunk is faster, as the per-graph call costs more than the
# pairs it skips.  King grids, r = 2, one thread of a 2-core x86 box,
# `_dense_coordinates` on up to 400 graphs, median us per graph over 5
# runs of 31 alternating rounds (eigh vs dsyevr, runs where dsyevr won):
# 4x4 39 vs 41 (1 of 5), 2x8 42 vs 42 (2), 3x6 58 vs 51 (5), 2x9 56 vs
# 49 (5), 4x5 69 vs 57 (5), 2x10 73 vs 56 (5).  On paths, whose full
# solve is cheaper, `eigh` still won at 16-18 nodes: 29-33 vs 31-35 us.
PARTIAL_SOLVER_MIN = 18
# Eigenvalues within this of each other are treated as one degenerate group.
DEGENERACY_TOL = 1e-9
# Batched eigendecompositions take as many rows as keep one (B, n, n)
# float64 stack near this size; a few such stacks are live at once, so
# this bounds their memory whatever the farm size.
BATCH_BYTES = 1 << 20
# Above DENSE_SOLVER_MAX, blocks of rows are sized as if this many per-row
# arrays of n + E floats were live at once: values, mask, the tracker's
# guesses and losses, edge similarities and their temporaries.
ROW_ARRAYS = 8
# Shift of the iterative route's shift-invert solves: just below the
# spectrum, whose smallest eigenvalue is 0, so the shifted matrix is
# positive definite and the smallest eigenvalues map to the largest.
SHIFT = -0.01


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


def widen_to_degenerate_group(eigenvalues, k):
    """Smallest k' >= k such that eigenvectors 1..k' cover whole groups.

    `k` counts embedding dimensions, i.e. eigenvector indices 1..k are in
    use; the group containing index k is extended until a gap >
    DEGENERACY_TOL.  Eigenvalues ascend along the last axis; any leading
    axes are a batch, and the result has their shape.
    """
    chained = np.diff(np.asarray(eigenvalues)[..., k:], axis=-1) <= DEGENERACY_TOL
    return k + np.cumprod(chained, axis=-1).sum(axis=-1)


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


def thread_cap() -> int:
    """Worker threads the embedding engine may use.

    SPECTRAL_IMPUTER_THREADS if set, else the CPUs this process may run
    on (its affinity mask, where the platform reports one).
    """
    raw = os.environ.get("SPECTRAL_IMPUTER_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(
                f"SPECTRAL_IMPUTER_THREADS must be an integer, got {raw!r}"
            ) from None
        if cap < 1:
            raise ConfigError("SPECTRAL_IMPUTER_THREADS must be >= 1")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@functools.cache
def _openblas_symbols(*names, wheel="numpy"):
    """The named functions of numpy's (ILP64) or scipy's bundled OpenBLAS, or None.

    `wheel` must be imported: its bundled libraries sit beside it.
    """
    import glob

    site = os.path.dirname(os.path.dirname(sys.modules[wheel].__file__))
    pattern = {"numpy": "libscipy_openblas64_*.so", "scipy": "libscipy_openblas-*.so"}
    for path in sorted(glob.glob(os.path.join(site, f"{wheel}.libs", pattern[wheel]))):
        try:
            lib = ctypes.CDLL(path)
            return tuple(getattr(lib, name) for name in names)
        except (OSError, AttributeError):
            continue
    return None


def _typed_thread_calls(calls):
    if calls is None:
        return None
    get, put = calls
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def _openblas_thread_calls():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS, or None."""
    return _typed_thread_calls(_openblas_symbols(
        "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"
    ))


@functools.cache
def _scipy_openblas_thread_calls():
    """The same calls of scipy's bundled OpenBLAS, which ARPACK and
    `dpbtrs` use.  Call it only once `scipy.linalg`, which loads that
    library, is imported."""
    return _typed_thread_calls(_openblas_symbols(
        "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads", wheel="scipy"
    ))


@functools.cache
def _dsyevr():
    """LAPACKE's `dsyevr_work` from numpy's bundled OpenBLAS, or None.

    That build is ILP64: every LAPACK integer is 64 bits.  Like every
    ctypes call, it runs without the GIL.
    """
    found = _openblas_symbols("scipy_LAPACKE_dsyevr_work64_")
    if found is None:
        return None
    (solve,) = found
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    char = ctypes.c_char
    solve.argtypes = [
        ctypes.c_int, char, char, char, i64,  # layout, jobz, range, uplo, n
        ptr, i64, f64, f64, i64, i64, f64,  # a, lda, vl, vu, il, iu, abstol
        ptr, ptr, ptr, i64, ptr,  # m, w, z, ldz, isuppz
        ptr, i64, ptr, i64,  # work, lwork, iwork, liwork
    ]
    solve.restype = i64
    return solve


# The BLAS thread counts are process-wide, so the pins that hold them are too.
_pin_lock = threading.Lock()
_pin_holders = 0
_pin_saved = []


@contextlib.contextmanager
def single_blas_thread():
    """Hold the bundled OpenBLAS copies at one thread for a block.

    numpy's copy, and scipy's once `scipy.linalg` is imported; a no-op
    where neither can be reached.  Small BLAS calls run faster on one
    thread than on several, and the result does not depend on the
    count.  The last of overlapping holders restores the counts.
    """
    global _pin_holders, _pin_saved
    calls = [_openblas_thread_calls()]
    if "scipy.linalg" in sys.modules:
        calls.append(_scipy_openblas_thread_calls())
    calls = [call for call in calls if call is not None]
    if not calls:
        yield
        return
    with _pin_lock:
        if _pin_holders == 0:
            _pin_saved = [(put, get()) for get, put in calls]
            for put, _ in _pin_saved:
                put(1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                for put, count in _pin_saved:
                    put(count)


def batch_rows(n: int, edges: int = 0) -> int:
    """Rows per block of n-node graphs with `edges` edges.

    Up to DENSE_SOLVER_MAX nodes, as many as keep the dense route's
    (B, n, n) float64 stack near BATCH_BYTES.  Beyond it each graph is
    solved alone, so a block's arrays are per row, of n or `edges`
    entries: as many rows as keep ROW_ARRAYS (B, n + edges) float64
    arrays near BATCH_BYTES.
    """
    if n <= DENSE_SOLVER_MAX:
        return max(1, BATCH_BYTES // (8 * n * n))
    return max(1, BATCH_BYTES // (8 * ROW_ARRAYS * (n + edges)))


def batched_coordinates(weights, ei, ej, n: int, r: int) -> np.ndarray:
    """Embedding coordinates of many weightings of one edge set.

    The one place edge weights become coordinates.  Up to
    DENSE_SOLVER_MAX nodes, chunks of at most `batch_rows(n)` graphs
    are solved densely on `thread_cap()` workers (`_dense_coordinates`);
    above it, each graph's shifted matrix is written into a band on the
    edge set's cached `_band_layout`, Cholesky-factored, and given its
    own shift-inverted partial solve, serially.  Each
    graph's dimension is widened to its degenerate group.  The result
    does not depend on the worker count.

    Args:
        weights: (B, E) edge weights, B >= 0, all >= 0; in every row the
            edges of positive weight connect all n nodes.
        ei, ej: (E,) endpoint indices of distinct edges, no self-loops.
        n: node count, >= 2.
        r: requested embedding dimension, >= 1.

    Returns:
        (B, n, k) coordinates, k the largest effective dimension in the
        batch; a row's columns beyond its own effective dimension are zero,
        so distances over all k columns are distances in its own embedding.
    """
    if n > DENSE_SOLVER_MAX:
        import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS, for the pin to hold

        layout = _band_layout(ei, ej, n)
        with single_blas_thread():
            parts = [_iterative_coordinates(w, ei, ej, n, r, layout) for w in weights]
    else:
        parts = _dense_chunks(weights, ei, ej, n, r)
    out = np.zeros((len(weights), n, max((part.shape[2] for part in parts), default=0)))
    at = 0
    for part in parts:
        out[at : at + len(part), :, : part.shape[2]] = part
        at += len(part)
    return out


def _dense_chunks(weights, ei, ej, n: int, r: int) -> list[np.ndarray]:
    """`_dense_coordinates` of contiguous chunks, in order, on workers.

    The chunks are near-equal, at most `batch_rows(n)` graphs each, and
    their count is a multiple of `thread_cap()`, so the workers get equal
    shares.  Runs serially with one worker, one chunk, or no OpenBLAS
    thread control (unpinned, worker threads are slower than one thread).
    Where that control exists, both paths hold BLAS at one thread, until
    every chunk is done, even when one raises.
    """
    workers = thread_cap()
    if len(weights) == 0:
        return []
    needed = -(-len(weights) // batch_rows(n))
    chunks = np.array_split(weights, min(len(weights), -(-needed // workers) * workers))
    run = functools.partial(_dense_coordinates, ei=ei, ej=ej, n=n, r=r)
    with single_blas_thread():
        if workers == 1 or len(chunks) == 1 or _openblas_thread_calls() is None:
            return [run(chunk) for chunk in chunks]
        from concurrent.futures import wait  # kept off the import path

        pool = _worker_pool(workers)
        futures = [pool.submit(run, chunk) for chunk in chunks]
        wait(futures)
        return [future.result() for future in futures]


# Each calling thread keeps its own pool, so overlapping callers never
# wait on each other's chunks.  A pool's idle workers exit once the pool
# is collected: when it is replaced, or its calling thread ends.
_pools = threading.local()


def _worker_pool(workers: int):
    """The calling thread's pool of `workers` threads, kept across calls.

    Keyed by process too: a forked child has none of its parent's workers.
    """
    key = os.getpid(), workers
    if getattr(_pools, "key", None) != key:
        from concurrent.futures import ThreadPoolExecutor

        _pools.pool, _pools.key = ThreadPoolExecutor(workers), key
    return _pools.pool


def _reduced_entries(weights, ei, ej, n: int):
    """(B, n) S = D^(-1/2) and (B, E) entries -(w * (s_i * s_j)) of I - S A S.

    Degrees are summed per row by `bincount`, over the edges in order, so
    both routes give a graph the same bits whatever its batch.
    """
    count, flat = weights.shape[0], weights.ravel()
    at = (np.arange(count) * n)[:, None]
    degrees = np.bincount((at + ei).ravel(), flat, count * n)
    degrees += np.bincount((at + ej).ravel(), flat, count * n)
    s = 1.0 / np.sqrt(degrees.reshape(count, n))
    return s, -(weights * (s[:, ei] * s[:, ej]))


def _reduced_laplacians(weights, ei, ej, n: int):
    """(B, n, n) stack I - S A S and its (B, n) S, built over the edges."""
    s, off = _reduced_entries(weights, ei, ej, n)
    a = np.zeros((weights.shape[0], n * n))
    a[:, ei * n + ej] = off
    a[:, ej * n + ei] = off
    a[:, :: n + 1] = 1.0
    return a.reshape(-1, n, n), s


def _coordinates(eigenvalues, u, s, r: int) -> np.ndarray:
    """Columns 1..r_eff of S u per graph, zero-padded to the largest r_eff."""
    r_eff = widen_to_degenerate_group(eigenvalues, min(r, s.shape[1] - 1))
    k = int(r_eff.max())
    live = np.arange(k) < r_eff[:, None, None]
    return np.where(live, u[:, :, 1 : k + 1] * s[:, :, None], 0.0)


def _dense_coordinates(weights, ei, ej, n: int, r: int) -> np.ndarray:
    """(B, n, k) coordinates from dense eigensolves of a chunk of graphs.

    From PARTIAL_SOLVER_MIN nodes each graph gets LAPACK's `dsyevr` for
    its lowest pairs only; below it, or without that symbol, one batched
    full `np.linalg.eigh` solves the chunk.
    """
    a, s = _reduced_laplacians(weights, ei, ej, n)
    solve = _dsyevr() if n >= PARTIAL_SOLVER_MIN else None
    if solve is None:
        return _coordinates(*np.linalg.eigh(a), s, r)
    return _coordinates(*_lowest_pairs(a, min(r, n - 1), solve), s, r)


def _lowest_pairs(a, need: int, solve):
    """`np.linalg.eigh(a)` cut to the lowest k >= need + 2 pairs, or to n.

    Pair 0 (eigenvalue 0, vector D^(1/2) 1) is known and never read, so
    its slot is left zero: each graph of the (B, n, n) stack fetches pairs
    1..need + 1 from `dsyevr`, then fills twice as many slots, up to n,
    while the degenerate group of pair `need` reaches the last pair
    fetched, so a graph's pairs depend on that graph alone.  Graphs
    fetching fewer than the most are padded with zeros, past the end of
    their widened groups.
    """
    count, n, _ = a.shape
    fetch = _PairFetcher(solve, n)
    k = min(n, need + 2)
    vals, vecs = np.zeros((count, k)), np.zeros((count, k, n))
    for b in range(count):
        fetch(a[b], vals[b, 1:], vecs[b, 1:])
    more = {}
    for b in np.flatnonzero(widen_to_degenerate_group(vals, need) + 1 >= k):
        w = vals[b]
        while w.size < n and widen_to_degenerate_group(w, need) + 1 >= w.size:
            size = min(n, 2 * w.size)
            w, z = np.zeros(size), np.zeros((size, n))
            fetch(a[b], w[1:], z[1:])
            more[b] = w, z
    if more:
        k = max(w.size for w, _ in more.values())
        vals = np.pad(vals, ((0, 0), (0, k - vals.shape[1])))
        vecs = np.pad(vecs, ((0, 0), (0, k - vecs.shape[1]), (0, 0)))
        for b, (w, z) in more.items():
            vals[b, : w.size], vecs[b, : w.size] = w, z
    return vals, vecs.transpose(0, 2, 1)


class _PairFetcher:
    """fetch(m, w, z): eigenpairs 1..w.size of an (n, n) matrix, pair 0 skipped.

    Writes the eigenvalues, ascending, into w and eigenvector j into row
    j of z; m, symmetric, is read and left intact.  LAPACK is asked for
    pairs IL = 2 to w.size + 1 in its 1-based count.  The work arrays are
    this fetcher's own, so fetchers on different threads run in
    parallel; they live as long as it does, since LAPACK gets only their
    addresses.  A failed solve (nonzero info) takes `np.linalg.eigh`'s.
    """

    def __init__(self, solve, n: int):
        self.solve = solve
        self.matrix, self.vectors = np.empty((n, n)), np.empty((n, n))
        self.found, self.count = np.empty(n), np.empty(1, np.int64)
        self.isuppz = np.empty(2 * n, np.int64)
        lwork, liwork = np.empty(1), np.empty(1, np.int64)
        # LAPACK reads the C-ordered matrix column-major, i.e. transposed:
        # the same matrix, as it is symmetric.  Arguments before and after
        # IU, the last pair fetched.
        self.head = [102, b"V", b"I", b"L", n, self.matrix.ctypes.data, n, 0.0, 0.0, 2]
        self.tail = [0.0, self.count.ctypes.data, self.found.ctypes.data]
        self.tail += [self.vectors.ctypes.data, n, self.isuppz.ctypes.data]
        query = [lwork.ctypes.data, -1, liwork.ctypes.data, -1]
        solve(*self.head, n, *self.tail, *query)  # writes the work sizes
        self.work = np.empty(int(lwork[0]))
        self.iwork = np.empty(int(liwork[0]), np.int64)
        self.tail += [self.work.ctypes.data, self.work.size]
        self.tail += [self.iwork.ctypes.data, self.iwork.size]

    def __call__(self, m, w, z):
        np.copyto(self.matrix, m)
        if self.solve(*self.head, w.size + 1, *self.tail) == 0:
            w[:], z[:] = self.found[: w.size], self.vectors[: w.size]
        else:
            full, u = np.linalg.eigh(m)
            w[:], z[:] = full[1 : w.size + 1], u[:, 1 : w.size + 1].T


def _band_layout(ei, ej, n: int):
    """Lower band layout of I - S A S - SHIFT I for one edge set, cached.

    Returns (perm, kd, pos): `perm` is the node order (position p holds
    node perm[p]), `kd` the half-bandwidth in that order, and `pos` each
    edge's flat position in an (n, kd + 1) array whose transpose is
    LAPACK's (kd + 1, n) lower band store.  The order is the narrower of
    the given one and reverse Cuthill-McKee's, the given one on a tie: a
    row-major r x c king grid has half-bandwidth c + 1 as given (17 on
    16x16), while RCM's diagonal sweeps give it about 2c (31).  The cache
    keeps `impute`'s blocks on one farm from recomputing it.
    """
    return _band_layout_of(n, *(np.asarray(e, np.intp).tobytes() for e in (ei, ej)))


@functools.lru_cache(maxsize=8)
def _band_layout_of(n: int, ei_bytes: bytes, ej_bytes: bytes):
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    ei, ej = (np.frombuffer(e, dtype=np.intp) for e in (ei_bytes, ej_bytes))
    # Not symmetric mode: the order is computed on A + A^T.
    rcm = reverse_cuthill_mckee(csr_array((np.ones(ei.size), (ei, ej)), shape=(n, n)))
    rcm_place = np.argsort(rcm)
    if np.abs(rcm_place[ei] - rcm_place[ej]).max(initial=0) < np.abs(ei - ej).max(initial=0):
        perm, place = rcm, rcm_place
    else:
        perm = place = np.arange(n)
    lo, off = np.minimum(place[ei], place[ej]), np.abs(place[ei] - place[ej])
    kd = int(off.max(initial=0))
    pos = lo * (kd + 1) + off
    perm.flags.writeable = pos.flags.writeable = False  # shared by every caller
    return perm, kd, pos


def _iterative_coordinates(weights, ei, ej, n: int, r: int, layout) -> np.ndarray:
    """(1, n, k) coordinates of one graph from a shift-inverted partial solve.

    The shifted matrix is Cholesky-factored on `_band_layout`'s band, or
    the graph goes to the dense route if that fails (impossible in exact
    arithmetic); eigsh, in the layout's node order, gets the factor's
    solve as its inverse operator.  Fetches a few pairs past the
    requested dimension, and more until the widened group's boundary
    sits strictly inside what was fetched; a group that runs past what
    the solver can expose, or an ARPACK failure, is settled densely.
    """
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    perm, kd, pos = layout
    s, off = _reduced_entries(weights[None], ei, ej, n)
    store = np.zeros((n, kd + 1))
    store.flat[pos] = off[0]
    store[:, 0] = 1.0 - SHIFT
    factor, info = dpbtrf(store.T, lower=1, overwrite_ab=1)
    if info != 0:
        return _dense_coordinates(weights[None], ei, ej, n, r)
    inverse = LinearOperator(
        (n, n), matvec=lambda x: dpbtrs(factor, x, lower=1)[0], dtype=float
    )
    v0 = np.full(n, 1.0 / np.sqrt(n))  # fixed start keeps runs reproducible
    need = min(r, n - 1)
    k = min(n - 1, need + 2)
    while True:
        # ARPACK's Lanczos basis, smaller than scipy's default of
        # max(2k + 1, 20).  Over 30 graphs of a king grid, r = 2 (k = 4),
        # matvecs and ms per graph fell from 35.4 and 1.00 to 29.0 and 0.77
        # at 16x16, and from 36.0 and 1.83 to 33.2 and 1.71 at 24x24; the
        # eigenvalues moved by at most 2e-16.
        ncv = min(n, max(2 * k + 1, 12))
        try:
            # In shift-invert mode eigsh applies only OPinv; A lends its shape.
            vals, u = eigsh(
                inverse, k=k, ncv=ncv, sigma=SHIFT, which="LM", v0=v0, OPinv=inverse
            )
        except ArpackError:  # no convergence, or no shift left to apply
            return _dense_coordinates(weights[None], ei, ej, n, r)
        order = np.argsort(vals)
        vals = vals[order]
        if widen_to_degenerate_group(vals, min(need, k - 1)) + 1 < k:
            back = np.empty_like(u)
            back[perm] = u[:, order]
            return _coordinates(vals[None], back[None], s, r)
        if k >= n - 1:
            return _dense_coordinates(weights[None], ei, ej, n, r)
        k = min(n - 1, k * 2)


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


def component_coordinates(weights, ei, ej, inside, r: int) -> np.ndarray:
    """(m, k) coordinates of the m nodes where `inside` holds, embedded alone.

    `inside` must mark one connected component of the given edges; they
    are renumbered to its nodes in ascending order, and the rest dropped.
    """
    here = inside[ei]
    local = np.cumsum(inside) - 1
    return batched_coordinates(
        weights[None, here], local[ei[here]], local[ej[here]], int(inside.sum()), r
    )[0]


def embed(graph: FarmGraph, partition: ComponentPartition, r: int) -> list[Embedding]:
    """Embed every component of size >= 3; smaller ones yield nothing.

    Components of size 1 or 2 admit no useful spectrum (after dropping the
    constant eigenvector nothing, or a single sign, remains); callers are
    expected to detect them via the partition and fall back.

    Args:
        graph: weighted or unweighted sensor graph.
        partition: its components; the partition's weight floor decides
            which edges enter each component's embedding.
        r: requested embedding dimension, >= 1.

    Raises:
        ConfigError: if r < 1.
    """
    if r < 1:
        raise ConfigError(f"embedding dimension must be >= 1, got {r}")
    ei, ej = graph.edge_index_arrays()
    weights = graph.weight_array()
    live = weights > partition.weight_floor
    labels = np.asarray(partition.labels, dtype=int)
    out = []
    for comp in range(partition.count):
        members = np.flatnonzero(labels == comp)
        if members.size < 3:
            continue
        coords = _fix_signs(
            component_coordinates(weights[live], ei[live], ej[live], labels == comp, r)
        )
        out.append(
            Embedding(
                coordinates={
                    graph.node_ids[node]: coords[row].copy()
                    for row, node in enumerate(members)
                },
                r_requested=r,
                r_eff=coords.shape[1],
                component_index=comp,
            )
        )
    return out
