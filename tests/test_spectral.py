import glob
import os
import sys
import threading

import numpy as np
import pytest

from spectral_imputer import spectral
from spectral_imputer.errors import (
    ConfigError,
    DegenerateDegreeError,
    InputError,
)
from spectral_imputer.graph import (
    adjacency,
    build_graph,
    components,
    laplacian,
    propose_grid_edges,
)
from spectral_imputer.spectral import (
    DEGENERACY_TOL,
    Embedding,
    batched_coordinates,
    embed,
    solve_generalized,
    target_distances,
    widen_to_degenerate_group,
)

from conftest import chain_graph, grid_layout, make_layout, random_connected_graph
from oracles import embedding_distance


class TestSolveGeneralized:
    def test_path_eigenvalues_match_hand_solution(self, path3_graph):
        # Path a-b-c: generalized eigenvalues are exactly 0, 1, 2.
        L, D = laplacian(path3_graph)
        sol = solve_generalized(L, D)
        assert np.allclose(sol.eigenvalues, [0.0, 1.0, 2.0], atol=1e-9)

    def test_path_eigenvectors_match_hand_solution(self, path3_graph):
        # lambda=1 maps to (1,0,-1)/sqrt(2), lambda=2 to (1,-1,1)/2, both
        # D-normalized with the leading large component positive.
        L, D = laplacian(path3_graph)
        sol = solve_generalized(L, D)
        f1 = sol.vectors[:, 1]
        f2 = sol.vectors[:, 2]
        assert np.allclose(f1, [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)], atol=1e-8)
        assert np.allclose(f2, [0.5, -0.5, 0.5], atol=1e-8)

    def test_single_edge_spectrum_independent_of_weight(self):
        layout = make_layout([(0, 0), (0, 1)])
        g = build_graph(layout, [("s00", "s01")])
        for w in (0.1, 0.5, 1.0):
            L, D = laplacian(g.with_weights([w]))
            sol = solve_generalized(L, D)
            assert np.allclose(sol.eigenvalues, [0.0, 2.0], atol=1e-9)

    def test_half_weights_leave_spectrum_unchanged(self, path3_graph):
        # D and A scale together, so eigenvalues cannot move.
        L1, D1 = laplacian(path3_graph)
        L2, D2 = laplacian(path3_graph.with_weights([0.5, 0.5]))
        s1 = solve_generalized(L1, D1)
        s2 = solve_generalized(L2, D2)
        assert np.allclose(s1.eigenvalues, s2.eigenvalues, atol=1e-12)

    def test_degree_vector_and_matrix_agree(self, path3_graph):
        L, D = laplacian(path3_graph)
        a = solve_generalized(L, D)
        b = solve_generalized(L, np.diag(D))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)

    def test_zero_degree_raises(self):
        layout = make_layout([(0, 0), (0, 1), (0, 2)])
        g = build_graph(layout, [("s00", "s01")])  # s02 isolated
        L, D = laplacian(g)
        with pytest.raises(DegenerateDegreeError):
            solve_generalized(L, D)

    def test_nonsymmetric_laplacian_rejected(self):
        with pytest.raises(InputError):
            solve_generalized([[1.0, -1.0], [0.0, 1.0]], [1.0, 1.0])

    def test_random_graphs_spectrum_in_range_and_orthonormal(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 15))
            layout = make_layout([(0.0, k) for k in range(n)])
            g = random_connected_graph(rng, layout, extra_edges=4, weighted=True)
            L, D = laplacian(g)
            sol = solve_generalized(L, D)
            assert sol.eigenvalues[0] >= -1e-9
            assert sol.eigenvalues[-1] <= 2.0 + 1e-9
            assert abs(sol.eigenvalues[0]) <= 1e-9
            gram = sol.vectors.T @ D @ sol.vectors
            assert np.allclose(gram, np.eye(n), atol=1e-8)
            # PSD quadratic form of L itself.
            for _ in range(5):
                v = rng.standard_normal(n)
                assert v @ L @ v >= -1e-10

    def test_solver_is_deterministic(self, path3_graph):
        L, D = laplacian(path3_graph)
        a = solve_generalized(L, D)
        b = solve_generalized(L, D)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)


class TestWidenToDegenerateGroup:
    def test_no_widening_across_clear_gap(self):
        assert widen_to_degenerate_group(np.array([0.0, 1.0, 2.0]), 1) == 1

    def test_widens_through_group(self):
        vals = np.array([0.0, 1.0, 1.0 + 5e-10, 1.0 + 8e-10, 1.7])
        assert widen_to_degenerate_group(vals, 1) == 3
        assert widen_to_degenerate_group(vals, 2) == 3

    def test_stops_at_last_index(self):
        vals = np.array([0.0, 1.0, 1.0])
        assert widen_to_degenerate_group(vals, 2) == 2


class TestEmbed:
    def test_small_components_yield_no_embedding(self):
        layout = make_layout([(0, k) for k in range(5)])
        g = build_graph(
            layout, [("s00", "s01"), ("s01", "s02"), ("s03", "s04")]
        )
        embs = embed(g, components(g), r=1)
        assert len(embs) == 1
        assert embs[0].component_index == 0
        assert set(embs[0].coordinates) == {"s00", "s01", "s02"}

    def test_r_capped_by_component_size(self, path3_graph):
        embs = embed(path3_graph, components(path3_graph), r=10)
        assert embs[0].r_eff == 2
        assert embs[0].r_requested == 10

    def test_path_distances_match_hand_solution(self, path3_graph):
        # r=1 coordinates are (1,0,-1)/sqrt(2); end-to-middle distance
        # is 1/sqrt(2), end-to-end sqrt(2).
        emb = embed(path3_graph, components(path3_graph), r=1)[0]
        assert embedding_distance(emb, "s00", "s01") == pytest.approx(
            1 / np.sqrt(2), abs=1e-9
        )
        assert embedding_distance(emb, "s00", "s02") == pytest.approx(
            np.sqrt(2), abs=1e-9
        )
        assert embedding_distance(emb, "s00", "s01") == pytest.approx(
            embedding_distance(emb, "s01", "s02"), abs=1e-12
        )

    def test_complete_graph_widens_degenerate_group(self):
        # K4's nontrivial eigenvalue 4/3 has multiplicity 3; r=1 must
        # widen to the whole group, making all pair distances equal
        # sqrt(2/3).
        layout = make_layout([(0, 0), (0, 1), (1, 0), (1, 1)])
        ids = layout.ids
        g = build_graph(
            layout,
            [(ids[i], ids[j]) for i in range(4) for j in range(i + 1, 4)],
        )
        emb = embed(g, components(g), r=1)[0]
        assert emb.r_eff == 3
        expected = np.sqrt(2.0 / 3.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert embedding_distance(emb, ids[i], ids[j]) == pytest.approx(
                    expected, abs=1e-9
                )

    def test_coordinates_are_sign_fixed_generalized_eigenvectors(self):
        # Columns 1..r_eff of the full solve, in its sign convention; the
        # floor drops the lightest edge from both.
        rng = np.random.default_rng(5)
        layout = make_layout(rng.random((8, 2)))
        g = random_connected_graph(rng, layout, extra_edges=5, weighted=True)
        floor = float(g.weight_array().min())
        a = adjacency(g)
        a[a <= floor] = 0.0
        embs = embed(g, components(g, weight_floor=floor), r=2)
        assert embs
        for emb in embs:
            members = [layout.ids.index(sid) for sid in emb.coordinates]
            sub = a[np.ix_(members, members)]
            sol = solve_generalized(np.diag(sub.sum(axis=0)) - sub, sub.sum(axis=0))
            got = np.stack(list(emb.coordinates.values()))
            assert np.allclose(got, sol.vectors[:, 1 : emb.r_eff + 1], atol=1e-10)

    def test_distance_outside_component_raises(self, path3_graph):
        emb = embed(path3_graph, components(path3_graph), r=1)[0]
        with pytest.raises(KeyError):
            embedding_distance(emb, "s00", "zz")

    def test_invalid_dimension_rejected(self, path3_graph):
        with pytest.raises(ConfigError):
            embed(path3_graph, components(path3_graph), r=0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            layout = make_layout([(0.0, k) for k in range(n)])
            g = random_connected_graph(rng, layout, extra_edges=3, weighted=True)
            emb = embed(g, components(g), r=2)[0]
            # Same physical graph with nodes listed in permuted order.
            perm = rng.permutation(n)
            ids = layout.ids
            permuted_layout = make_layout(
                [(0.0, float(k)) for k in range(n)], prefix="t"
            )
            rename = {ids[p]: f"t{k:02d}" for k, p in enumerate(perm)}
            bare = build_graph(
                permuted_layout,
                [(rename[a], rename[b]) for a, b in g.edge_ids],
            )
            g2 = bare.with_weights(_weights_in_order(g, bare, rename))
            emb2 = embed(g2, components(g2), r=2)[0]
            if emb.r_eff != emb2.r_eff:
                continue  # degenerate case; distances not comparable
            for i in range(n):
                for j in range(i + 1, n):
                    d1 = embedding_distance(emb, ids[i], ids[j])
                    d2 = embedding_distance(emb2, rename[ids[i]], rename[ids[j]])
                    assert d1 == pytest.approx(d2, abs=1e-10)

    def test_bit_identical_across_calls(self, path3_graph):
        part = components(path3_graph)
        e1 = embed(path3_graph, part, r=2)[0]
        e2 = embed(path3_graph, part, r=2)[0]
        for sid in e1.coordinates:
            assert np.array_equal(e1.coordinates[sid], e2.coordinates[sid])

    def test_iterative_route_agrees_with_dense(self):
        # A 250-node ring exceeds the dense cutoff; its spectrum has
        # degenerate cosine pairs, so r=3 widens to 4 on both routes.
        n = 250
        layout = make_layout(
            [(np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)) for k in range(n)]
        )
        ids = layout.ids
        edges = [(ids[k], ids[(k + 1) % n]) for k in range(n)]
        g = build_graph(layout, edges)
        emb = embed(g, components(g), r=3)[0]
        assert emb.r_eff == 4

        from spectral_imputer.graph import laplacian as lap

        L, D = lap(g)
        sol = solve_generalized(L, D)
        r_eff = widen_to_degenerate_group(sol.eigenvalues, 3)
        coords = sol.vectors[:, 1 : r_eff + 1]
        rng = np.random.default_rng(0)
        for _ in range(60):
            i, j = rng.integers(0, n, size=2)
            dense_d = float(np.linalg.norm(coords[i] - coords[j]))
            assert embedding_distance(emb, ids[i], ids[j]) == pytest.approx(
                dense_d, abs=1e-8
            )


def _ring4():
    layout = make_layout([(0, 0), (0, 1), (1, 1), (1, 0)])
    ids = layout.ids
    return ids, build_graph(layout, [(ids[k], ids[(k + 1) % 4]) for k in range(4)])


class TestBatchedCoordinates:
    def test_rows_match_embed_including_widened_ones(self, monkeypatch):
        # On the uniform 4-cycle r=1 widens to the degenerate pair; on
        # the other rows it does not, so one batch mixes effective
        # dimensions and the narrow rows must ignore the extra column.
        # With DENSE_SOLVER_MAX at 3 the same batch takes the iterative
        # solver, one graph at a time, and is checked against the dense
        # `embed`.
        ids, ring = _ring4()
        rng = np.random.default_rng(9)
        weights = np.vstack([np.ones(4), rng.uniform(0.1, 1.0, (3, 4)), np.ones(4)])
        ei, ej = ring.edge_index_arrays()
        for dense_max, tol in ((spectral.DENSE_SOLVER_MAX, 1e-12), (3, 1e-8)):
            for r in (1, 2, 3):
                with monkeypatch.context() as patched:
                    patched.setattr(spectral, "DENSE_SOLVER_MAX", dense_max)
                    coords = batched_coordinates(weights, ei, ej, 4, r)
                widths = []
                for b, w in enumerate(weights):
                    g = ring.with_weights(w)
                    emb = embed(g, components(g), r)[0]
                    widths.append(emb.r_eff)
                    for target in range(4):
                        got = target_distances(coords[b : b + 1], [target])[0]
                        want = [
                            embedding_distance(emb, ids[target], sid) for sid in ids
                        ]
                        assert np.allclose(got, want, rtol=0.0, atol=tol)
                if r == 1:
                    assert widths == [2, 1, 1, 1, 2]
                assert coords.shape == (5, 4, max(widths))

    def test_empty_batch(self, monkeypatch):
        _, ring = _ring4()
        ei, ej = ring.edge_index_arrays()
        for dense_max in (spectral.DENSE_SOLVER_MAX, 3):
            monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX", dense_max)
            assert batched_coordinates(np.ones((0, 4)), ei, ej, 4, 2).shape == (0, 4, 0)


def _king16_batch():
    """A 16x16 king grid (256 nodes, above DENSE_SOLVER_MAX) under three
    weightings: random; uniform, whose symmetric spectrum has degenerate
    pairs; and random with every diagonal edge at zero, leaving the
    connected rook grid as the positive edges."""
    layout = grid_layout(16, 16)
    g = build_graph(layout, propose_grid_edges(layout, "king"))
    ei, ej = g.edge_index_arrays()
    rng = np.random.default_rng(23)
    zeroed = rng.uniform(0.1, 1.0, ei.size)
    zeroed[(ei // 16 != ej // 16) & (ei % 16 != ej % 16)] = 0.0
    weights = np.vstack([rng.uniform(0.1, 1.0, ei.size), np.ones(ei.size), zeroed])
    return weights, ei, ej, 256


class TestIterativeRoute:
    """Above DENSE_SOLVER_MAX each graph gets a banded shift-inverted solve."""

    def test_factors_the_shifted_reduced_laplacian(self, monkeypatch):
        import scipy.linalg.lapack as lapack

        weights, ei, ej, n = _king16_batch()
        assert (weights[2] == 0).any()
        factored = []
        dpbtrf = lapack.dpbtrf

        def spy(ab, **kwargs):
            factored.append(np.array(ab))
            return dpbtrf(ab, **kwargs)

        monkeypatch.setattr(lapack, "dpbtrf", spy)
        batched_coordinates(weights, ei, ej, n, 2)
        assert len(factored) == len(weights)
        perm, kd, _ = spectral._band_layout(ei, ej, n)
        for band, w in zip(factored, weights):
            assert band.shape == (kd + 1, n)
            reduced = spectral._reduced_laplacians(w[None], ei, ej, n)[0][0]
            want = reduced - spectral.SHIFT * np.eye(n)
            got = _unband(band)
            assert np.abs(got - want[np.ix_(perm, perm)]).max() <= 1e-15

    @pytest.mark.parametrize("r", [1, 6])
    def test_distances_agree_with_the_dense_route(self, monkeypatch, r):
        weights, ei, ej, n = _king16_batch()
        iterative = batched_coordinates(weights, ei, ej, n, r)
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX", n)
        dense = batched_coordinates(weights, ei, ej, n, r)
        # The uniform row widens past r on both routes.
        widths = [int((c != 0).any(axis=0).sum()) for c in dense]
        assert widths[1] > r and widths[0] == widths[2] == r
        assert [int((c != 0).any(axis=0).sum()) for c in iterative] == widths
        for target in range(0, n, 15):
            got = target_distances(iterative, [target] * len(weights))
            want = target_distances(dense, [target] * len(weights))
            assert np.allclose(got, want, rtol=0.0, atol=1e-8)


    @pytest.mark.parametrize("seeds", [(0,), (1, 2)])
    def test_scrambled_node_numbering_agrees_with_dense(self, monkeypatch, seeds):
        # The king grid with its nodes renumbered at random has a band as
        # wide as the farm; the reverse Cuthill-McKee layout narrows it.
        # Two renumberings share n and E, so run back to back they would
        # be wrong if the layout cache handed one's layout to the other.
        weights, ei, ej, n = _king16_batch()
        for seed in seeds:
            rename = np.random.default_rng(seed).permutation(n)
            si, sj = rename[ei], rename[ej]
            kd = spectral._band_layout(si, sj, n)[1]
            assert kd < np.abs(si - sj).max() / 4
            iterative = batched_coordinates(weights, si, sj, n, 3)
            with monkeypatch.context() as patched:
                patched.setattr(spectral, "DENSE_SOLVER_MAX", n)
                dense = batched_coordinates(weights, si, sj, n, 3)
            assert iterative.shape == dense.shape
            for target in range(0, n, 15):
                got = target_distances(iterative, [target] * len(weights))
                want = target_distances(dense, [target] * len(weights))
                assert np.allclose(got, want, rtol=0.0, atol=1e-8)

    def test_band_keeps_the_given_order_where_it_is_narrower(self):
        # Row-major, a 16x16 king grid's band spans 17 off-diagonals; the
        # reverse Cuthill-McKee order would give it 31.
        _, ei, ej, n = _king16_batch()
        perm, kd, _ = spectral._band_layout(ei, ej, n)
        assert kd == 17 and np.array_equal(perm, np.arange(n))
        rename = np.random.default_rng(3).permutation(n)
        perm, kd, _ = spectral._band_layout(rename[ei], rename[ej], n)
        assert kd <= 31 and not np.array_equal(perm, np.arange(n))

    def test_both_blas_copies_pinned_during_the_solve(self, monkeypatch, blas):
        import scipy.sparse.linalg as sparse_linalg

        calls = spectral._scipy_openblas_thread_calls()
        if calls is None:
            count = [1]
            calls = (lambda: count[0], lambda k: count.__setitem__(0, k))
            monkeypatch.setattr(spectral, "_scipy_openblas_thread_calls", lambda: calls)
        get, put = calls
        seen = []
        eigsh = sparse_linalg.eigsh

        def spy(*args, **kwargs):
            seen.append((blas(), get()))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(sparse_linalg, "eigsh", spy)
        weights, ei, ej, n = _king16_batch()
        before = get()
        put(2)
        try:
            batched_coordinates(weights, ei, ej, n, 2)
            assert len(seen) >= len(weights) and set(seen) == {(1, 1)}
            assert (blas(), get()) == (2, 2)
        finally:
            put(before)

    def test_failed_factor_falls_back_to_the_dense_route(self, monkeypatch):
        import scipy.linalg.lapack as lapack

        weights, ei, ej, n = _king16_batch()
        monkeypatch.setattr(lapack, "dpbtrf", lambda ab, **kwargs: (ab, 1))
        fallen = batched_coordinates(weights, ei, ej, n, 2)
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX", n)
        dense = batched_coordinates(weights, ei, ej, n, 2)
        # The same dense solve, one graph at a time rather than in chunks;
        # degenerate rows may come out in another basis of their group.
        assert fallen.shape == dense.shape
        for target in range(0, n, 15):
            got = target_distances(fallen, [target] * len(weights))
            want = target_distances(dense, [target] * len(weights))
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _unband(band):
    """Symmetric dense matrix of a LAPACK lower band store."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for d in range(band.shape[0]):
        idx = np.arange(n - d)
        dense[idx + d, idx] = band[d, : n - d]
    return dense + np.tril(dense, -1).T


def _weights_in_order(g, g2, rename):
    """Weights of g2's edges looked up from g through the renaming."""
    inverse = {v: k for k, v in rename.items()}
    by_pair = {
        frozenset(pair): w for pair, w in zip(g.edge_ids, g.weight_array())
    }
    return [
        by_pair[frozenset((inverse[a], inverse[b]))] for a, b in g2.edge_ids
    ]


def _mixed_batch(count=250):
    """A 4-cycle and a 6-cycle under `count` weightings each; about a tenth
    of the rows are uniform, where r=1 widens to a degenerate pair."""
    rng = np.random.default_rng(17)
    batches = []
    for n in (4, 6):
        edges = [(k, (k + 1) % n) for k in range(n)]
        ei, ej = (np.array(side) for side in zip(*edges))
        weights = rng.uniform(0.1, 1.0, (count, len(edges)))
        weights[rng.random(count) < 0.1] = 1.0
        batches.append((weights, ei, ej, n))
    return batches


def _king_batch(rows, cols, count, seed, uniform=()):
    """A rows x cols king grid under `count` random weightings; the rows
    listed in `uniform` get weight 1 on every edge."""
    layout = grid_layout(rows, cols)
    ei, ej = build_graph(layout, propose_grid_edges(layout, "king")).edge_index_arrays()
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, (count, ei.size))
    weights[list(uniform)] = 1.0
    return weights, ei, ej, rows * cols


def _complete_batch(n, count, seed):
    """The complete graph on n nodes: uniform in row 1, whose spectrum is
    0 and one (n - 1)-fold eigenvalue, random in the others."""
    ei, ej = np.tril_indices(n, -1)
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, (count, ei.size))
    weights[1] = 1.0
    return weights, ei, ej, n


def _widths(coords):
    """Each row's effective dimension: its columns not all zero."""
    return (coords != 0).any(axis=1).sum(axis=1)


def _partial_cases():
    return [
        *_mixed_batch(),
        _king_batch(5, 7, 60, 31),
        _king_batch(10, 10, 4, 37, uniform=(0, 2)),
        _complete_batch(24, 4, 41),
    ]


class TestPartialSolve:
    """From PARTIAL_SOLVER_MIN nodes the dense route fetches each graph's
    lowest pairs from the bundled LAPACKE `dsyevr`."""

    @pytest.fixture(autouse=True)
    def _everywhere(self, monkeypatch):
        if spectral._dsyevr() is None:
            pytest.skip("numpy's bundled OpenBLAS has no LAPACKE dsyevr")
        monkeypatch.setattr(spectral, "PARTIAL_SOLVER_MIN", 2)

    @staticmethod
    def _full(monkeypatch, weights, ei, ej, n, r):
        with monkeypatch.context() as patched:
            patched.setattr(spectral, "_dsyevr", lambda: None)
            return batched_coordinates(weights, ei, ej, n, r)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_distances_match_the_full_eigh(self, monkeypatch, r):
        for weights, ei, ej, n in _partial_cases():
            got = batched_coordinates(weights, ei, ej, n, r)
            want = self._full(monkeypatch, weights, ei, ej, n, r)
            assert got.shape == want.shape
            assert np.array_equal(_widths(got), _widths(want))
            for target in range(0, n, 3):
                targets = [target] * len(weights)
                assert np.allclose(
                    target_distances(got, targets), target_distances(want, targets),
                    rtol=0.0, atol=1e-12,
                )

    def test_fetches_more_pairs_while_a_group_reaches_the_last(self, monkeypatch):
        weights, ei, ej, n = _complete_batch(24, 4, 41)
        sizes = []
        fetch = spectral._PairFetcher.__call__

        def spy(self, m, w, z):
            sizes.append(w.size)
            return fetch(self, m, w, z)

        monkeypatch.setattr(spectral._PairFetcher, "__call__", spy)
        monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "1")
        coords = batched_coordinates(weights, ei, ej, n, 2)
        # Four graphs at r + 2 = 4 pairs, then the uniform one at 8, 16, 24.
        assert sizes == [4, 4, 4, 4, 8, 16, 24]
        assert _widths(coords).tolist() == [2, n - 1, 2, 2]

    def test_failed_solve_takes_eigh_for_that_graph_alone(self, monkeypatch):
        weights, ei, ej, n = _king_batch(5, 7, 6, 43, uniform=(3,))
        want = self._full(monkeypatch, weights, ei, ej, n, 2)
        solve = spectral._dsyevr()
        solves = []

        def fail_third(*args):
            if args[18] != -1:  # not a workspace query
                solves.append(None)
                if len(solves) == 3:
                    return 1
            return solve(*args)

        monkeypatch.setattr(spectral, "_dsyevr", lambda: fail_third)
        monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "1")
        got = batched_coordinates(weights, ei, ej, n, 2)
        assert len(solves) == len(weights)
        assert np.array_equal(got[2], want[2])
        assert not np.array_equal(np.abs(got[0]), np.abs(want[0]))  # solved apart
        for target in range(n):
            targets = [target] * len(weights)
            assert np.allclose(
                target_distances(got, targets), target_distances(want, targets),
                rtol=0.0, atol=1e-12,
            )

    @pytest.mark.parametrize("batch_bytes", [spectral.BATCH_BYTES, 30000])
    def test_bits_do_not_depend_on_the_cap(self, monkeypatch, blas, batch_bytes):
        # 30000 bytes hold 3 rows of 5x7 and 6 of 24 nodes, so the
        # refetched uniform rows share chunks with others or not.
        monkeypatch.setattr(spectral, "BATCH_BYTES", batch_bytes)
        cases = (_king_batch(5, 7, 40, 47, (5, 6)), _complete_batch(24, 20, 53))
        for weights, ei, ej, n in cases:
            runs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", threads)
                runs.append(batched_coordinates(weights, ei, ej, n, 2))
            alone = [batched_coordinates(w[None], ei, ej, n, 2)[0] for w in weights[:8]]
            for run in runs[1:]:
                assert np.array_equal(run, runs[0])
            for b, coords in enumerate(alone):
                assert np.array_equal(runs[0][b, :, : coords.shape[1]], coords)


def test_dense_solver_found_with_numpy_openblas():
    # A wheel whose OpenBLAS lost the symbol would fall back to the full
    # eigh silently; this names it.
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    bundled = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    assert (spectral._dsyevr() is not None) == bool(bundled)


class TestEngineThreads:
    """The dense route splits its batch over `thread_cap()` workers."""

    @pytest.mark.parametrize("batch_bytes", [spectral.BATCH_BYTES, 2000])
    def test_bits_do_not_depend_on_the_cap(self, monkeypatch, blas, batch_bytes):
        # 2000 bytes hold 15 rows of 4x4 and 6 of 6x6, so the batch also
        # splits into more chunks than workers.
        monkeypatch.setattr(spectral, "BATCH_BYTES", batch_bytes)
        for weights, ei, ej, n in _mixed_batch():
            runs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", threads)
                runs.append(batched_coordinates(weights, ei, ej, n, 1))
            assert runs[0].shape == (len(weights), n, 2)
            assert (runs[0][:, :, 1] != 0).any() and (runs[0][:, :, 1] == 0).any()
            for run in runs[1:]:
                assert np.array_equal(run, runs[0])

    def _spy(self, monkeypatch, get, before=lambda: None):
        """Record (BLAS threads, thread id) at each chunk's solve."""
        seen = []
        solve = spectral._dense_coordinates

        def spy(weights, *args, **kwargs):
            before()
            seen.append((get(), threading.get_ident()))
            return solve(weights, *args, **kwargs)

        monkeypatch.setattr(spectral, "_dense_coordinates", spy)
        return seen

    @pytest.mark.parametrize("cap", [1, 2])
    def test_blas_pinned_during_a_call_and_restored_after(self, monkeypatch, blas, cap):
        # A cap of 1 takes the serial path, which must pin BLAS too.
        monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", str(cap))
        weights, ei, ej, n = _mixed_batch()[0]
        seen = self._spy(monkeypatch, blas)
        batched_coordinates(weights, ei, ej, n, 1)
        assert seen and {threads for threads, _ in seen} == {1}
        if cap == 2:
            assert len(seen) == 2
            assert threading.get_ident() not in {ident for _, ident in seen}
        assert blas() == 2

    def test_blas_restored_when_a_worker_raises(self, monkeypatch, blas):
        weights, ei, ej, n = _mixed_batch()[0]
        solves = []

        def fail_second():
            solves.append(None)
            if len(solves) == 2:
                raise RuntimeError("solver failed")

        self._spy(monkeypatch, blas, fail_second)
        with pytest.raises(RuntimeError, match="solver failed"):
            batched_coordinates(weights, ei, ej, n, 1)
        assert blas() == 2

    def test_blas_restored_after_overlapping_calls(self, monkeypatch, blas):
        # Both calls' two chunks wait for each other inside the solve, so
        # the calls overlap; the first to finish must not unpin the other.
        weights, ei, ej, n = _mixed_batch()[0]
        meet = threading.Barrier(4, timeout=30)
        seen = self._spy(monkeypatch, blas, meet.wait)
        results, errors = [], []

        def call():
            try:
                results.append(batched_coordinates(weights, ei, ej, n, 1))
            except Exception as exc:  # surfaced by the asserts below
                errors.append(exc)

        callers = [threading.Thread(target=call) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        assert errors == [] and len(results) == 2
        assert np.array_equal(results[0], results[1])
        assert len(seen) == 4 and {threads for threads, _ in seen} == {1}
        assert blas() == 2

    def test_blas_restored_after_many_racing_calls(self, monkeypatch, blas):
        # More callers and workers than cores, switching threads as often
        # as the interpreter allows: a lost update to the pin count would
        # leave BLAS pinned or restore it early.
        monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "3")
        weights, ei, ej, n = _mixed_batch(30)[0]
        want = batched_coordinates(weights, ei, ej, n, 1)
        seen = self._spy(monkeypatch, blas)
        results = []

        def call():
            for _ in range(20):
                results.append(batched_coordinates(weights, ei, ej, n, 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call) for _ in range(6)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 120 and all(np.array_equal(r, want) for r in results)
        assert len(seen) == 360 and {threads for threads, _ in seen} == {1}
        assert blas() == 2

    def test_serial_without_blas_control(self, monkeypatch):
        monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: None)
        seen = self._spy(monkeypatch, lambda: None)
        for weights, ei, ej, n in _mixed_batch():
            monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "1")
            serial = batched_coordinates(weights, ei, ej, n, 2)
            monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "2")
            seen.clear()
            assert np.array_equal(batched_coordinates(weights, ei, ej, n, 2), serial)
            assert len(seen) == 2
            assert {ident for _, ident in seen} == {threading.get_ident()}
