import numpy as np
import pytest

from spectral_imputer.errors import InputError, NoNeighborsError
from spectral_imputer.kernels import KERNEL_NAMES, _KERNELS, kernel_weight_rows

from oracles import kernel_value, nw_estimate

COMPACT_SMOOTH = ("epanechnikov", "triangular", "quartic", "triweight", "tricube")


def kernel(kind, u):
    return _KERNELS[kind](np.asarray(u, dtype=float))


def weights_of(kind, dists):
    """One row's weights and fallback flag, every neighbor observed."""
    dist = np.array([dists], dtype=float)
    weights, fallback = kernel_weight_rows(kind, dist, np.ones(dist.shape, dtype=bool))
    return weights[0], bool(fallback[0])


class TestKernelValues:
    def test_known_values(self):
        # Frozen closed-form evaluations.
        assert kernel("triweight", 0.5) == pytest.approx(0.421875, abs=1e-15)
        assert kernel("gaussian", 1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert kernel("tricube", 0.5) == pytest.approx(0.669921875, abs=1e-15)
        assert kernel("quartic", 0.5) == pytest.approx(0.5625, abs=1e-15)
        assert kernel("triangular", 0.5) == pytest.approx(0.5, abs=1e-15)
        assert kernel("epanechnikov", 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_support_boundary_is_closed(self):
        assert kernel("naive", 0.99) == 1.0
        assert kernel("naive", 1.0) == 1.0
        assert kernel("naive", 1.0000001) == 0.0
        for kind in COMPACT_SMOOTH:
            assert kernel(kind, 1.0) == 0.0
            assert kernel(kind, 1.2) == 0.0

    def test_unit_at_zero(self):
        for kind in KERNEL_NAMES:
            assert kernel(kind, 0.0) == 1.0

    def test_nonincreasing_and_in_unit_interval(self):
        u = np.linspace(0.0, 3.0, 301)
        for kind in KERNEL_NAMES:
            vals = kernel(kind, u)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals == pytest.approx([kernel_value(kind, x) for x in u], abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            weights_of("gaussian", [-0.1])
        with pytest.raises(InputError):
            weights_of("boxcar", [0.5])
        with pytest.raises(InputError):
            weights_of("gaussian", [np.nan])
        with pytest.raises(InputError):
            weights_of("gaussian", [0.5, np.inf])

    def test_array_shape_preserved(self):
        out = kernel("triweight", np.array([[0.0, 0.5], [1.0, 2.0]]))
        assert out.shape == (2, 2)
        assert out[0, 1] == pytest.approx(0.421875)


class TestNadarayaWatsonWeights:
    """One row of `kernel_weight_rows`, against the direct formula."""

    def test_triangular_two_neighbors(self):
        # h = 2: scaled distances (0.5, 1) -> kernel (0.5, 0) -> weights (1, 0).
        w, fallback = weights_of("triangular", [1.0, 2.0])
        assert w[0] == pytest.approx(1.0, abs=1e-15)
        assert w[1] == pytest.approx(0.0, abs=1e-15)
        assert not fallback

    def test_naive_kernel_is_uniform(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            w, fallback = weights_of("naive", rng.uniform(0, 10, n))
            assert not fallback
            assert w == pytest.approx(np.full(n, 1.0 / n), abs=1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            kind = KERNEL_NAMES[int(rng.integers(len(KERNEL_NAMES)))]
            n = int(rng.integers(1, 10))
            dists = rng.uniform(0, 5, n)
            values = rng.random(n)
            w, _ = weights_of(kind, dists)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0)
            assert w @ values == pytest.approx(
                nw_estimate(kind, list(dists), list(values)), abs=1e-12
            )

    def test_only_gaussian_weights_furthest_neighbor(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            d = rng.permutation(np.linspace(1.0, 2.0, n))
            furthest = int(np.argmax(d))
            for kind in COMPACT_SMOOTH:
                w, _ = weights_of(kind, d)
                assert w[furthest] == 0.0
            w, _ = weights_of("gaussian", d)
            assert w[furthest] > 0.0

    def test_all_zero_distances_fall_back_to_uniform(self):
        w, fallback = weights_of("triweight", [0.0, 0.0])
        assert fallback
        assert w.tolist() == [0.5, 0.5]

    def test_equidistant_neighbors_compact_kernel_falls_back(self):
        # All scaled distances hit u=1 where compact kernels vanish.
        w, fallback = weights_of("triweight", [3.0, 3.0])
        assert fallback
        assert w.tolist() == [0.5, 0.5]
        # The gaussian keeps finite mass there; no fallback.
        w, fallback = weights_of("gaussian", [3.0, 3.0])
        assert not fallback
        assert w[0] == pytest.approx(0.5, abs=1e-15)

    def test_single_neighbor_gets_unit_weight(self):
        for kind in KERNEL_NAMES:
            w, _ = weights_of(kind, [2.5])
            assert w[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_neighbors_rejected(self):
        with pytest.raises(NoNeighborsError):
            kernel_weight_rows("gaussian", np.ones((1, 2)), np.zeros((1, 2), dtype=bool))

    def test_negative_distance_rejected(self):
        with pytest.raises(InputError):
            weights_of("gaussian", [-1.0])


class TestKernelWeightRows:
    def test_matches_scalar_route(self):
        rng = np.random.default_rng(9)
        for kind in KERNEL_NAMES:
            for _ in range(20):
                n = int(rng.integers(2, 9))
                dist = rng.uniform(0, 4, size=(6, n))
                values = rng.random((6, n))
                obs = rng.random((6, n)) < 0.7
                obs[np.sum(obs, axis=1) == 0, 0] = True
                weights, fallback = kernel_weight_rows(kind, dist, obs)
                for b in range(6):
                    d, v = list(dist[b, obs[b]]), list(values[b, obs[b]])
                    k = [kernel_value(kind, x / max(d)) for x in d]
                    assert bool(fallback[b]) == (max(d) <= 0 or sum(k) < 1e-12)
                    assert weights[b] @ values[b] == pytest.approx(
                        nw_estimate(kind, d, v), abs=1e-12
                    )
                    assert np.all(weights[b, ~obs[b]] == 0.0)

    def test_rows_sum_to_one_over_observed(self):
        rng = np.random.default_rng(2)
        dist = rng.uniform(0, 3, size=(50, 7))
        obs = rng.random((50, 7)) < 0.6
        obs[np.sum(obs, axis=1) == 0, 2] = True
        weights, _ = kernel_weight_rows("triweight", dist, obs)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights[~obs] == 0.0)

    def test_row_without_neighbors_rejected(self):
        with pytest.raises(NoNeighborsError):
            kernel_weight_rows(
                "gaussian", np.ones((2, 3)), np.array([[True, True, True], [False, False, False]])
            )
