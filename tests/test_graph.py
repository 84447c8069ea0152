import numpy as np
import pytest

from spectral_imputer.errors import InputError
from spectral_imputer.graph import (
    FarmGraph,
    FarmLayout,
    Sensor,
    adjacency,
    build_graph,
    components,
    pairwise_distances,
    propose_grid_edges,
)

from conftest import grid_layout, make_layout, random_connected_graph
from oracles import laplacian


def test_layout_rejects_duplicate_ids():
    sensors = (
        Sensor("a", 0.0, 0.0, 1.0),
        Sensor("a", 0.0, 1.0, 1.0),
    )
    with pytest.raises(InputError):
        FarmLayout(sensors)


def test_layout_rejects_nonpositive_capacity():
    with pytest.raises(InputError):
        FarmLayout((Sensor("a", 0.0, 0.0, 0.0),))


def test_build_graph_collapses_duplicates_and_reversals(path3_layout):
    g = build_graph(
        path3_layout, [("s00", "s01"), ("s01", "s00"), ("s00", "s01")]
    )
    assert g.edges == ((0, 1),)


def test_build_graph_rejects_unknown_id(path3_layout):
    with pytest.raises(InputError):
        build_graph(path3_layout, [("s00", "nope")])


def test_build_graph_rejects_self_loop(path3_layout):
    with pytest.raises(InputError):
        build_graph(path3_layout, [("s01", "s01")])


def test_path_laplacian_matches_hand_computation(path3_graph):
    # Path a-b-c: degrees (1, 2, 1).
    L, D = laplacian(path3_graph)
    assert np.array_equal(D, np.diag([1.0, 2.0, 1.0]))
    expected = np.array(
        [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    )
    assert np.array_equal(L, expected)


def test_weighted_path_degrees(path3_graph):
    g = path3_graph.with_weights([0.5, 0.5])
    _, D = laplacian(g)
    assert np.array_equal(np.diag(D), [0.5, 1.0, 0.5])


def test_with_weights_rejects_out_of_range(path3_graph):
    with pytest.raises(InputError):
        path3_graph.with_weights([0.5, 1.5])
    with pytest.raises(InputError):
        path3_graph.with_weights([-0.1, 0.5])


def test_adjacency_symmetric_zero_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        layout = make_layout([(0.0, k) for k in range(n)])
        g = random_connected_graph(rng, layout, extra_edges=3, weighted=True)
        a = adjacency(g)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        # Row sums of L vanish by construction.
        L, _ = laplacian(g)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)


def test_components_triangle_plus_isolate():
    layout = make_layout([(0, 0), (0, 1), (1, 0), (5, 5)])
    g = build_graph(
        layout, [("s00", "s01"), ("s01", "s02"), ("s00", "s02")]
    )
    part = components(g)
    assert part.labels == (0, 0, 0, 1)
    assert part.assignments["s03"] == 1


def test_components_drop_edges_at_or_below_floor(path3_layout):
    g = build_graph(path3_layout, [("s00", "s01"), ("s01", "s02")])
    g = g.with_weights([1e-12, 0.5])
    part = components(g, weight_floor=1e-12)
    # The edge at exactly the floor is absent.
    assert part.labels == (0, 1, 1)
    assert part.count == 2


def test_component_indices_ordered_by_smallest_member():
    layout = make_layout([(0, k) for k in range(5)])
    # Components {0, 4} and {1, 2, 3}: node 0's component must be label 0.
    g = build_graph(
        layout, [("s00", "s04"), ("s01", "s02"), ("s02", "s03")]
    )
    part = components(g)
    assert part.labels == (0, 1, 1, 1, 0)


def test_propose_grid_edges_rook_and_king():
    layout = grid_layout(2, 2, spacing=1.0)
    rook = propose_grid_edges(layout, mode="rook")
    king = propose_grid_edges(layout, mode="king")
    assert len(rook) == 4
    assert len(king) == 6
    assert set(rook) <= set(king)


def test_pairwise_distances_rescale_only_overflowing_pairs():
    points = np.random.default_rng(3).normal(size=(9, 2)) * 1e3
    diff = points[:, None, :] - points[None, :, :]
    assert np.array_equal(pairwise_distances(points), np.sqrt((diff**2).sum(axis=2)))
    far = pairwise_distances(np.array([[-1e200, 0.0], [1e200, 0.0], [0.0, 3e200]]))
    assert far[0, 1] == 2e200
    assert far[1, 2] == pytest.approx(np.sqrt(10.0) * 1e200, rel=1e-15)
    with pytest.raises(InputError, match="too far apart"):
        pairwise_distances(np.array([[-1e308, 0.0], [1e308, 0.0]]))


def test_propose_grid_edges_rejects_coincident_sensors():
    layout = make_layout([(0, 0), (0, 0), (1, 1)])
    with pytest.raises(InputError):
        propose_grid_edges(layout)


def test_edge_ids_roundtrip(path3_graph):
    assert path3_graph.edge_ids == (("s00", "s01"), ("s01", "s02"))
