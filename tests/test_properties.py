"""Property tests over randomly drawn inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_imputer import spectral
from spectral_imputer.estimators import (
    DEFAULT_WEIGHT_FLOOR,
    METHODS,
    EstimatorConfig,
    Panel,
    Provenance,
    make_estimator,
    run_estimator,
)
from spectral_imputer.evaluation import SETUPS, leave_one_out_eval, scorable_cells
from spectral_imputer.graph import (
    FarmLayout,
    Sensor,
    build_graph,
    component_labels,
    pairwise_distances,
)
from spectral_imputer.io import atomic_write_text, load_panel, panel_csv_text
from spectral_imputer.kernels import KERNEL_NAMES, kernel_weight_rows

import oracles

capacities = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def panels(draw):
    n = draw(st.integers(1, 5))
    t_len = draw(st.integers(1, 12))
    caps = draw(st.lists(capacities, min_size=n, max_size=n))
    layout = FarmLayout(
        tuple(Sensor(f"s{i}", 0.0, float(i), c) for i, c in enumerate(caps))
    )
    cells = draw(st.lists(unit, min_size=t_len * n, max_size=t_len * n))
    holes = draw(st.lists(st.booleans(), min_size=t_len * n, max_size=t_len * n))
    mask = ~np.array(holes)
    values = np.where(mask, cells, np.nan).reshape(t_len, n)
    stamps = tuple(repr(0.5 * t) for t in range(t_len))
    return layout, Panel(stamps, layout.ids, values, mask.reshape(t_len, n))


@settings(max_examples=60, deadline=None)
@given(drawn=panels())
def test_panel_survives_csv_round_trip(tmp_path_factory, drawn):
    layout, panel = drawn
    path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
    text = panel_csv_text(layout, panel.sensor_ids, panel.timestamps, panel.values)
    atomic_write_text(path, text)
    again, clamped = load_panel(path, layout)
    assert clamped == 0
    assert again.timestamps == panel.timestamps
    assert np.array_equal(again.mask, panel.mask)
    caps = layout.capacities()
    assert np.array_equal(again.values, (panel.values * caps) / caps, equal_nan=True)
    assert panel_csv_text(layout, again.sensor_ids, again.timestamps, again.values) == text


@st.composite
def edge_lists(draw):
    """Node count and (a, b) pairs: random ones, with repeats and reversals,
    plus a path through the nodes in random order."""
    n = draw(st.integers(0, 60))
    pairs = []
    if n:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
        pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
        if draw(st.booleans()):
            order = draw(st.permutations(range(n)))
            pairs += list(zip(order[:-1], order[1:]))
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(drawn=edge_lists())
def test_component_labels_match_flood_fill(drawn):
    n, pairs = drawn
    ei = np.array([a for a, _ in pairs], dtype=np.intp)
    ej = np.array([b for _, b in pairs], dtype=np.intp)
    assert component_labels(n, ei, ej).tolist() == oracles.flood_components(n, pairs)


@st.composite
def farms(draw, min_sensors=2):
    """A layout, a connected graph over it and a holed panel of readings."""
    n = draw(st.integers(min_sensors, 6))
    t_len = draw(st.integers(1, 6))
    spots = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                 min_size=n, max_size=n, unique=True)
    )
    layout = FarmLayout(
        tuple(Sensor(f"s{i}", float(a), float(b), 1.0) for i, (a, b) in enumerate(spots))
    )
    order = draw(st.permutations(range(n)))
    pairs = list(zip(order[:-1], order[1:]))
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=n))
    graph = build_graph(layout, [(f"s{a}", f"s{b}") for a, b in pairs])
    cells = draw(st.lists(unit, min_size=t_len * n, max_size=t_len * n))
    holes = draw(st.lists(st.booleans(), min_size=t_len * n, max_size=t_len * n))
    values = np.array(cells).reshape(t_len, n)
    values[np.array(holes).reshape(t_len, n)] = np.nan
    stamps = tuple(str(float(t)) for t in range(t_len))
    return layout, graph, Panel.from_values(stamps, layout.ids, values)


@settings(max_examples=40, deadline=None)
@given(drawn=farms())
def test_leave_one_out_is_impute_with_the_cell_hidden(drawn):
    layout, graph, panel = drawn
    for method in METHODS:
        config = EstimatorConfig(method)
        hidden_fill = {}
        for t, col in zip(*np.nonzero(panel.mask)):
            values = panel.values.copy()
            values[t, col] = np.nan
            hidden = Panel.from_values(panel.timestamps, panel.sensor_ids, values)
            out = run_estimator(hidden, config, layout=layout, graph=graph)
            hidden_fill[t, col] = (out.filled[t, col], out.provenance[t, col])
        for setup in SETUPS:
            report = leave_one_out_eval(panel, config, setup, layout=layout, graph=graph)
            tags = np.zeros(len(Provenance), dtype=int)
            for col in range(panel.n_sensors):
                rows = np.flatnonzero(scorable_cells(panel.mask, setup)[:, col])
                if rows.size == 0:
                    assert np.isnan(report.rmse[col])
                    continue
                fill = np.array([hidden_fill[t, col][0] for t in rows])
                for t in rows:
                    tags[hidden_fill[t, col][1]] += 1
                direct = np.sqrt(np.mean((panel.values[rows, col] - fill) ** 2))
                assert abs(report.rmse[col] - direct) <= 1e-10
            want = {p.label: int(tags[p]) for p in Provenance if tags[p]}
            assert report.fallback_counts == ({} if method == "naive" else want)


@settings(max_examples=40, deadline=None)
@given(drawn=farms(min_sensors=1), data=st.data())
def test_estimators_are_permutation_equivariant(drawn, data):
    layout, graph, panel = drawn
    perm = np.array(data.draw(st.permutations(range(panel.n_sensors))))
    moved = FarmLayout(tuple(layout.sensors[k] for k in perm))
    moved_graph = build_graph(moved, graph.edge_ids)
    moved_panel = Panel.from_values(
        panel.timestamps, moved.ids, panel.values[:, perm]
    )
    for method in METHODS:
        config = EstimatorConfig(method)
        out = run_estimator(panel, config, layout=layout, graph=graph)
        again = run_estimator(moved_panel, config, layout=moved, graph=moved_graph)
        assert np.array_equal(again.provenance, out.provenance[:, perm])
        assert np.array_equal(np.isnan(again.filled), np.isnan(out.filled[:, perm]))
        assert np.nanmax(np.abs(again.filled - out.filled[:, perm]), initial=0.0) <= 1e-10


@st.composite
def fixed_distance_blocks(draw):
    """A kernel, a layout on a grid of at most 3x3 spots and a block of rows.

    Spots repeat, so sensors coincide (on a 1x1 grid nothing lies at a
    positive distance) and far sensors tie; some rows hide the far set of
    a sensor, and readings are finite everywhere, observed or not."""
    kind = draw(st.sampled_from(KERNEL_NAMES))
    n = draw(st.integers(2, 12))
    side = st.integers(0, draw(st.integers(0, 2)))
    spots = draw(st.lists(st.tuples(side, side), min_size=n, max_size=n))
    layout = FarmLayout(
        tuple(Sensor(f"s{i}", float(a), float(b), 1.0) for i, (a, b) in enumerate(spots))
    )
    t_len = draw(st.integers(1, 8))
    values = np.array(draw(st.lists(unit, min_size=t_len * n, max_size=t_len * n)))
    obs = np.array(draw(st.lists(st.booleans(), min_size=t_len * n, max_size=t_len * n)))
    values, obs = values.reshape(t_len, n), obs.reshape(t_len, n)
    dist = pairwise_distances(layout.positions())
    for t, i in enumerate(draw(st.lists(st.integers(0, n - 1), max_size=t_len))):
        far = dist[i] == np.delete(dist[i], i).max()
        far[i] = False
        obs[t, far] = False
    return kind, layout, dist, values, obs


@settings(max_examples=150, deadline=None)
@given(drawn=fixed_distance_blocks())
def test_fixed_distance_and_mean_match_each_cells_neighbor_set(drawn):
    """The location estimator and the plain mean, on `impute`'s cells
    (holes) and leave-one-out's (observed cells), agree with
    `kernel_weight_rows` and a mean over the row's other observed sensors."""
    kind, layout, dist, values, obs = drawn
    location = make_estimator(EstimatorConfig("location", kind), layout.ids, layout)
    mean = make_estimator(EstimatorConfig("naive"), layout.ids)
    n = len(layout.ids)
    others = obs.sum(axis=1, keepdims=True) - obs > 0
    for cells in (~obs & others, obs & others):
        rows, targets = np.nonzero(cells)
        estimates, codes = location.estimate(values, obs, rows, targets)
        means, _ = mean.estimate(values, obs, rows, targets)
        for c, (t, i) in enumerate(zip(rows, targets)):
            near = obs[t] & (np.arange(n) != i)
            weights, fallback = kernel_weight_rows(kind, dist[i][None], near[None])
            want = (weights[0] * values[t]).sum()
            code = Provenance.UNIFORM_FALLBACK if fallback[0] else Provenance.WEIGHTED_KNN
            assert abs(estimates[c] - want) <= 1e-12
            assert codes[c] == code
            assert abs(means[c] - values[t, near].mean()) <= 1e-12


@st.composite
def weighted_graphs(draw):
    """(weights, ei, ej, n): a connected graph of 3 to 40 nodes under 1 to
    3 weightings, one of them uniform at times.

    The graph is a random tree plus extra edges, a complete graph or a
    king grid; uniform weights on the last two give degenerate groups.
    Some graphs carry one edge just above the weight floor, on a cycle:
    as a bridge between two parts it would leave the graph nearly cut,
    its second eigenvalue within 1e-12 of the first, and every route's
    vectors accurate only to about 1e-4 there."""
    shape = draw(st.sampled_from(["random", "complete", "king"]))
    if shape == "king":
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(3, 8))
        grid = np.arange(rows * cols).reshape(rows, cols)
        pairs = [(grid[:, :-1], grid[:, 1:]), (grid[:-1], grid[1:]),
                 (grid[:-1, :-1], grid[1:, 1:]), (grid[:-1, 1:], grid[1:, :-1])]
        ei = np.concatenate([a.ravel() for a, _ in pairs])
        ej = np.concatenate([b.ravel() for _, b in pairs])
        n = rows * cols
    elif shape == "complete":
        n = draw(st.integers(3, 12))
        ei, ej = np.tril_indices(n, -1)
    else:
        n = draw(st.integers(3, 40))
        edges = {(k, draw(st.integers(0, k - 1))) for k in range(1, n)}
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
        edges |= {(max(a, b), min(a, b)) for a, b in extra if a != b}
        ei, ej = (np.array(side) for side in zip(*sorted(edges)))
    count = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=count * ei.size,
                                     max_size=count * ei.size))).reshape(count, ei.size)
    if draw(st.booleans()):
        weights[draw(st.integers(0, count - 1))] = draw(st.floats(0.05, 1.0))
    on_cycles = [
        e for e in range(ei.size)
        if np.unique(component_labels(n, np.delete(ei, e), np.delete(ej, e))).size == 1
    ]
    if on_cycles and draw(st.booleans()):
        weights[:, draw(st.sampled_from(on_cycles))] = 2 * DEFAULT_WEIGHT_FLOOR
    return weights, ei, ej, n


def _route_coordinates(route, weights, ei, ej, n, r, threads):
    with pytest.MonkeyPatch.context() as patched:
        patched.setenv("SPECTRAL_IMPUTER_THREADS", str(threads))
        # One graph per chunk, so two threads share a batch.
        patched.setattr(spectral, "BATCH_BYTES", 8 * n * n)
        if route == "eigh":
            patched.setattr(spectral, "_dsyevr", lambda: None)
        elif route == "dsyevr":
            patched.setattr(spectral, "PARTIAL_SOLVER_MIN", 2)
        else:
            patched.setattr(spectral, "DENSE_SOLVER_MAX", 2)
        return spectral.batched_coordinates(weights, ei, ej, n, r)


@settings(max_examples=200, deadline=None)
@given(drawn=weighted_graphs(), r=st.integers(1, 3))
def test_embedding_routes_agree(drawn, r):
    """Batched `eigh`, the deflated `dsyevr` fetch and the iterative route
    give every graph the same effective dimension and distances within
    1e-8, and on every route each graph's bits depend neither on its
    batch mates nor on the worker count.

    The iterative route is held to the same distances only where the
    lowest r + 2 eigenvalues are simple: from its one start vector ARPACK
    can return one member of a repeated eigenvalue where there are two."""
    weights, ei, ej, n = drawn
    routes = ["eigh", "dsyevr", "iterative"]
    if spectral._dsyevr() is None:
        routes.remove("dsyevr")
    got = {}
    for route in routes:
        coords = got[route] = _route_coordinates(route, weights, ei, ej, n, r, 1)
        assert np.array_equal(_route_coordinates(route, weights, ei, ej, n, r, 2), coords)
        for b, w in enumerate(weights):
            alone = _route_coordinates(route, w[None], ei, ej, n, r, 1)[0]
            k = alone.shape[1]
            assert np.array_equal(coords[b, :, :k], alone) and not coords[b, :, k:].any()
    spectra = np.linalg.eigvalsh(spectral._reduced_laplacians(weights, ei, ej, n)[0])
    simple = (np.diff(spectra[:, 1 : r + 3], axis=1) > 1e-6).all(axis=1)
    for route in routes[1:]:
        rows = slice(None) if route == "dsyevr" else simple
        widths = [(got[key][rows] != 0).any(axis=1).sum(axis=1) for key in (route, "eigh")]
        assert np.array_equal(*widths)
        for target in range(n):
            targets = [target] * len(weights)
            assert np.allclose(
                spectral.target_distances(got[route], targets)[rows],
                spectral.target_distances(got["eigh"], targets)[rows],
                rtol=0.0, atol=1e-8,
            )
