"""Property tests over randomly drawn inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_imputer.estimators import (
    METHODS,
    EstimatorConfig,
    Panel,
    Provenance,
    run_estimator,
)
from spectral_imputer.evaluation import SETUPS, leave_one_out_eval, scorable_cells
from spectral_imputer.graph import FarmLayout, Sensor, build_graph, component_labels
from spectral_imputer.io import atomic_write_text, load_panel, panel_csv_text

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
