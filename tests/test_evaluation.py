"""Leave-one-out evaluation, synthetic panels, and missingness."""

import os
import tracemalloc

import numpy as np
import pytest

from spectral_imputer import estimators, spectral
from spectral_imputer.errors import ConfigError, InputError, UndefinedScoreError
from spectral_imputer.estimators import (
    EstimatorConfig,
    Panel,
    Provenance,
    impute_naive,
    impute_weighted_graph,
    run_estimator,
)
from spectral_imputer.evaluation import (
    MissingnessSpec,
    apply_missingness,
    complexity_smoke,
    leave_one_out_eval,
    scorable_cells,
    split_rows,
    sweep,
    synth_panel,
)
from spectral_imputer.graph import build_graph, propose_grid_edges
from spectral_imputer.spectral import thread_cap

from conftest import grid_layout, make_layout
from oracles import rmse


def _grid_setup(rows, cols, spacing=1.0):
    layout = grid_layout(rows, cols, spacing)
    graph = build_graph(layout, propose_grid_edges(layout, "king"))
    return layout, graph


def test_rmse_hand_value():
    assert rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))


def test_rmse_shape_mismatch():
    with pytest.raises(InputError):
        rmse([1.0, 2.0], [1.0])


def test_rmse_empty_set_undefined():
    with pytest.raises(UndefinedScoreError):
        rmse([], [])


def test_scorable_rows_complete_and_incomplete():
    mask = np.array(
        [
            [True, True, True],
            [True, False, True],
            [True, False, False],
            [False, True, False],
        ]
    )
    assert np.flatnonzero(scorable_cells(mask, "complete")[:, 0]).tolist() == [0]
    # col 0 observed with at least one other: rows 0 and 1
    assert np.flatnonzero(scorable_cells(mask, "incomplete")[:, 0]).tolist() == [0, 1]
    # col 2 observed alone never happens; row 2 has col 0 only
    assert np.flatnonzero(scorable_cells(mask, "incomplete")[:, 2]).tolist() == [0, 1]
    # col 1 at row 3 is the only observation in its row: not scorable
    assert np.flatnonzero(scorable_cells(mask, "incomplete")[:, 1]).tolist() == [0]


def test_scorable_rows_unknown_setup():
    with pytest.raises(ConfigError):
        scorable_cells(np.ones((2, 2), dtype=bool), "both")


def test_missingness_spec_validation():
    with pytest.raises(ConfigError):
        MissingnessSpec(mechanism="mnar")
    with pytest.raises(ConfigError):
        MissingnessSpec(rate=1.0)
    with pytest.raises(ConfigError):
        MissingnessSpec(rate=-0.1)
    for block_mean in (0.5, np.inf, np.nan):
        with pytest.raises(ConfigError, match="outage length"):
            MissingnessSpec(mechanism="block", block_mean=block_mean)
    with pytest.raises(ConfigError, match="seed"):
        MissingnessSpec(seed=-1)


def test_apply_missingness_reproducible_and_bounded():
    layout = grid_layout(2, 3)
    full = synth_panel(layout, 200, spatial_scale=1.0, temporal_persistence=0.5, seed=1)
    spec = MissingnessSpec("mcar", 0.2, seed=7)
    a = apply_missingness(full, spec)
    b = apply_missingness(full, spec)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    c = apply_missingness(full, MissingnessSpec("mcar", 0.2, seed=8))
    assert not np.array_equal(a.mask, c.mask)


def test_apply_missingness_derives_without_rechecking(monkeypatch):
    # The source panel passed every check; the masked one re-parses no
    # timestamp, and the source is left as it was.
    layout = grid_layout(2, 3)
    full = synth_panel(layout, 200, spatial_scale=1.0, temporal_persistence=0.5, seed=1)
    before = full.values.copy()
    parsed = []
    monkeypatch.setattr(
        estimators, "timestamp_keys", lambda stamps: parsed.append(stamps)
    )
    masked = apply_missingness(full, MissingnessSpec("block", 0.05, 4.0, seed=7))
    assert parsed == []
    assert masked.timestamps == full.timestamps and masked.sensor_ids == full.sensor_ids
    assert not masked.mask.all()
    assert np.isnan(masked.values[~masked.mask]).all()
    assert np.array_equal(masked.values[masked.mask], full.values[masked.mask])
    assert full.mask.all() and np.array_equal(full.values, before)


def test_synth_panel_checks_its_cells_not_its_timestamps(monkeypatch):
    # Its timestamps 0.0, 1.0, ... are not parsed; the panel equals one
    # built through every check, and a NaN reading is still rejected.
    layout = grid_layout(2, 3)
    args = (layout, 50, 1.0, 0.5, 3)
    parsed = []
    keys = estimators.timestamp_keys
    monkeypatch.setattr(
        estimators, "timestamp_keys", lambda stamps: parsed.append(stamps) or keys(stamps)
    )
    panel = synth_panel(*args)
    assert parsed == []
    checked = Panel(panel.timestamps, panel.sensor_ids, panel.values, panel.mask)
    assert len(parsed) == 1
    assert checked.timestamps == panel.timestamps == tuple(f"{t}.0" for t in range(50))
    assert checked.sensor_ids == panel.sensor_ids == layout.ids
    assert np.array_equal(checked.values, panel.values) and panel.mask.all()
    with pytest.raises(InputError, match="finite"):
        synth_panel(layout, 100, 1.0, 0.5, seed=3, driver_scale=1e308, noise_scale=1e308)


def test_apply_missingness_rate_zero_keeps_everything():
    layout = grid_layout(2, 2)
    full = synth_panel(layout, 50, spatial_scale=1.0, temporal_persistence=0.3, seed=2)
    out = apply_missingness(full, MissingnessSpec("mcar", 0.0, seed=3))
    assert out.mask.all()
    assert np.array_equal(out.values, full.values)


def test_apply_missingness_needs_fully_observed_input():
    layout = grid_layout(2, 2)
    full = synth_panel(layout, 20, spatial_scale=1.0, temporal_persistence=0.3, seed=4)
    holed = apply_missingness(full, MissingnessSpec("mcar", 0.3, seed=5))
    with pytest.raises(InputError):
        apply_missingness(holed, MissingnessSpec("mcar", 0.1, seed=6))


def test_mcar_complete_row_fraction_tracks_binomial():
    layout = grid_layout(2, 3)
    t_len = 20000
    p = 0.05
    full = synth_panel(layout, t_len, spatial_scale=1.0, temporal_persistence=0.2, seed=9)
    out = apply_missingness(full, MissingnessSpec("mcar", p, seed=10))
    expect = (1.0 - p) ** layout.n
    sigma = np.sqrt(expect * (1.0 - expect) / t_len)
    frac = out.complete_rows().mean()
    assert abs(frac - expect) < 3.0 * sigma


def test_block_missingness_produces_runs():
    layout = grid_layout(2, 2)
    full = synth_panel(layout, 4000, spatial_scale=1.0, temporal_persistence=0.2, seed=11)
    blocky = apply_missingness(full, MissingnessSpec("block", 0.01, block_mean=8.0, seed=12))
    plain = apply_missingness(full, MissingnessSpec("mcar", 1.0 - blocky.mask.mean(), seed=12))
    # same overall rate but longer runs: count missing cells whose
    # predecessor in the column is also missing
    def run_pairs(mask):
        miss = ~mask
        return int((miss[1:] & miss[:-1]).sum())

    assert run_pairs(blocky.mask) > 2 * run_pairs(plain.mask)


def test_synth_panel_values_in_unit_interval_and_deterministic():
    layout = grid_layout(3, 3)
    a = synth_panel(layout, 100, spatial_scale=1.5, temporal_persistence=0.6, seed=0)
    b = synth_panel(layout, 100, spatial_scale=1.5, temporal_persistence=0.6, seed=0)
    assert a.mask.all()
    assert np.array_equal(a.values, b.values)
    assert a.values.min() > 0.0 and a.values.max() < 1.0
    c = synth_panel(layout, 100, spatial_scale=1.5, temporal_persistence=0.6, seed=1)
    assert not np.array_equal(a.values, c.values)


def test_synth_panel_nearby_sensors_correlate_more():
    layout = grid_layout(1, 8, spacing=1.0)
    panel = synth_panel(
        layout, 4000, spatial_scale=1.5, temporal_persistence=0.5, seed=3,
        driver_scale=0.0, noise_scale=1.0,
    )
    x = panel.values
    cc = np.corrcoef(x.T)
    near = cc[0, 1]
    far = cc[0, 7]
    assert near > far + 0.2


def test_synth_panel_validation():
    layout = grid_layout(2, 2)
    with pytest.raises(InputError):
        synth_panel(layout, 0, spatial_scale=1.0, temporal_persistence=0.5)
    with pytest.raises(ConfigError):
        synth_panel(layout, 10, spatial_scale=0.0, temporal_persistence=0.5)
    with pytest.raises(ConfigError):
        synth_panel(layout, 10, spatial_scale=1.0, temporal_persistence=1.0)


def test_synth_panel_pins_blas_and_restores_it(monkeypatch, blas):
    """The generator's BLAS work runs on one thread, the caller's count
    comes back afterwards, and the bytes match an unpinned run's."""
    layout = grid_layout(10, 10)
    seen = []
    eigh = np.linalg.eigh

    def spy(a):
        seen.append(blas())
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    args = (layout, 300, 2.0, 0.8, 4)
    pinned = synth_panel(*args)
    assert seen == [1] and blas() == 2
    monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: None)
    unpinned = synth_panel(*args)
    assert seen == [1, 2] and blas() == 2
    assert pinned.values.tobytes() == unpinned.values.tobytes()


def _holed_panel(layout, t_len, rate, seed):
    full = synth_panel(layout, t_len, spatial_scale=1.2, temporal_persistence=0.5, seed=seed)
    return apply_missingness(full, MissingnessSpec("mcar", rate, seed=seed + 100))


def test_eval_naive_improvement_is_zero():
    layout, graph = _grid_setup(2, 3)
    panel = _holed_panel(layout, 80, 0.1, seed=20)
    rep = leave_one_out_eval(panel, EstimatorConfig(method="naive"), "complete")
    assert np.allclose(rep.rmse, rep.naive_rmse, equal_nan=True)
    assert rep.mean_improvement == 0.0
    assert rep.improvement_of_means == 0.0


def test_eval_scored_counts_match_scorable_rows():
    layout, graph = _grid_setup(2, 3)
    panel = _holed_panel(layout, 60, 0.2, seed=21)
    for setup in ("complete", "incomplete"):
        rep = leave_one_out_eval(panel, EstimatorConfig(method="naive"), setup)
        for col in range(panel.n_sensors):
            assert rep.scored_counts[col] == scorable_cells(panel.mask, setup)[:, col].sum()


def test_eval_matches_per_cell_estimator_runs():
    """Hiding a cell and re-running the streaming estimators one row at a
    time must give the same scores as the batched evaluation."""
    layout, graph = _grid_setup(2, 3)
    kind, r = "epanechnikov", 2
    for trial in range(3):
        panel = _holed_panel(layout, 25, 0.15, seed=30 + trial)
        for setup in ("complete", "incomplete"):
            for method in ("naive", "location", "unweighted_graph", "weighted_graph"):
                cfg = EstimatorConfig(method=method, kernel=kind, r=r)
                rep = leave_one_out_eval(panel, cfg, setup, layout=layout, graph=graph)
                for col in range(panel.n_sensors):
                    rows = np.flatnonzero(scorable_cells(panel.mask, setup)[:, col])
                    if rows.size == 0:
                        continue
                    estimates = []
                    for t in rows:
                        v = panel.values.copy()
                        m = panel.mask.copy()
                        v[t, col] = np.nan
                        m[t, col] = False
                        mod = Panel(panel.timestamps, panel.sensor_ids, v, m)
                        if method == "naive":
                            out = impute_naive(mod)
                        elif method == "weighted_graph":
                            out, _ = impute_weighted_graph(mod, graph, kind, r)
                        else:
                            out = run_estimator(mod, cfg, layout=layout, graph=graph)
                        estimates.append(out.filled[t, col])
                    truth = panel.values[rows, col]
                    direct = np.sqrt(np.mean((truth - np.asarray(estimates)) ** 2))
                    assert rep.rmse[col] == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("shape, dense_max", [((1, 2), 200), ((2, 3), 4)])
def test_eval_routes_weighted_rows_as_impute_does(monkeypatch, shape, dense_max):
    """A 2-sensor farm takes the per-row path in impute, and a farm above
    DENSE_SOLVER_MAX the iterative solver; evaluate must route them the
    same way, so scores agree at 1e-10 and fallback counts tag for tag."""
    monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX", dense_max)
    layout, graph = _grid_setup(*shape)
    _check_eval_matches_impute(_holed_panel(layout, 12, 0.1, seed=50), graph)


def test_eval_cell_chunks_score_as_impute_does(monkeypatch):
    """Above DENSE_SOLVER_MAX weighted blocks hold `batch_rows` rows, here
    2, and the up to 12 scored cells of a block are estimated 2 at a time;
    the scores still match one impute per hidden cell."""
    monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX", 4)
    layout, graph = _grid_setup(2, 3)
    edges = len(graph.edges)
    monkeypatch.setattr(spectral, "BATCH_BYTES", 2 * 8 * spectral.ROW_ARRAYS * (6 + edges))
    assert spectral.batch_rows(6, edges) == 2
    _check_eval_matches_impute(_holed_panel(layout, 12, 0.1, seed=51), graph)


def _check_eval_matches_impute(panel, graph):
    cfg = EstimatorConfig(method="weighted_graph")
    rep = leave_one_out_eval(panel, cfg, "complete", graph=graph)
    tags = np.zeros(len(Provenance), dtype=int)
    for col in range(panel.n_sensors):
        rows = np.flatnonzero(scorable_cells(panel.mask, "complete")[:, col])
        estimates = []
        for t in rows:
            values = panel.values.copy()
            values[t, col] = np.nan
            hidden = Panel.from_values(panel.timestamps, panel.sensor_ids, values)
            out, _ = impute_weighted_graph(hidden, graph)
            estimates.append(out.filled[t, col])
            tags[out.provenance[t, col]] += 1
        direct = rmse(panel.values[rows, col], np.array(estimates))
        assert rep.rmse[col] == pytest.approx(direct, abs=1e-10)
    assert rep.fallback_counts == {p.label: int(tags[p]) for p in Provenance if tags[p]}


def test_eval_weighted_slow_path_rows_are_scored():
    """A row holding both 0 and 1 zeroes a similarity, which drops the
    edge and forces that row through the per-component slow path."""
    layout, graph = _grid_setup(1, 3, spacing=1.0)
    values = np.array(
        [
            [0.0, 1.0, 0.5],
            [0.4, 0.5, 0.6],
            [0.5, 0.5, 0.5],
            [0.3, 0.4, 0.5],
        ]
    )
    t = values.shape[0]
    panel = Panel(
        tuple(str(float(i)) for i in range(t)),
        layout.ids,
        values,
        np.ones((t, 3), dtype=bool),
    )
    cfg = EstimatorConfig(method="weighted_graph")
    rep = leave_one_out_eval(panel, cfg, "complete", graph=graph)
    assert rep.scored_counts.sum() == t * 3
    assert np.isfinite(rep.rmse).all()


@pytest.mark.parametrize(
    "method, shape, scored",
    [("weighted_graph", (5, 7), 100), ("location", (3, 4), None), ("location", (10, 10), None)],
)
def test_eval_memory_flat_in_panel_length(method, shape, scored):
    """Doubling the panel's length keeps the traced peak within 1.2x.
    Scoring only the first `scored` rows leaves the tracker's run over the
    whole stream as the one part that sees every row."""
    layout, graph = _grid_setup(*shape)
    peaks = []
    for t_len in (2000, 4000):
        panel = _holed_panel(layout, t_len, 0.02, seed=60)
        within = None if scored is None else np.arange(t_len) < scored
        cfg = EstimatorConfig(method=method)
        tracemalloc.start()
        try:
            leave_one_out_eval(panel, cfg, "complete", layout, graph, within)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_large_farm_memory_bounded_by_blocks():
    """Above DENSE_SOLVER_MAX, weighted impute stays within 2 BATCH_BYTES
    beyond its panel and result, and complete-setup leave-one-out, whose
    block is one row copied for each of its 256 scored cells, within 12."""
    layout, graph = _grid_setup(16, 16)
    cfg = EstimatorConfig(method="weighted_graph")
    holed = _holed_panel(layout, 250, 0.02, seed=60)
    full = synth_panel(layout, 2, spatial_scale=1.2, temporal_persistence=0.5, seed=61)
    run_estimator(_holed_panel(layout, 5, 0.02, seed=62), cfg, graph=graph)  # warm-up
    tracemalloc.start()
    try:
        run_estimator(holed, cfg, graph=graph)
        impute_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rep = leave_one_out_eval(full, cfg, "complete", graph=graph)
        loo_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.scored_counts.sum() == 2 * 256
    # The result's filled copy and provenance add up to about one panel.
    assert impute_peak <= 2 * holed.values.nbytes + 2 * spectral.BATCH_BYTES
    assert loo_peak <= full.values.nbytes + 12 * spectral.BATCH_BYTES


def test_large_farm_eval_memory_bounded_by_cell_chunks():
    """Above DENSE_SOLVER_MAX a block is at least one row, and each of its
    scored cells brings its own edge weights; estimated `batch_rows` cells
    at a time, one complete row of a 20x20 farm (400 cells) stays within
    the 12 BATCH_BYTES that the 16x16 test allows."""
    layout, graph = _grid_setup(20, 20)
    cfg = EstimatorConfig(method="weighted_graph")
    full = synth_panel(layout, 1, spatial_scale=1.2, temporal_persistence=0.5, seed=61)
    run_estimator(_holed_panel(layout, 2, 0.02, seed=62), cfg, graph=graph)  # warm-up
    tracemalloc.start()
    try:
        rep = leave_one_out_eval(full, cfg, "complete", graph=graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.scored_counts.sum() == 400
    assert peak <= full.values.nbytes + 12 * spectral.BATCH_BYTES


def test_weighted_eval_builds_similarities_once_per_block(monkeypatch):
    """Leave-one-out walks `impute`'s blocks: one similarity build and one
    tracker replay per block, whatever the number of hidden cells."""
    n = 6
    monkeypatch.setattr(spectral, "BATCH_BYTES", 7 * 8 * n * n)
    layout, graph = _grid_setup(2, 3)
    panel = _holed_panel(layout, 50, 0.2, seed=63)
    built = []
    similarities = estimators._edge_similarities

    def counted(*args):
        built.append(args[0].shape[0])
        return similarities(*args)

    monkeypatch.setattr(estimators, "_edge_similarities", counted)
    cfg = EstimatorConfig(method="weighted_graph")
    rep = leave_one_out_eval(panel, cfg, "incomplete", graph=graph)
    # Weighted impute's blocks: DENSE_BLOCK_BATCHES * batch_rows = 28 rows.
    assert len(built) == -(-50 // 28) and sum(built) == 50
    assert rep.scored_counts.sum() > 4 * len(built)


@pytest.mark.parametrize("rows, cols, t_len", [(5, 7, 1000), (14, 14, 60)])
def test_dense_farm_weighted_impute_memory_bounded_by_blocks(monkeypatch, rows, cols, t_len):
    """Up to DENSE_SOLVER_MAX, weighted impute's blocks hold several engine
    batches, and its two workers a stack each: the panel and result, plus
    at most 6 BATCH_BYTES (measured: 4.8 on 5x7, 4.4 on 14x14)."""
    monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "2")
    layout, graph = _grid_setup(rows, cols)
    cfg = EstimatorConfig(method="weighted_graph")
    holed = _holed_panel(layout, t_len, 0.05, seed=60)
    assert t_len > spectral.batch_rows(rows * cols)
    run_estimator(_holed_panel(layout, 5, 0.02, seed=62), cfg, graph=graph)  # warm-up
    tracemalloc.start()
    try:
        run_estimator(holed, cfg, graph=graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * holed.values.nbytes + 6 * spectral.BATCH_BYTES


def _dense_eval_peak(monkeypatch, rows, cols, t_len, scored):
    """Incomplete-setup weighted leave-one-out on a dense farm scoring its
    first `scored` rows: the tracemalloc peak above the panel, in
    BATCH_BYTES."""
    monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "2")
    layout, graph = _grid_setup(rows, cols)
    cfg = EstimatorConfig(method="weighted_graph")
    panel = _holed_panel(layout, t_len, 0.05, seed=60)
    assert scored >= spectral.graph_block_rows(rows * cols, len(graph.edges))
    run_estimator(_holed_panel(layout, 5, 0.02, seed=62), cfg, graph=graph)  # warm-up
    tracemalloc.start()
    try:
        rep = leave_one_out_eval(
            panel, cfg, "incomplete", graph=graph, within=np.arange(t_len) < scored
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.scored_counts.sum() > 0.9 * rows * cols * scored
    return (peak - panel.values.nbytes) / spectral.BATCH_BYTES


@pytest.mark.parametrize("rows, cols, t_len, scored", [(5, 7, 1000, 1000), (14, 14, 24, 12)])
def test_dense_farm_weighted_eval_memory_bounded_by_blocks(monkeypatch, rows, cols, t_len, scored):
    """Up to DENSE_SOLVER_MAX leave-one-out walks weighted impute's blocks
    and copies the row of each hidden cell, `block_rows` cells at a time,
    so it stays within the 6 BATCH_BYTES that weighted impute meets
    (measured: 4.8 on 5x7 and 3.7 on 14x14; blocks of 53 and 1 rows that
    sent all their cells to the engine in one call took 7.2 and 6.7).
    On 14x14 the first block, 12 rows, is scored."""
    assert _dense_eval_peak(monkeypatch, rows, cols, t_len, scored) <= 6


def test_dense_farm_weighted_eval_drops_each_scored_block(monkeypatch):
    """Neither `_blocks` nor leave-one-out keeps a scored block's arrays,
    or its edge weights, while the next block is built: 5x7 peaks at 4.8
    BATCH_BYTES above the panel, against 5.5 when they were kept."""
    assert _dense_eval_peak(monkeypatch, 5, 7, 1000, 1000) <= 5.4


def test_eval_unscored_sensor_reports_nan_and_is_excluded():
    layout, graph = _grid_setup(2, 2)
    full = synth_panel(layout, 40, spatial_scale=1.0, temporal_persistence=0.4, seed=40)
    values = full.values.copy()
    values[:, 0] = np.nan
    mask = full.mask.copy()
    mask[:, 0] = False
    panel = Panel(full.timestamps, full.sensor_ids, values, mask)
    rep = leave_one_out_eval(panel, EstimatorConfig(method="naive"), "incomplete")
    assert rep.scored_counts[0] == 0
    assert np.isnan(rep.rmse[0])
    assert np.isfinite(rep.mean_rmse)
    assert np.isfinite(rep.mean_improvement)


def test_eval_fallback_counts_cover_every_scored_cell():
    layout, graph = _grid_setup(2, 3)
    panel = _holed_panel(layout, 50, 0.2, seed=50)
    for method in ("location", "unweighted_graph", "weighted_graph"):
        rep = leave_one_out_eval(
            panel, EstimatorConfig(method=method), "incomplete", layout=layout, graph=graph
        )
        assert sum(rep.fallback_counts.values()) == int(rep.scored_counts.sum())


def test_eval_requires_method_dependencies():
    layout, graph = _grid_setup(2, 2)
    panel = _holed_panel(layout, 20, 0.1, seed=60)
    with pytest.raises(ConfigError):
        leave_one_out_eval(panel, EstimatorConfig(method="location"), "complete")
    with pytest.raises(ConfigError):
        leave_one_out_eval(panel, EstimatorConfig(method="unweighted_graph"), "complete")
    with pytest.raises(ConfigError):
        leave_one_out_eval(panel, EstimatorConfig(method="weighted_graph"), "complete")


def test_eval_rejects_mismatched_ids():
    layout, graph = _grid_setup(2, 2)
    other = make_layout([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], prefix="z")
    panel = _holed_panel(other, 20, 0.1, seed=61)
    with pytest.raises(InputError):
        leave_one_out_eval(
            panel, EstimatorConfig(method="location"), "complete", layout=layout
        )
    with pytest.raises(InputError):
        leave_one_out_eval(
            panel, EstimatorConfig(method="unweighted_graph"), "complete", graph=graph
        )


def test_eval_report_improvement_formula():
    layout, graph = _grid_setup(2, 3)
    panel = _holed_panel(layout, 80, 0.1, seed=70)
    rep = leave_one_out_eval(
        panel, EstimatorConfig(method="location"), "complete", layout=layout
    )
    manual = (rep.naive_rmse - rep.rmse) / rep.naive_rmse
    assert np.allclose(rep.improvement, manual, equal_nan=True)
    scored = rep.improvement[~np.isnan(rep.improvement)]
    assert rep.mean_improvement == pytest.approx(scored.mean())
    naive_mean = rep.naive_rmse[~np.isnan(rep.naive_rmse)].mean()
    assert rep.improvement_of_means == pytest.approx(
        (naive_mean - rep.mean_rmse) / naive_mean
    )


def test_eval_report_summary_and_sensor_rows():
    layout, graph = _grid_setup(2, 2)
    panel = _holed_panel(layout, 30, 0.1, seed=71)
    rep = leave_one_out_eval(
        panel, EstimatorConfig(method="unweighted_graph"), "complete", graph=graph
    )
    s = rep.summary()
    for key in (
        "method", "kernel", "r", "setup", "mean_rmse", "sd_rmse",
        "mean_improvement", "sd_improvement", "improvement_of_means",
        "scored_cells", "complete_rows", "t_len", "fallback_counts",
    ):
        assert key in s
    rows = rep.sensor_rows()
    assert [row["sensor"] for row in rows] == list(panel.sensor_ids)
    assert all(set(row) == {"sensor", "scored", "rmse", "naive_rmse", "improvement"} for row in rows)


def test_sweep_sorted_and_deterministic(monkeypatch):
    layout, graph = _grid_setup(2, 3)
    panel = _holed_panel(layout, 60, 0.1, seed=80)
    configs = [
        EstimatorConfig(method="naive"),
        EstimatorConfig(method="location", kernel="triangular"),
        EstimatorConfig(method="unweighted_graph", kernel="triweight"),
    ]
    reports = sweep(panel, configs, setups=("complete",), layout=layout, graph=graph)
    imps = [rep.mean_improvement for rep in reports]
    assert imps == sorted(imps, reverse=True)

    for threads in ("2", "1"):
        monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", threads)
        again = sweep(panel, configs, setups=("complete",), layout=layout, graph=graph)
        assert [(r.method, r.kernel, r.setup) for r in again] == [
            (r.method, r.kernel, r.setup) for r in reports
        ]
        assert [r.mean_rmse for r in again] == [r.mean_rmse for r in reports]


def test_sweep_rejects_unknown_setup():
    layout, graph = _grid_setup(2, 2)
    panel = _holed_panel(layout, 20, 0.1, seed=81)
    with pytest.raises(ConfigError):
        sweep(panel, [EstimatorConfig(method="naive")], setups=("weird",))


def test_thread_cap_env_parsing(monkeypatch):
    monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "3")
    assert thread_cap() == 3
    monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "zero")
    with pytest.raises(ConfigError):
        thread_cap()
    monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "0")
    with pytest.raises(ConfigError):
        thread_cap()
    monkeypatch.delenv("SPECTRAL_IMPUTER_THREADS")
    assert thread_cap() >= 1


def test_thread_cap_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("SPECTRAL_IMPUTER_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert thread_cap() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_cap() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert thread_cap() == 1


def test_split_rows_partitions():
    first = split_rows(10, "first")
    second = split_rows(10, "second")
    assert first.sum() == 5 and second.sum() == 5
    assert not (first & second).any()
    assert (first | second).all()
    assert split_rows(10, "all").all()
    odd_first = split_rows(7, "first")
    assert odd_first.sum() == 4
    with pytest.raises(ConfigError):
        split_rows(10, "middle")


def test_eval_within_restricts_scored_rows():
    layout, graph = _grid_setup(2, 3)
    panel = _holed_panel(layout, 60, 0.1, seed=90)
    halves = [split_rows(panel.t_len, s) for s in ("first", "second")]
    whole = leave_one_out_eval(panel, EstimatorConfig(method="naive"), "complete")
    parts = [
        leave_one_out_eval(panel, EstimatorConfig(method="naive"), "complete", within=h)
        for h in halves
    ]
    assert (
        parts[0].scored_counts + parts[1].scored_counts == whole.scored_counts
    ).all()
    for part, half in zip(parts, halves):
        for col in range(panel.n_sensors):
            rows = np.flatnonzero(scorable_cells(panel.mask, "complete", half)[:, col])
            assert part.scored_counts[col] == rows.size
            assert half[rows].all()


def test_eval_within_still_tracks_every_row(monkeypatch):
    """Rows outside `within` are not scored, but the tracker learns from
    them: scores match one streaming impute per hidden cell.  Blocks of
    8 rows (DENSE_BLOCK_BATCHES batches of 2) put whole blocks outside
    `within`."""
    monkeypatch.setattr(spectral, "BATCH_BYTES", 8 * 6 * 6 * 2)
    layout, graph = _grid_setup(2, 3)
    assert spectral.graph_block_rows(6, len(graph.edges)) == 8
    panel = _holed_panel(layout, 40, 0.1, seed=91)
    within = split_rows(panel.t_len, "second")
    cfg = EstimatorConfig(method="weighted_graph")
    rep = leave_one_out_eval(panel, cfg, "complete", graph=graph, within=within)
    for col in range(panel.n_sensors):
        rows = np.flatnonzero(scorable_cells(panel.mask, "complete", within)[:, col])
        assert rows.size > 0
        estimates = []
        for t in rows:
            values = panel.values.copy()
            values[t, col] = np.nan
            hidden = Panel.from_values(panel.timestamps, panel.sensor_ids, values)
            out, _ = impute_weighted_graph(hidden, graph)
            estimates.append(out.filled[t, col])
        direct = rmse(panel.values[rows, col], np.array(estimates))
        assert rep.rmse[col] == pytest.approx(direct, abs=1e-10)


def test_synth_panel_infinite_scale_makes_sensors_agree():
    layout = grid_layout(2, 3)
    panel = synth_panel(
        layout, 2000, spatial_scale=1e9, temporal_persistence=0.5, seed=6
    )
    cc = np.corrcoef(panel.values.T)
    assert cc.min() > 0.99


def test_synth_panel_tiny_scale_leaves_only_the_driver():
    layout = grid_layout(2, 3, spacing=1.0)
    # with the driver silenced, a vanishing correlation length leaves
    # nothing shared between sensors
    panel = synth_panel(
        layout, 10000, spatial_scale=1e-6, temporal_persistence=0.4, seed=7,
        driver_scale=0.0, noise_scale=1.0,
    )
    cc = np.corrcoef(panel.values.T)
    off = cc[~np.eye(layout.n, dtype=bool)]
    assert np.abs(off).max() < 0.1


def test_complexity_smoke_single_timestep():
    rep = complexity_smoke(n_values=(6, 10), t_len=1, seed=2, repeats=1)
    assert all(t > 0 for t in rep.weighted_per_row)


def test_complexity_smoke_naive_ratio_far_below_cubic():
    rep = complexity_smoke(n_values=(10, 40), t_len=120, seed=3, repeats=3)
    assert rep.naive_per_row[1] / rep.naive_per_row[0] < 16.0


def test_complexity_smoke_small_sizes_run():
    rep = complexity_smoke(n_values=(6, 10), t_len=30, seed=1, repeats=1)
    assert len(rep.naive_per_row) == 2
    assert all(t > 0 for t in rep.naive_per_row)
    assert all(t > 0 for t in rep.weighted_per_row)
    s = rep.summary()
    assert "naive_slope" in s and "weighted_slope" in s
