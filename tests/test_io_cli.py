"""File formats and the command-line surface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from spectral_imputer import cli, estimators, spectral
from spectral_imputer.cli import main
from spectral_imputer.errors import InputError
from spectral_imputer.estimators import (
    EstimatorConfig,
    ImputationResult,
    Panel,
    Provenance,
    impute_naive,
    impute_weighted_graph,
)
from spectral_imputer.evaluation import (
    MissingnessSpec,
    apply_missingness,
    leave_one_out_eval,
    synth_panel,
)
from spectral_imputer.graph import (
    FarmLayout,
    Sensor,
    build_graph,
    components,
    propose_grid_edges,
)
from spectral_imputer.io import (
    _table_text,
    atomic_write_text,
    checkpoint_csv_text,
    edge_list_csv_text,
    embedding_csv_text,
    embedding_svg_text,
    load_panel,
    manifest_text,
    panel_csv_text,
    pivot_csv_text,
    provenance_csv_text,
    ranked_csv_text,
    read_checkpoint,
    read_edge_list,
    read_layout,
    regret_csv_text,
    report_csv_text,
    report_json_text,
)
from spectral_imputer.online import regret_curve
from spectral_imputer.spectral import embed

import oracles
from conftest import grid_layout


def _write(path, text):
    path.write_text(text)
    return str(path)


def _grid_setup(rows, cols, spacing=1.0):
    layout = grid_layout(rows, cols, spacing)
    graph = build_graph(layout, propose_grid_edges(layout, "king"))
    return layout, graph


# ---------------------------------------------------------------------------
# Layouts and edge lists.


def test_layout_round_trip(tmp_path):
    layout = grid_layout(2, 3, spacing=0.5)
    rows = [
        f"{s.sensor_id},{s.latitude!r},{s.longitude!r},{s.nominal_capacity!r}"
        for s in layout.sensors
    ]
    text = "sensor_id,latitude,longitude,nominal_capacity\n" + "\n".join(rows) + "\n"
    path = tmp_path / "layout.csv"
    atomic_write_text(path, text)
    again = read_layout(path)
    assert again == layout


def test_layout_bad_header(tmp_path):
    path = _write(tmp_path / "l.csv", "id,x,y,cap\na,0,0,1\n")
    with pytest.raises(InputError, match="line 1"):
        read_layout(path)


def test_layout_bad_float_names_line(tmp_path):
    path = _write(
        tmp_path / "l.csv",
        "sensor_id,latitude,longitude,nominal_capacity\na,0,0,1\nb,zero,0,1\n",
    )
    with pytest.raises(InputError, match="line 3"):
        read_layout(path)


def test_edge_list_round_trip_unweighted(tmp_path):
    layout, graph = _grid_setup(2, 2)
    path = tmp_path / "edges.csv"
    atomic_write_text(path, edge_list_csv_text(graph))
    pairs, weights = read_edge_list(path)
    assert weights is None
    assert build_graph(layout, pairs) == graph


def test_edge_list_round_trip_weighted(tmp_path):
    layout, bare = _grid_setup(2, 2)
    rng = np.random.default_rng(0)
    graph = bare.with_weights(rng.uniform(0.1, 1.0, len(bare.edges)))
    path = tmp_path / "edges.csv"
    atomic_write_text(path, edge_list_csv_text(graph))
    pairs, weights = read_edge_list(path)
    again = build_graph(layout, pairs).with_weights(weights)
    assert again == graph


def test_edge_list_bad_header(tmp_path):
    path = _write(tmp_path / "e.csv", "a,b\nx,y\n")
    with pytest.raises(InputError, match="line 1"):
        read_edge_list(path)


# ---------------------------------------------------------------------------
# Panel loading.


def _two_sensor_layout_csv(tmp_path, capacity=7.0):
    return _write(
        tmp_path / "layout.csv",
        "sensor_id,latitude,longitude,nominal_capacity\n"
        f"a,0.0,0.0,{capacity}\nb,1.0,0.0,{capacity}\n",
    )


def test_load_panel_normalizes_and_masks(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(
        tmp_path / "p.csv", "timestamp,a,b\n0.0,3.5,\n1.0,7.0,0.0\n"
    )
    panel, clamped = load_panel(path, layout)
    assert clamped == 0
    assert panel.values[0, 0] == 0.5
    assert not panel.mask[0, 1]
    assert panel.values[1, 0] == 1.0
    assert panel.values[1, 1] == 0.0


def test_load_panel_column_order_free(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(tmp_path / "p.csv", "timestamp,b,a\n0.0,0.7,3.5\n")
    panel, _ = load_panel(path, layout)
    assert panel.sensor_ids == ("a", "b")
    assert panel.values[0, 0] == 0.5
    assert panel.values[0, 1] == pytest.approx(0.1)


def test_load_panel_clamps_and_counts(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(tmp_path / "p.csv", "timestamp,a,b\n0.0,7.7,-1.0\n")
    panel, clamped = load_panel(path, layout)
    assert clamped == 2
    assert panel.values[0, 0] == 1.0
    assert panel.values[0, 1] == 0.0


def test_load_panel_header_errors(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    unknown = _write(tmp_path / "u.csv", "timestamp,a,c\n0.0,1.0,1.0\n")
    with pytest.raises(InputError, match="unknown sensor column 'c'"):
        load_panel(unknown, layout)
    missing = _write(tmp_path / "m.csv", "timestamp,a\n0.0,1.0\n")
    with pytest.raises(InputError, match="missing sensor column 'b'"):
        load_panel(missing, layout)
    duplicate = _write(tmp_path / "d.csv", "timestamp,a,a\n0.0,1.0,1.0\n")
    with pytest.raises(InputError, match="duplicate column 'a'"):
        load_panel(duplicate, layout)
    no_ts = _write(tmp_path / "t.csv", "time,a,b\n0.0,1.0,1.0\n")
    with pytest.raises(InputError, match="'timestamp'"):
        load_panel(no_ts, layout)


def test_load_panel_cell_error_locates_row_and_column(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(tmp_path / "p.csv", "timestamp,a,b\n0.0,3.5,1.0\n1.0,oops,2.0\n")
    with pytest.raises(InputError, match="line 3.*'a'"):
        load_panel(path, layout)


def test_load_panel_rejects_non_monotone_timestamps(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(
        tmp_path / "p.csv", "timestamp,a,b\n1.0,1.0,1.0\n0.5,1.0,1.0\n"
    )
    with pytest.raises(InputError, match="line 3.*increasing"):
        load_panel(path, layout)


@pytest.mark.parametrize(
    "stamps, line, message",
    [
        (("0.0", "1.0", "inf"), 4, "numeric timestamps must be finite"),
        (
            ("2024-01-01T00:00", "2024-01-01T01:00+00:00"),
            3,
            "timestamps mix timezone-aware and naive ISO-8601 values",
        ),
        (("2024-01-01T00:00", "noon"), 3, "unparsable timestamp: "),
        (("0.0", "2.0", "1.0"), 4, "timestamps must be strictly increasing"),
    ],
)
def test_load_panel_timestamp_errors_name_file_and_line(
    tmp_path, stamps, line, message
):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    rows = "".join(f"{ts},1.0,1.0\n" for ts in stamps)
    path = _write(tmp_path / "p.csv", "timestamp,a,b\n" + rows)
    with pytest.raises(InputError) as caught:
        load_panel(path, layout)
    assert str(caught.value).startswith(f"{path} line {line}: {message}")


def test_load_panel_parses_timestamps_once(tmp_path, monkeypatch):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(
        tmp_path / "p.csv",
        "timestamp,a,b\n2024-01-01T00:00,1.0,\n2024-01-01T00:10,,2.0\n",
    )
    parsed = []

    class CountingDatetime(datetime):
        @classmethod
        def fromisoformat(cls, text):
            parsed.append(text)
            return datetime.fromisoformat(text)

    monkeypatch.setattr(estimators, "datetime", CountingDatetime)
    load_panel(path, layout)
    assert parsed == ["2024-01-01T00:00", "2024-01-01T00:10"]


def test_load_panel_whitespace_only_cells_are_missing(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(tmp_path / "p.csv", "timestamp,a,b\n0.0, ,\t\n1.0,  3.5 ,  \n")
    panel, clamped = load_panel(path, layout)
    assert clamped == 0
    assert panel.mask.tolist() == [[False, False], [True, False]]
    assert panel.values[1, 0] == 0.5


def test_load_panel_reports_first_bad_cell_in_layout_order(tmp_path):
    # File columns c,a,b against layout a,b,c: within a row the layout's
    # order decides which bad cell comes first.
    layout = FarmLayout(
        tuple(Sensor(sid, 0.0, float(k), 2.0) for k, sid in enumerate("abc"))
    )
    rows = [
        ["0.0", "1.0", "1.0", "1.0"],
        ["1.0", "oops", "nan", "1.0"],
        ["2.0", "1.0", "1.0", "inf"],
        ["3.0", "bad", "1.0", "1.0"],
        ["4.0", "1.0", "1.0", "1.0", "1.0"],
    ]
    # (line, message, field that fixes it; None drops the extra field)
    expected = [
        (3, "value in column 'a' must be finite, got 'nan'", 2),
        (3, "unparsable value in column 'c' 'oops'", 1),
        (4, "value in column 'b' must be finite, got 'inf'", 3),
        (5, "unparsable value in column 'c' 'bad'", 1),
        (6, "expected 4 fields, got 5", None),
    ]

    def write():
        body = "".join(",".join(r) + "\n" for r in rows)
        return _write(tmp_path / "p.csv", "timestamp,c,a,b\n" + body)

    for line, message, field in expected:
        path = write()
        with pytest.raises(InputError) as caught:
            load_panel(path, layout)
        assert str(caught.value) == f"{path} line {line}: {message}"
        if field is None:
            rows[line - 2].pop()
        else:
            rows[line - 2][field] = "1.0"
    panel, clamped = load_panel(write(), layout)
    assert panel.mask.all() and clamped == 0
    # Row-major like every other panel: numpy's row reductions (the naive
    # mean among them) add in a layout-dependent order.
    assert panel.values.flags.c_contiguous and panel.mask.flags.c_contiguous


def test_load_panel_rejects_empty_files(tmp_path):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    empty = _write(tmp_path / "e.csv", "")
    with pytest.raises(InputError, match="empty"):
        load_panel(empty, layout)
    header_only = _write(tmp_path / "h.csv", "timestamp,a,b\n")
    with pytest.raises(InputError, match="no data rows"):
        load_panel(header_only, layout)


def test_load_panel_logs_clamps(tmp_path, caplog):
    layout = read_layout(_two_sensor_layout_csv(tmp_path))
    path = _write(tmp_path / "p.csv", "timestamp,a,b\n0.0,9.9,1.0\n")
    with caplog.at_level("WARNING", logger="spectral_imputer.io"):
        _, clamped = load_panel(path, layout)
    assert clamped == 1
    assert any("clamped 1" in rec.message for rec in caplog.records)


def test_panel_write_load_round_trip_bit_exact(tmp_path):
    layout = grid_layout(2, 3, spacing=1.0)
    full = synth_panel(layout, 60, spatial_scale=1.2, temporal_persistence=0.5, seed=8)
    panel = apply_missingness(full, MissingnessSpec("mcar", 0.2, seed=9))
    path = tmp_path / "panel.csv"
    text = panel_csv_text(layout, panel.sensor_ids, panel.timestamps, panel.values)
    atomic_write_text(path, text)
    again, clamped = load_panel(path, layout)
    assert clamped == 0
    assert again.timestamps == panel.timestamps
    assert np.array_equal(again.mask, panel.mask)
    caps = layout.capacities()
    assert np.array_equal(again.values, (panel.values * caps) / caps, equal_nan=True)


def test_panel_writers_match_cell_by_cell_oracle():
    # Quoting in the header, capacities whose products round (value *
    # capacity differs from the reading), 0.0 and 1.0 cells and an
    # all-missing column.
    rng = np.random.default_rng(21)
    caps = np.array([3.0, 0.1, 1.0 / 3.0, 7.3, 1e5])
    ids = ["a", 'q"x', "c,d", "e", "f"]
    layout = FarmLayout(
        tuple(Sensor(i, 0.0, float(k), c) for k, (i, c) in enumerate(zip(ids, caps)))
    )
    raw = rng.uniform(0.0, 1.0, (40, 5)) * caps
    values = raw / caps
    values[::7, 1] = 0.0
    values[3::5, 2] = 1.0
    mask = rng.random((40, 5)) > 0.2
    mask[:, 3] = False
    values[~mask] = np.nan
    assert np.any(mask & (values * caps != raw))
    # Numeric timestamps may carry whitespace, and a newline forces quoting.
    stamps = tuple(f"{t}\n" if t % 3 == 0 else f" {t}.5" for t in range(40))
    panel = Panel(stamps, layout.ids, values, mask)
    expect = oracles.panel_csv_text(
        stamps, layout.ids, panel.values, panel.mask, layout.capacities()
    )
    assert panel_csv_text(layout, layout.ids, stamps, panel.values) == expect
    iso = tuple(f"2024-01-01T{t // 60:02d}:{t % 60:02d}:00+00:00" for t in range(40))
    panel = Panel(iso, layout.ids, values, mask)
    expect = oracles.panel_csv_text(
        iso, layout.ids, panel.values, panel.mask, layout.capacities()
    )
    assert panel_csv_text(layout, layout.ids, iso, panel.values) == expect

    codes = rng.integers(0, len(Provenance), size=(40, 5))
    result = ImputationResult(layout.ids, stamps, values, codes)
    labels = {int(p): p.label for p in Provenance}
    expect = oracles.provenance_csv_text(stamps, layout.ids, codes, labels)
    assert provenance_csv_text(result) == expect


def test_panel_writer_snaps_unreachable_value(tmp_path):
    # No raw reading at capacity 3 divides back to exactly 0.1, so the
    # writer moves it to (0.1 * 3) / 3, which one does.
    layout = FarmLayout((Sensor("a", 0.0, 0.0, 3.0),))
    with pytest.raises(ValueError):
        oracles.panel_csv_text(("0",), ("a",), np.array([[0.1]]), np.ones((1, 1), bool), [3.0])
    path = tmp_path / "p.csv"
    atomic_write_text(path, panel_csv_text(layout, ("a",), ("0",), np.array([[0.1]])))
    again, _ = load_panel(path, layout)
    assert (0.1 * 3) / 3 != 0.1
    assert again.values[0, 0] == (0.1 * 3) / 3


def test_panel_writer_is_idempotent_on_reload(tmp_path):
    layout = grid_layout(2, 2)
    full = synth_panel(layout, 50, spatial_scale=1.0, temporal_persistence=0.4, seed=10)
    once = panel_csv_text(layout, full.sensor_ids, full.timestamps, full.values)
    path = tmp_path / "p.csv"
    atomic_write_text(path, once)
    again, _ = load_panel(path, layout)
    assert panel_csv_text(layout, again.sensor_ids, again.timestamps, again.values) == once
    assert np.max(np.abs(again.values - full.values)) < 1e-15


def test_panel_csv_text_rejects_wrong_layout():
    layout = grid_layout(2, 2)
    other = grid_layout(2, 3)
    panel = synth_panel(layout, 5, spatial_scale=1.0, temporal_persistence=0.3, seed=0)
    with pytest.raises(InputError, match="do not match the layout"):
        panel_csv_text(other, panel.sensor_ids, panel.timestamps, panel.values)


# ---------------------------------------------------------------------------
# Derived text formats.


def test_cli_impute_leaves_unimputable_cells_empty(tmp_path):
    layout_csv = _two_sensor_layout_csv(tmp_path, capacity=2.0)
    panel_csv = _write(tmp_path / "panel.csv", "timestamp,a,b\n0.0,,\n1.0,1.0,0.5\n")
    out = tmp_path / "imp"
    rc = main(
        ["impute", "--layout", layout_csv, "--panel", panel_csv,
         "--method", "naive", "--out", str(out)]
    )
    assert rc == 0
    filled = (out / "filled.csv").read_text().split("\n")
    assert filled[1:3] == ["0.0,,", "1.0,1.0,0.5"]
    provenance = (out / "provenance.csv").read_text().split("\n")
    assert provenance[1] == "0.0,unimputable,unimputable"


def test_provenance_text_labels():
    values = np.array([[0.5, np.nan], [0.5, 0.25]])
    mask = ~np.isnan(values)
    panel = Panel(("0.0", "1.0"), ("a", "b"), values, mask)
    result = impute_naive(panel)
    text = provenance_csv_text(result)
    lines = text.strip().split("\n")
    assert lines[0] == "timestamp,a,b"
    assert lines[1] == "0.0,observed,weighted_knn"
    assert lines[2] == "1.0,observed,observed"


def test_embedding_csv_and_svg(tmp_path):
    layout, graph = _grid_setup(3, 4)
    embeddings = embed(graph, components(graph), 2)
    text = embedding_csv_text(embeddings)
    lines = text.strip().split("\n")
    assert lines[0] == "node_id,component,coord_1,coord_2"
    assert len(lines) == 1 + graph.n
    svg = embedding_svg_text(embeddings)
    assert svg == embedding_svg_text(embeddings)
    assert svg.count("<circle") == graph.n
    assert svg.count("<text") == graph.n
    for node in graph.node_ids:
        assert f">{node}</text>" in svg


def test_report_texts_parse_back(tmp_path):
    layout, graph = _grid_setup(2, 3)
    full = synth_panel(layout, 60, spatial_scale=1.2, temporal_persistence=0.5, seed=11)
    panel = apply_missingness(full, MissingnessSpec("mcar", 0.1, seed=12))
    rep = leave_one_out_eval(
        panel, EstimatorConfig(method="unweighted_graph"), "complete", graph=graph
    )
    csv_lines = report_csv_text(rep).strip().split("\n")
    assert csv_lines[0] == "sensor,scored,rmse,naive_rmse,improvement"
    assert len(csv_lines) == 1 + panel.n_sensors
    payload = json.loads(report_json_text(rep))
    assert payload["method"] == "unweighted_graph"
    assert len(payload["sensors"]) == panel.n_sensors
    assert payload["mean_rmse"] == rep.mean_rmse


def test_ranked_and_pivot_texts():
    layout, graph = _grid_setup(2, 3)
    full = synth_panel(layout, 50, spatial_scale=1.2, temporal_persistence=0.5, seed=13)
    panel = apply_missingness(full, MissingnessSpec("mcar", 0.1, seed=14))
    reports = [
        leave_one_out_eval(
            panel, EstimatorConfig(method="naive", kernel="naive"), "complete"
        ),
        leave_one_out_eval(
            panel,
            EstimatorConfig(method="unweighted_graph", kernel="quartic"),
            "complete",
            graph=graph,
        ),
    ]
    ranked = ranked_csv_text(reports).strip().split("\n")
    assert len(ranked) == 3
    by_kernel = pivot_csv_text(reports, "kernel").strip().split("\n")
    assert by_kernel[0] == "method,setup,naive,quartic"
    by_dim = pivot_csv_text(reports, "r").strip().split("\n")
    assert by_dim[0] == "method,setup,2"
    with pytest.raises(InputError):
        pivot_csv_text(reports, "setup")


def test_regret_text_row_count():
    rng = np.random.default_rng(5)
    sims = rng.uniform(0, 1, size=(40, 3))
    sims[rng.random(sims.shape) < 0.3] = np.nan
    curve = regret_curve(sims, 0.5)
    lines = regret_csv_text(curve).strip().split("\n")
    assert lines[0] == "t,algorithm_loss,best_constant_loss,regret"
    assert len(lines) == 41


def test_table_text_matches_a_csv_writer_reference():
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "", "x"]
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
    np_ints = np.array([0, -3, 2**62, 7, 1, 2], dtype=np.int64)
    py_ints = [0, 1, -1, 10**18, 5, 6]
    py_floats = [0.1, 1.0, -2.5, 1e-300, 3.0, 0.0]
    header = ("id", "f", "i", "j", "g")
    buf = io.StringIO()
    reference = csv.writer(buf, lineterminator="\n")
    reference.writerow(header)
    for k in range(6):
        reference.writerow(
            [ids[k], repr(float(floats[k])), str(int(np_ints[k])),
             str(int(py_ints[k])), repr(float(py_floats[k]))]
        )
    text = _table_text(header, [ids, floats, np_ints, py_ints, py_floats])
    assert text == buf.getvalue()
    assert [row[1] for row in csv.reader(io.StringIO(text))][1:] == [
        "nan", "inf", "-inf", "-0.0", "5e-324", "1e+308"
    ]
    assert _table_text(header, [[], [], [], [], []]) == "id,f,i,j,g\n"


def test_empty_edge_set_writes_the_header_only():
    layout, _ = _grid_setup(1, 3)
    bare = build_graph(layout, [])
    assert edge_list_csv_text(bare) == "from,to\n"
    assert edge_list_csv_text(bare.with_weights([])) == "from,to,weight\n"


def test_ranked_text_writes_an_integer_learning_rate_as_a_float():
    layout, _ = _grid_setup(2, 3)
    full = synth_panel(layout, 50, spatial_scale=1.2, temporal_persistence=0.5, seed=13)
    panel = apply_missingness(full, MissingnessSpec("mcar", 0.1, seed=14))
    config = EstimatorConfig(method="location", learning_rate=1)
    report = leave_one_out_eval(panel, config, "complete", layout=layout)
    s = report.summary()
    row = [s["method"], s["kernel"], str(s["r"]), "1.0", s["setup"]]
    row += [repr(s[c]) for c in ("mean_rmse", "sd_rmse", "mean_improvement",
                                 "sd_improvement", "improvement_of_means")]
    row.append(str(s["scored_cells"]))
    assert ranked_csv_text([report]).split("\n", 1)[1] == ",".join(row) + "\n"


# ---------------------------------------------------------------------------
# Checkpoints.


def _run_tracker(layout, graph, seed):
    full = synth_panel(layout, 40, spatial_scale=1.2, temporal_persistence=0.5, seed=seed)
    panel = apply_missingness(full, MissingnessSpec("mcar", 0.2, seed=seed + 1))
    _, tracker = impute_weighted_graph(panel, graph)
    return panel, tracker


def test_checkpoint_round_trip_bit_exact(tmp_path):
    layout, graph = _grid_setup(2, 3)
    _, tracker = _run_tracker(layout, graph, 20)
    path = tmp_path / "ck.csv"
    atomic_write_text(path, checkpoint_csv_text(tracker))
    again = read_checkpoint(path, graph, eta=0.5)
    assert again.edge_ids == tracker.edge_ids
    for name in ("y", "s_hat", "cumulative_loss", "running_sum_revealed"):
        assert np.array_equal(getattr(again, name), getattr(tracker, name))
    assert np.array_equal(again.revealed_count, tracker.revealed_count)


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    layout, graph = _grid_setup(2, 3)
    full = synth_panel(layout, 60, spatial_scale=1.2, temporal_persistence=0.5, seed=21)
    panel = apply_missingness(full, MissingnessSpec("mcar", 0.2, seed=22))
    whole, tracker_whole = impute_weighted_graph(panel, graph)

    half = panel.t_len // 2
    first = Panel(
        panel.timestamps[:half], panel.sensor_ids,
        panel.values[:half], panel.mask[:half],
    )
    second = Panel(
        panel.timestamps[half:], panel.sensor_ids,
        panel.values[half:], panel.mask[half:],
    )
    _, tracker_first = impute_weighted_graph(first, graph)
    path = tmp_path / "ck.csv"
    atomic_write_text(path, checkpoint_csv_text(tracker_first))
    resumed = read_checkpoint(path, graph, eta=0.5)
    out, tracker_final = impute_weighted_graph(second, graph, tracker=resumed)
    assert np.array_equal(out.filled, whole.filled[half:], equal_nan=True)
    assert np.array_equal(tracker_final.y, tracker_whole.y)


def test_checkpoint_read_errors(tmp_path):
    layout, graph = _grid_setup(2, 2)
    _, tracker = _run_tracker(layout, graph, 23)
    good = checkpoint_csv_text(tracker)
    lines = good.strip().split("\n")

    bad_header = _write(tmp_path / "a.csv", "x,y\n1,2\n")
    with pytest.raises(InputError, match="header"):
        read_checkpoint(bad_header, graph)

    # guess not the clamp of the state
    row = lines[1].split(",")
    row[3] = "0.123"
    broken = _write(tmp_path / "b.csv", "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    with pytest.raises(InputError, match="clamped"):
        read_checkpoint(broken, graph)

    # an edge the graph does not have
    other_layout, other_graph = _grid_setup(1, 4)
    mismatched = _write(tmp_path / "c.csv", good)
    with pytest.raises(InputError, match="do not match"):
        read_checkpoint(mismatched, other_graph)

    dup = _write(
        tmp_path / "d.csv", "\n".join([lines[0], lines[1], lines[1]] + lines[2:]) + "\n"
    )
    with pytest.raises(InputError, match="duplicate edge"):
        read_checkpoint(dup, graph)


# ---------------------------------------------------------------------------
# Plumbing.


def test_atomic_write_overwrites_and_leaves_no_temps(tmp_path):
    path = tmp_path / "x.txt"
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.txt"]


def test_manifest_text_shape():
    payload = json.loads(manifest_text("evaluate", {"seed": 3, "panel": "p.csv"}))
    assert payload["command"] == "evaluate"
    assert payload["settings"] == {"seed": 3, "panel": "p.csv"}
    assert "version" in payload


# ---------------------------------------------------------------------------
# CLI.


def _layout_file(tmp_path, rows=3, cols=4, capacity=7.0):
    lines = ["sensor_id,latitude,longitude,nominal_capacity"]
    k = 0
    for y in range(rows):
        for x in range(cols):
            lines.append(f"t{k:02d},{float(x)},{float(y)},{capacity}")
            k += 1
    return _write(tmp_path / "layout.csv", "\n".join(lines) + "\n")


def _simulate(tmp_path, layout_csv, out_name="sim", seed=4, rate=0.1):
    out = tmp_path / out_name
    rc = main(
        [
            "simulate", "--layout", layout_csv, "--t-len", "80",
            "--spatial-scale", "1.5", "--persistence", "0.6",
            "--seed", str(seed), "--mechanism", "mcar", "--rate", str(rate),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return str(out / "panel_masked.csv"), str(out / "panel_full.csv")


def _graph_files(tmp_path, layout_csv):
    out = tmp_path / "graph"
    rc = main(["graph", "--layout", layout_csv, "--propose", "king", "--out", str(out)])
    assert rc == 0
    return str(out / "edges.csv")


def test_cli_graph_outputs(tmp_path, capsys):
    layout_csv = _layout_file(tmp_path)
    out = tmp_path / "g"
    rc = main(["graph", "--layout", layout_csv, "--propose", "rook", "--out", str(out)])
    assert rc == 0
    assert (out / "edges.csv").exists()
    assert (out / "components.csv").exists()
    assert (out / "manifest.json").exists()
    assert "12 nodes" in capsys.readouterr().out


def test_cli_graph_rejects_edges_plus_propose(tmp_path, capsys):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    rc = main(
        ["graph", "--layout", layout_csv, "--edges", edges, "--propose", "king",
         "--out", str(tmp_path / "g2")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().split("\n")) == 1


def test_cli_embed_labeled_points(tmp_path):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    out = tmp_path / "emb"
    rc = main(
        ["embed", "--layout", layout_csv, "--edges", edges, "--dim", "2",
         "--out", str(out)]
    )
    assert rc == 0
    svg = (out / "embedding.svg").read_text()
    assert svg.count("<circle") == 12
    assert svg.count("<text") == 12


def test_cli_impute_naive_hand_values(tmp_path):
    layout_csv = _write(
        tmp_path / "layout.csv",
        "sensor_id,latitude,longitude,nominal_capacity\n"
        "a,0.0,0.0,2.0\nb,1.0,0.0,2.0\n",
    )
    panel_csv = _write(
        tmp_path / "panel.csv", "timestamp,a,b\n0.0,1.0,\n1.0,1.0,2.0\n"
    )
    out = tmp_path / "imp"
    rc = main(
        ["impute", "--layout", layout_csv, "--panel", panel_csv,
         "--method", "naive", "--out", str(out)]
    )
    assert rc == 0
    filled = (out / "filled.csv").read_text().strip().split("\n")
    assert filled[0] == "timestamp,a,b"
    assert filled[1] == "0.0,1.0,1.0"
    provenance = (out / "provenance.csv").read_text().strip().split("\n")
    assert provenance[1] == "0.0,observed,weighted_knn"


def test_cli_impute_fully_observed_is_identity(tmp_path):
    layout_csv = _layout_file(tmp_path)
    _, full_csv = _simulate(tmp_path, layout_csv)
    layout = read_layout(layout_csv)
    out = tmp_path / "imp"
    rc = main(
        ["impute", "--layout", layout_csv, "--panel", full_csv,
         "--method", "naive", "--out", str(out)]
    )
    assert rc == 0
    source, _ = load_panel(full_csv, layout)
    result, _ = load_panel(str(out / "filled.csv"), layout)
    assert np.array_equal(source.values, result.values)


def test_cli_impute_checkpoint_rules(tmp_path, capsys):
    layout_csv = _layout_file(tmp_path)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    rc = main(
        ["impute", "--layout", layout_csv, "--panel", masked_csv,
         "--method", "naive", "--checkpoint-out", str(tmp_path / "ck.csv"),
         "--out", str(tmp_path / "imp")]
    )
    assert rc == 2
    assert "weighted_graph" in capsys.readouterr().err


def test_cli_impute_weighted_checkpoint_continuity(tmp_path):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    ck = tmp_path / "ck.csv"
    rc = main(
        ["impute", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--method", "weighted_graph", "--checkpoint-out", str(ck),
         "--out", str(tmp_path / "imp1")]
    )
    assert rc == 0
    rc = main(
        ["impute", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--method", "weighted_graph", "--checkpoint-in", str(ck),
         "--checkpoint-out", str(tmp_path / "ck2.csv"),
         "--out", str(tmp_path / "imp2")]
    )
    assert rc == 0
    layout = read_layout(layout_csv)
    graph = build_graph(layout, read_edge_list(edges)[0])
    first = read_checkpoint(ck, graph)
    second = read_checkpoint(tmp_path / "ck2.csv", graph)
    assert (second.revealed_count == 2 * first.revealed_count).all()
    assert (second.cumulative_loss >= first.cumulative_loss).all()


def test_cli_rollback_removes_outputs_on_late_failure(tmp_path, capsys):
    # The checkpoint's directory is missing, so the commit itself fails:
    # --out and the missing parent it was created with go again.
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    capsys.readouterr()
    out = tmp_path / "runs" / "imp"
    rc = main(
        ["impute", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--method", "weighted_graph",
         "--checkpoint-out", str(tmp_path / "no-such-dir" / "ck.csv"),
         "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    assert not out.parent.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_cli_commit_failure_names_the_path_given(tmp_path, capsys, existing):
    # Not the temp file the write went through, whose name changes every
    # run: the checkpoint's directory is missing, or the checkpoint path
    # is itself a directory, so the last rename fails.
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    capsys.readouterr()
    ck = tmp_path / "nodir" / "ck.csv"
    if existing:
        ck.mkdir(parents=True)
    rc = main(
        ["impute", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--method", "weighted_graph", "--checkpoint-out", str(ck),
         "--out", str(tmp_path / "imp")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{ck}'" in err and ".tmp." not in err


@pytest.mark.parametrize("existing", [False, True])
def test_cli_commit_failure_lands_no_output(tmp_path, capsys, existing):
    # The checkpoint path is a directory, so its rename would fail after
    # filled.csv and provenance.csv had landed in --out: no rename starts.
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    out = tmp_path / "i2"
    args = ["impute", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
            "--out", str(out)]
    before = None
    if existing:
        assert main(args + ["--method", "naive"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
    ck = tmp_path / "ck"
    ck.mkdir()
    capsys.readouterr()
    rc = main(args + ["--method", "weighted_graph", "--checkpoint-out", str(ck)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{ck}'" in err
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not out.exists()
    assert list(ck.iterdir()) == []
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp.")] == []


def test_cli_failed_rerun_keeps_previous_outputs(tmp_path, monkeypatch):
    layout_csv = _layout_file(tmp_path)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    out = tmp_path / "imp"
    args = ["impute", "--layout", layout_csv, "--panel", masked_csv, "--out", str(out)]
    assert main(args + ["--method", "naive"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    write = cli.atomic_write_text
    calls = []

    def second_write_fails(path, text, **kwargs):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        return write(path, text, **kwargs)

    monkeypatch.setattr(cli, "atomic_write_text", second_write_fails)
    assert main(args + ["--method", "location"]) == 2
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_evaluate_deterministic_bytes(tmp_path):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    outs = []
    for name in ("ev1", "ev2"):
        out = tmp_path / name
        rc = main(
            ["evaluate", "--layout", layout_csv, "--edges", edges,
             "--panel", masked_csv, "--method", "weighted_graph",
             "--setup", "incomplete", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out)
    for name in ("report.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["impute", "evaluate"])
def test_cli_weighted_outputs_independent_of_thread_cap(tmp_path, monkeypatch, command):
    # The engine splits the eigensolves over SPECTRAL_IMPUTER_THREADS
    # workers; the serial run, the default and an odd cap write the same
    # bytes to every file.  One --out for all, as the manifest records it.
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv, rate=0.2)
    out = tmp_path / command
    outs = []
    for threads in ("1", None, "3"):
        if threads is None:
            monkeypatch.delenv("SPECTRAL_IMPUTER_THREADS", raising=False)
        else:
            monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", threads)
        rc = main(
            [command, "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
             "--method", "weighted_graph", "--out", str(out)]
        )
        assert rc == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outs[0]) >= 3
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_cli_bad_thread_cap_single_line_error(tmp_path, monkeypatch, capsys):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    capsys.readouterr()
    monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "zero")
    out = tmp_path / "imp"
    rc = main(
        ["impute", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--method", "weighted_graph", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: SPECTRAL_IMPUTER_THREADS must be an integer, got 'zero'\n"
    assert not out.exists()


@pytest.mark.parametrize("eta", ["1e308", "inf", "nan", "0"])
@pytest.mark.parametrize(
    "command", [["impute", "--method", "weighted_graph"],
                ["evaluate", "--method", "weighted_graph"], ["regret"]]
)
def test_cli_learning_rate_out_of_range_single_line_error(tmp_path, capsys, command, eta):
    # At 1e308 the tracker's state bound 1 + 2 eta overflows: every guess
    # became NaN and the run still exited 0.
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(
        [*command, "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--eta", eta, "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: learning rate must be finite, in (0, 8.988e+307]\n"
    assert not out.exists()


def test_cli_evaluate_split_halves(tmp_path):
    layout_csv = _layout_file(tmp_path)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    cells = []
    for split in ("first", "second", "all"):
        out = tmp_path / f"ev-{split}"
        rc = main(
            ["evaluate", "--layout", layout_csv, "--panel", masked_csv,
             "--method", "naive", "--split", split, "--out", str(out)]
        )
        assert rc == 0
        cells.append(json.loads((out / "report.json").read_text())["scored_cells"])
    assert cells[0] + cells[1] == cells[2]


def test_cli_sweep_outputs(tmp_path):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    out = tmp_path / "sw"
    rc = main(
        ["sweep", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--methods", "naive,unweighted_graph", "--kernels", "triweight,gaussian",
         "--dims", "1,2", "--setups", "complete", "--out", str(out)]
    )
    assert rc == 0
    ranked = (out / "ranked.csv").read_text().strip().split("\n")
    # one naive row plus kernel x dim grid for the graph method
    assert len(ranked) == 1 + 1 + 4
    header = (out / "by_kernel.csv").read_text().strip().split("\n")[0]
    assert header == "method,setup,gaussian,naive,triweight"
    header = (out / "by_dim.csv").read_text().strip().split("\n")[0]
    assert header == "method,setup,1,2"


def test_cli_large_farm_impute_does_not_depend_on_block_rows(tmp_path, monkeypatch):
    # Above DENSE_SOLVER_MAX blocks are sized by per-row arrays, so they
    # hold many more rows than the dense route's (B, n, n) rule would.
    layout_csv = _layout_file(tmp_path, rows=16, cols=16)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    edge_count = len(Path(edges).read_text().splitlines()) - 1
    assert spectral.batch_rows(256, edge_count) >= 8
    outputs = []
    for label in ("sized", "two-row"):
        if label == "two-row":
            monkeypatch.setattr(estimators, "batch_rows", lambda n, edges=0: 2)
        out = tmp_path / label
        rc = main(
            ["impute", "--method", "weighted_graph", "--layout", layout_csv,
             "--edges", edges, "--panel", masked_csv, "--out", str(out)]
        )
        assert rc == 0
        outputs.append([(out / name).read_bytes() for name in ("filled.csv", "provenance.csv")])
    assert outputs[0] == outputs[1]


def test_cli_dense_farm_weighted_impute_does_not_depend_on_block_rows(tmp_path, monkeypatch):
    # Up to DENSE_SOLVER_MAX weighted blocks hold several engine batches:
    # all 80 rows in one block as sized, 28-row blocks (four batches of a
    # patched 7-row `batch_rows`) and 2-row blocks write the same bytes.
    layout_csv = _layout_file(tmp_path, rows=5, cols=7)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    assert estimators._DENSE_BLOCK_BATCHES * spectral.batch_rows(35) >= 80
    outputs = []
    for label, rows, batches in (("sized", None, None), ("four", 7, None), ("two-row", 2, 1)):
        if rows is not None:
            monkeypatch.setattr(estimators, "batch_rows", lambda n, edges=0, rows=rows: rows)
        if batches is not None:
            monkeypatch.setattr(estimators, "_DENSE_BLOCK_BATCHES", batches)
        out = tmp_path / label
        rc = main(
            ["impute", "--method", "weighted_graph", "--layout", layout_csv,
             "--edges", edges, "--panel", masked_csv, "--out", str(out),
             "--checkpoint-out", str(out / "ck.csv")]
        )
        assert rc == 0
        names = ("filled.csv", "provenance.csv", "ck.csv")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_sweep_ranks_rounding_ties_in_configuration_order(tmp_path):
    # Under the naive kernel every method is the plain mean, so the three
    # improvements differ only by rounding, about 1e-17 either way.
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    out = tmp_path / "sw"
    methods = ["location", "unweighted_graph", "weighted_graph"]
    rc = main(
        ["sweep", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--methods", ",".join(methods), "--kernels", "naive", "--dims", "2",
         "--setups", "complete", "--out", str(out)]
    )
    assert rc == 0
    rows = (out / "ranked.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == methods


@pytest.mark.parametrize(
    "command", [["evaluate", "--method", "naive"], ["sweep", "--methods", "naive"]]
)
def test_cli_no_scorable_cell_single_line_error(tmp_path, capsys, command):
    # A hole in every row leaves no complete row to score.
    layout_csv = _layout_file(tmp_path, rows=1, cols=3)
    panel_csv = _write(
        tmp_path / "panel.csv",
        "timestamp,t00,t01,t02\n0,1.0,,2.0\n1,,3.0,4.0\n2,5.0,6.0,\n",
    )
    out = tmp_path / "ev"
    rc = main(
        [*command, "--layout", layout_csv, "--panel", panel_csv, "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: no cell is scorable under setup 'complete'"
    assert not out.exists()


def test_cli_simulate_deterministic(tmp_path):
    layout_csv = _layout_file(tmp_path)
    a_masked, a_full = _simulate(tmp_path, layout_csv, out_name="s1", seed=9)
    b_masked, b_full = _simulate(tmp_path, layout_csv, out_name="s2", seed=9)
    assert open(a_full, "rb").read() == open(b_full, "rb").read()
    assert open(a_masked, "rb").read() == open(b_masked, "rb").read()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mechanism", "block", "--block-mean", "nan"], "outage length"),
        (["--spatial-scale", "nan"], "spatial scale"),
        (["--driver-scale", "nan"], "driver scale"),
        (["--noise-scale", "nan"], "noise scale"),
        (["--driver-scale", "inf"], "driver scale"),
        (["--noise-scale", "-1"], "noise scale"),
        (["--mechanism", "block", "--block-mean", "inf"], "outage length"),
        (["--seed", "-1"], "seed"),
        (["--driver-scale", "1e308", "--noise-scale", "1e308", "--seed", "3"], "finite"),
        # fails after the full panel's text is built
        (["--mechanism", "block", "--rate", "1.5"], "missingness rate"),
    ],
)
def test_cli_simulate_rejects_nan_settings(tmp_path, capsys, flags, message):
    layout_csv = _layout_file(tmp_path)
    out = tmp_path / "sim"
    rc = main(
        ["simulate", "--layout", layout_csv, "--t-len", "20", "--spatial-scale", "1.5",
         "--persistence", "0.6", *flags, "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and message in err
    assert "\n" not in err
    assert not out.exists()


def test_cli_simulate_header_only_layout_single_line_error(tmp_path, capsys):
    # Zero sensors once reached pairwise_distances as a 1-D array.
    layout_csv = _write(tmp_path / "layout.csv", "sensor_id,latitude,longitude,nominal_capacity\n")
    out = tmp_path / "sim"
    rc = main(
        ["simulate", "--layout", layout_csv, "--t-len", "20", "--spatial-scale", "1.5",
         "--persistence", "0.6", "--out", str(out)]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: layout has no sensors\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--spatial-scale", "1e-300"], ["--driver-scale", "1e308"]])
def test_cli_simulate_saturating_scales_warn_nothing(tmp_path, capsys, flags):
    # The covariance saturates to the identity, the readings to 0 or 1.
    layout_csv = _layout_file(tmp_path)
    rc = main(
        ["simulate", "--layout", layout_csv, "--t-len", "20", "--spatial-scale", "1.5",
         "--persistence", "0.6", *flags, "--out", str(tmp_path / "sim")]
    )
    assert rc == 0
    assert capsys.readouterr().err == ""


def _far_apart_files(tmp_path, reach):
    """A 3x4 grid layout spanning [-reach, reach] on both axes, and a panel."""
    lines = ["sensor_id,latitude,longitude,nominal_capacity"]
    for k in range(12):
        x, y = reach * ((k % 4) / 1.5 - 1), reach * (k // 4 - 1)
        lines.append(f"t{k:02d},{x!r},{y!r},7.0")
    layout_csv = _write(tmp_path / "layout.csv", "\n".join(lines) + "\n")
    rows = [",".join(["timestamp"] + [f"t{k:02d}" for k in range(12)])]
    for t in range(4):
        rows.append(",".join([str(t)] + ["" if k == 3 * t else str(1 + k % 5) for k in range(12)]))
    return layout_csv, _write(tmp_path / "panel.csv", "\n".join(rows) + "\n")


def _far_apart_commands(layout_csv, panel_csv, out):
    location = ["--layout", layout_csv, "--panel", panel_csv, "--method", "location"]
    return [
        ["graph", "--layout", layout_csv, "--propose", "king", "--out", f"{out}/graph"],
        ["simulate", "--layout", layout_csv, "--t-len", "20", "--spatial-scale", "1.5",
         "--persistence", "0.6", "--mechanism", "mcar", "--out", f"{out}/sim"],
        ["impute", *location, "--out", f"{out}/impute"],
        ["evaluate", *location, "--setup", "incomplete", "--out", f"{out}/evaluate"],
    ]


def test_cli_far_apart_sensors_warn_nothing(tmp_path, capsys):
    """Coordinates of 1e200 overflow the squared differences, not the
    distances: every command runs silently, proposes the same graph as the
    grid at unit scale and fills the same values to rounding."""
    outputs = {}
    for reach in (1.0, 1e200):
        layout_csv, panel_csv = _far_apart_files(tmp_path, reach)
        out = tmp_path / repr(reach)
        for argv in _far_apart_commands(layout_csv, panel_csv, out):
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
        filled = np.loadtxt(out / "impute" / "filled.csv", delimiter=",", skiprows=1)
        outputs[reach] = ((out / "graph" / "edges.csv").read_text(), filled)
    assert outputs[1e200][0] == outputs[1.0][0]
    assert np.allclose(outputs[1e200][1], outputs[1.0][1], rtol=1e-12, atol=0)


@pytest.mark.parametrize("command", range(4))
def test_cli_unrepresentable_distance_single_line_error(tmp_path, capsys, command):
    # Sensors at -1e308 and 1e308 are 2e308 apart, past the largest double.
    layout_csv, panel_csv = _far_apart_files(tmp_path, 1e308)
    argv = _far_apart_commands(layout_csv, panel_csv, tmp_path)[command]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: sensors lie too far apart: a distance overflows a float"


_NO_SCIPY_SCRIPT = """
import sys
from spectral_imputer.cli import main
layout, graph_out, embed_out = sys.argv[1:]
assert main(["graph", "--layout", layout, "--propose", "king", "--out", graph_out]) == 0
edges = graph_out + "/edges.csv"
assert main(["embed", "--layout", layout, "--edges", edges, "--out", embed_out]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_graph_and_embed_import_no_scipy(tmp_path):
    """On a 5x7 farm, `graph --propose king` and `embed` never import
    scipy: its import would more than double a `graph` run's start-up."""
    layout_csv = _layout_file(tmp_path, rows=5, cols=7)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, layout_csv,
         str(tmp_path / "graph"), str(tmp_path / "embed")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_graph_rejects_nan_weight_floor(tmp_path, capsys):
    layout_csv = _layout_file(tmp_path)
    rc = main(
        ["graph", "--layout", layout_csv, "--propose", "king", "--weight-floor", "nan",
         "--out", str(tmp_path / "g")]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "weight floor" in err
    assert "\n" not in err


def test_cli_impute_rejects_nan_weight_floor(tmp_path, capsys):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    out = tmp_path / "imp"
    rc = main(
        ["impute", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--method", "weighted_graph", "--weight-floor", "nan", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "weight floor" in err
    assert "\n" not in err
    assert not out.exists()


def test_cli_regret_curve(tmp_path):
    layout_csv = _layout_file(tmp_path)
    edges = _graph_files(tmp_path, layout_csv)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    out = tmp_path / "rg"
    rc = main(
        ["regret", "--layout", layout_csv, "--edges", edges, "--panel", masked_csv,
         "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "regret_curve.csv").read_text().strip().split("\n")
    assert len(lines) == 81


def test_cli_missing_input_single_line_error(tmp_path, capsys):
    rc = main(
        ["graph", "--layout", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "g")]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ")
    assert "\n" not in err


@pytest.mark.parametrize("which", ["layout", "panel"])
@pytest.mark.parametrize(
    "fault, message",
    [
        (b"\xff\xfe\x00bad\n", "not UTF-8 text"),
        (b"x" * 200_000 + b",1\n", "line 4: field larger than field limit"),
    ],
    ids=["not-utf8", "huge-field"],
)
def test_cli_unreadable_input_single_line_error(tmp_path, capsys, which, fault, message):
    files = {
        "layout": b"sensor_id,latitude,longitude,nominal_capacity\n"
        b"a,0.0,0.0,2.0\nb,1.0,0.0,2.0\n",
        "panel": b"timestamp,a,b\n0.0,1.0,\n1.0,1.0,0.5\n",
    }
    files[which] += fault
    for name, data in files.items():
        (tmp_path / f"{name}.csv").write_bytes(data)
    rc = main(
        ["impute", "--layout", str(tmp_path / "layout.csv"),
         "--panel", str(tmp_path / "panel.csv"), "--method", "naive",
         "--out", str(tmp_path / "imp")]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {tmp_path / which}.csv") and message in err
    assert "\n" not in err


def test_inputs_with_a_byte_order_mark_load(tmp_path):
    layout_csv = tmp_path / "layout.csv"
    layout_csv.write_text(
        "sensor_id,latitude,longitude,nominal_capacity\n"
        "turbine_\u00e9,0.0,0.0,2.0\nb,1.0,0.0,2.0\n",
        encoding="utf-8-sig",
    )
    panel_csv = tmp_path / "panel.csv"
    panel_csv.write_text("timestamp,turbine_\u00e9,b\n0.0,1.0,\n", encoding="utf-8-sig")
    layout = read_layout(layout_csv)
    assert layout.ids == ("turbine_\u00e9", "b")
    panel, _ = load_panel(panel_csv, layout)
    assert panel.values[0, 0] == 0.5 and not panel.mask[0, 1]


def test_cli_outputs_do_not_depend_on_the_locale(tmp_path):
    layout_csv = _write(
        tmp_path / "layout.csv",
        "sensor_id,latitude,longitude,nominal_capacity\n"
        "turbine_\u00e9,0.0,0.0,2.0\nb,1.0,0.0,2.0\nc,0.0,1.0,3.0\n",
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for mode in ({"PYTHONUTF8": "1"},
                 {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}):
        env = dict(os.environ, PYTHONPATH=path, **mode)
        out = tmp_path / mode["PYTHONUTF8"]
        for argv in (
            ["graph", "--layout", layout_csv, "--propose", "king", "--out", str(out)],
            ["simulate", "--layout", layout_csv, "--t-len", "5", "--spatial-scale", "1",
             "--persistence", "0.5", "--out", str(out)],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "spectral_imputer.cli", *argv],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert done.returncode == 0, done.stderr
        outputs.append({name: (out / name).read_bytes()
                        for name in ("edges.csv", "components.csv", "panel_full.csv")})
    assert outputs[0] == outputs[1]
    assert "turbine_\u00e9".encode() in outputs[1]["panel_full.csv"]


def test_cli_outputs_follow_the_umask(tmp_path):
    layout_csv = _layout_file(tmp_path)
    masked_csv, _ = _simulate(tmp_path, layout_csv)
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / f"imp{umask:o}"
        old = os.umask(umask)
        try:
            rc = main(
                ["impute", "--layout", layout_csv, "--panel", masked_csv,
                 "--method", "naive", "--out", str(out)]
            )
        finally:
            os.umask(old)
        assert rc == 0
        for name in ("filled.csv", "provenance.csv", "manifest.json"):
            assert os.stat(out / name).st_mode & 0o777 == mode, name


@pytest.mark.parametrize(
    "timestamps, message",
    [
        (("2024-01-01T00:00:00+00:00", "2024-01-01T01:00:00"), "timezone"),
        (("0.0", "inf"), "finite"),
    ],
)
def test_cli_bad_timestamps_single_line_error(tmp_path, capsys, timestamps, message):
    layout_csv = _write(
        tmp_path / "layout.csv",
        "sensor_id,latitude,longitude,nominal_capacity\n"
        "a,0.0,0.0,2.0\nb,1.0,0.0,2.0\n",
    )
    rows = [f"{ts},1.0,{'' if k else '1.5'}" for k, ts in enumerate(timestamps)]
    panel_csv = _write(tmp_path / "panel.csv", "timestamp,a,b\n" + "\n".join(rows) + "\n")
    out = tmp_path / "imp"
    rc = main(
        ["impute", "--layout", layout_csv, "--panel", panel_csv,
         "--method", "naive", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and message in err
    assert "\n" not in err
    assert not out.exists()


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spectral-imputer" in capsys.readouterr().out
