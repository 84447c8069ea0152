"""File formats: layouts, edge lists, panels, reports, checkpoints, SVG.

All tabular data is CSV with '\n' line endings; the manifest and nested
reports are JSON with sorted keys.  `_table_text` is the one home of the
cell format: floats are written with repr, so a file is a faithful
record of the numbers that produced it, and integers in decimal.  Every
file goes through an atomic temp-file-then-rename so readers never see
a half-written file.  Missing panel cells are empty cells, not sentinel
numbers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import os
import re
import tempfile
from itertools import chain, compress

import numpy as np

from . import __version__
from .errors import InputError
from .estimators import ImputationResult, Panel, Provenance
from .evaluation import EvalReport
from .graph import FarmGraph, FarmLayout, Sensor
from .online import RegretCurve, SimilarityTracker

logger = logging.getLogger(__name__)

CHECKPOINT_COLUMNS = (
    "from",
    "to",
    "y",
    "s_hat",
    "cumulative_loss",
    "revealed_count",
    "running_sum_revealed",
)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path, text: str, *, defer: bool = False):
    """Write `text` to `path` through a same-directory temp file.

    The file lands with the mode a plain `open` would give it (0666 less
    the umask), not the owner-only mode of the temp file.  With
    `defer=True` the finished temp file is left for the caller to rename
    over `path` (or delete), and its name is returned.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    with _named_os_errors(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.chmod(tmp, 0o666 & ~_umask())
            if defer:
                return tmp
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


@contextlib.contextmanager
def _named_os_errors(path):
    """Re-raise an `OSError` as one about `path`, not a temp file."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), path) from exc


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    return repr(float(value))


def _table_text(header, columns) -> str:
    """CSV of `columns` under `header`, each column formatted once.

    A float column is written with repr and an integer column in
    decimal; any other column is taken as texts.  `csv.writer` quotes.
    """
    cells = []
    for column in columns:
        values = np.asarray(column)
        cells.append(map(repr, values.tolist()) if values.dtype.kind in "fiu" else column)
    return _csv_text(chain([header], zip(*cells)))


_PLAIN_FIELD = re.compile(r"[\w.:+-]*").fullmatch


def panel_cells_csv_text(sensor_ids, timestamps, rows) -> str:
    """Panel-shaped CSV: `rows` hold formatted cells that need no quoting.

    The header and the timestamps are quoted as `csv.writer` quotes them.
    """
    stamps = [t if _PLAIN_FIELD(t) else _csv_text([(t, "")])[:-2] for t in timestamps]
    lines = [f"{t},{','.join(row)}" for t, row in zip(stamps, rows)]
    return _csv_text([("timestamp",) + sensor_ids]) + "\n".join(lines) + "\n"


def _read_rows(path):
    """CSV rows of a UTF-8 file, with or without a byte-order mark."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        # Decoding runs ahead of the reader, so no line can be named.
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: file is empty")
    return rows


def _parse_float(text: str, path, line: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(
            f"{path} line {line}: unparsable {what} {text!r}"
        ) from None
    if not math.isfinite(value):
        raise InputError(f"{path} line {line}: {what} must be finite, got {text!r}")
    return value


def _table_rows(path, *headers):
    """(header, rows) of a CSV table whose header is one of `headers`.

    `rows` yields (line, row) pairs, each row checked against the header's
    width when it is reached, so faults are reported in file order.
    """
    rows = _read_rows(path)
    header = tuple(rows[0])
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise InputError(
            f"{path} line 1: expected header {expected}, got {','.join(header)}"
        )

    def numbered():
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise InputError(
                    f"{path} line {line}: expected {len(header)} fields, got {len(row)}"
                )
            yield line, row

    return header, numbered()


# ---------------------------------------------------------------------------
# Layout and edge lists.

LAYOUT_HEADER = ("sensor_id", "latitude", "longitude", "nominal_capacity")


def read_layout(path) -> FarmLayout:
    """Layout CSV: sensor_id,latitude,longitude,nominal_capacity."""
    _, rows = _table_rows(path, LAYOUT_HEADER)
    sensors = [
        Sensor(
            row[0].strip(),
            _parse_float(row[1], path, line, "latitude"),
            _parse_float(row[2], path, line, "longitude"),
            _parse_float(row[3], path, line, "capacity"),
        )
        for line, row in rows
    ]
    return FarmLayout(tuple(sensors))


def read_edge_list(path):
    """Edge CSV: from,to with an optional weight column.

    Returns:
        (pairs, weights): id pairs in file order and a float array, or
        None when the file has no weight column.
    """
    header, rows = _table_rows(path, ("from", "to"), ("from", "to", "weight"))
    weighted = len(header) == 3
    pairs = []
    weights = []
    for line, row in rows:
        pairs.append((row[0].strip(), row[1].strip()))
        if weighted:
            weights.append(_parse_float(row[2], path, line, "edge weight"))
    return pairs, (np.array(weights) if weighted else None)


def edge_list_csv_text(graph: FarmGraph) -> str:
    ends = [[a for a, _ in graph.edge_ids], [b for _, b in graph.edge_ids]]
    if graph.weights is None:
        return _table_text(("from", "to"), ends)
    return _table_text(("from", "to", "weight"), ends + [graph.weight_array()])


def components_csv_text(partition) -> str:
    """Component membership CSV: node_id,component."""
    return _table_text(("node_id", "component"), [partition.node_ids, partition.labels])


# ---------------------------------------------------------------------------
# Panels.


def load_panel(path, layout: FarmLayout):
    """Read a raw panel CSV and normalize it against the layout.

    The header is `timestamp` followed by sensor ids in any order; the
    column set must match the layout exactly.  Empty and whitespace-only
    cells are missing.  Raw readings are divided by the sensor's capacity;
    results outside [0, 1] are clamped and counted.  Cells are parsed in
    bulk; only a file with a bad row or cell is re-read cell by cell, to
    name the first fault's line and column.

    Returns:
        (panel, clamp_count); a nonzero count is also logged.
    """
    rows = _read_rows(path)
    header, body = rows[0], rows[1:]
    if not header or header[0] != "timestamp":
        raise InputError(f"{path} line 1: first column must be 'timestamp'")
    cols = [c.strip() for c in header[1:]]
    first = {c: k for k, c in reversed(list(enumerate(cols)))}
    known = set(layout.ids)
    faults = [f"duplicate column {c!r}" for k, c in enumerate(cols) if first[c] != k]
    faults += [f"unknown sensor column {c!r}" for c in cols if c not in known]
    faults += [f"missing sensor column {s!r}" for s in layout.ids if s not in first]
    if faults:
        raise InputError(f"{path} line 1: {faults[0]}")
    order = [first[sid] for sid in layout.ids]
    if not body:
        raise InputError(f"{path}: panel has no data rows")
    width = len(header)
    bulk = _bulk_readings(body, width)
    if bulk is None:
        # Re-read cell by cell, rows in file order and sensors in layout
        # order, to name the first fault.
        for line, row in enumerate(body, start=2):
            if len(row) != width:
                raise InputError(
                    f"{path} line {line}: expected {width} fields, got {len(row)}"
                )
            for pos in order:
                if text := row[1 + pos].strip():
                    _parse_float(text, path, line, f"value in column {cols[pos]!r}")
    raw, present = bulk
    # C order, unlike raw[:, order]: numpy's row sums depend on memory layout.
    values = np.take(raw, order, axis=1) / layout.capacities()
    low, high = values < 0.0, values > 1.0
    values[low] = 0.0
    values[high] = 1.0
    clamp_count = int(low.sum() + high.sum())
    mask = np.take(present, order, axis=1)
    try:
        panel = Panel(tuple(row[0] for row in body), layout.ids, values, mask)
    except InputError as exc:
        if exc.row is None:
            raise
        raise InputError(f"{path} line {exc.row + 2}: {exc}") from None
    if clamp_count:
        logger.warning(
            "%s: clamped %d out-of-range values into [0, 1]", path, clamp_count
        )
    return panel, clamp_count


def _bulk_readings(body, width):
    """(T, width - 1) raw readings and presence, in file column order.

    None on a fault: a row of the wrong width, a cell Python's `float`
    rejects or a non-finite reading.
    """
    if set(map(len, body)) != {width}:
        return None
    texts = list(map(str.strip, chain.from_iterable(row[1:] for row in body)))
    present = list(map(bool, texts))
    mask = np.array(present, dtype=bool).reshape(len(body), width - 1)
    raw = np.full(mask.shape, np.nan)
    try:
        raw[mask] = np.fromiter(map(float, compress(texts, present)), float)
    except ValueError:
        return None
    return (raw, mask) if np.isfinite(raw[mask]).all() else None


def _denormalize(value: float, capacity: float) -> float:
    """Raw reading whose re-normalization reproduces `value` exactly.

    value * capacity rounds, and dividing back can land one ulp off;
    nudge the raw value until the round trip is exact.  Values that came
    from a load, or were snapped as `panel_cells` snaps them, always
    succeed.
    """
    raw = value * capacity
    if raw / capacity == value:
        return raw
    lo = hi = raw
    for _ in range(8):
        lo = math.nextafter(lo, -math.inf)
        if lo / capacity == value:
            return lo
        hi = math.nextafter(hi, math.inf)
        if hi / capacity == value:
            return hi
    raise InputError(
        f"cannot encode value {value!r} exactly at capacity {capacity!r}"
    )


def panel_csv_text(layout: FarmLayout, sensor_ids, timestamps, values) -> str:
    """Normalized `values` as raw readings, NaN cells left empty."""
    cells = panel_cells(layout, sensor_ids, values)
    return panel_cells_csv_text(layout.ids, timestamps, cells.tolist())


def panel_cells(layout: FarmLayout, sensor_ids, values) -> np.ndarray:
    """(T, N) object array of normalized `values` as raw-reading texts.

    NaN cells are empty texts.  Dividing by a capacity does not reach
    every double in [0, 1]; a value that never came through a load
    (synthetic data, estimates) may sit between two reachable numbers,
    and then no raw reading maps back to it.  One multiply-divide round
    trip first moves each value to the nearest reachable one (at most one
    ulp away), so re-loading the file is exact; values that already
    round-trip are untouched.
    """
    if tuple(sensor_ids) != layout.ids:
        raise InputError("panel sensors do not match the layout")
    capacities = layout.capacities()
    values = (values * capacities) / capacities
    raw = values * capacities
    present = ~np.isnan(values)
    nudge = present & (raw / capacities != values)
    for t, i in np.argwhere(nudge).tolist():
        raw[t, i] = _denormalize(float(values[t, i]), float(capacities[i]))
    cells = np.array(list(map(repr, raw.ravel().tolist())), dtype=object)
    cells[~present.ravel()] = ""
    return cells.reshape(raw.shape)


def provenance_csv_text(result: ImputationResult) -> str:
    """Per-cell provenance labels in panel layout."""
    labels = np.array([Provenance(k).label for k in range(len(Provenance))], object)
    rows = labels[result.provenance].tolist()
    return panel_cells_csv_text(result.sensor_ids, result.timestamps, rows)


# ---------------------------------------------------------------------------
# Embeddings.


def embedding_csv_text(embeddings) -> str:
    """CSV of embedded nodes: node_id, component, coordinates.

    Components embed with possibly different effective dimensions;
    shorter rows are padded with empty cells.
    """
    width = max((e.r_eff for e in embeddings), default=0)
    header = ["node_id", "component"] + [f"coord_{k + 1}" for k in range(width)]
    rows = [header]
    for emb in embeddings:
        for node, coords in emb.coordinates.items():
            row = [node, str(emb.component_index)]
            row.extend(_fmt(c) for c in coords)
            row.extend([""] * (width - len(coords)))
            rows.append(row)
    return _csv_text(rows)


def embedding_svg_text(embeddings) -> str:
    """Deterministic 720-pixel SVG scatter of the first two embedding coordinates.

    One-dimensional embeddings plot on a line.  Points carry their node
    id as a text label.
    """
    size, margin = 720, 60
    points = []
    for emb in embeddings:
        for node, coords in emb.coordinates.items():
            x = float(coords[0]) if len(coords) >= 1 else 0.0
            y = float(coords[1]) if len(coords) >= 2 else 0.0
            points.append((node, x, y))

    def scale(vals):
        lo, hi = min(vals), max(vals)
        span = hi - lo
        if span == 0.0:
            return lambda v: size / 2.0
        return lambda v: margin + (v - lo) / span * (size - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if points:
        sx = scale([p[1] for p in points])
        sy = scale([p[2] for p in points])
        for node, x, y in points:
            px = sx(x)
            py = size - sy(y)
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#1f5fa8"/>'
            )
            parts.append(
                f'<text x="{px + 6:.2f}" y="{py - 6:.2f}" font-family="monospace" '
                f'font-size="11">{node}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Reports.


REPORT_COLUMNS = ("sensor", "scored", "rmse", "naive_rmse", "improvement")


def report_csv_text(report: EvalReport) -> str:
    records = report.sensor_rows()
    return _table_text(REPORT_COLUMNS, [[r[c] for r in records] for c in REPORT_COLUMNS])


def report_json_text(report: EvalReport) -> str:
    payload = report.summary()
    payload["sensors"] = report.sensor_rows()
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


RANKED_COLUMNS = (
    "method",
    "kernel",
    "r",
    "learning_rate",
    "setup",
    "mean_rmse",
    "sd_rmse",
    "mean_improvement",
    "sd_improvement",
    "improvement_of_means",
    "scored_cells",
)


def ranked_csv_text(reports) -> str:
    records = [rep.summary() for rep in reports]
    for record in records:
        # a float column even when the rate was given as an integer
        record["learning_rate"] = float(record["learning_rate"])
    return _table_text(RANKED_COLUMNS, [[r[c] for r in records] for c in RANKED_COLUMNS])


def pivot_csv_text(reports, axis: str) -> str:
    """Mean improvement pivoted by kernel or by embedding dimension.

    Rows are (method, setup) pairs; columns are the distinct values of
    `axis` across the reports; each cell averages the mean improvement
    of the matching reports.
    """
    if axis not in ("kernel", "r"):
        raise InputError(f"unknown pivot axis {axis!r}")
    columns = sorted({getattr(rep, axis) for rep in reports})
    groups = sorted({(rep.method, rep.setup) for rep in reports})
    rows = [("method", "setup") + tuple(str(c) for c in columns)]
    for method, setup in groups:
        row = [method, setup]
        for c in columns:
            hits = [
                rep.mean_improvement
                for rep in reports
                if (rep.method, rep.setup, getattr(rep, axis)) == (method, setup, c)
            ]
            row.append(_fmt(float(np.mean(hits))) if hits else "")
        rows.append(row)
    return _csv_text(rows)


def regret_csv_text(curve: RegretCurve) -> str:
    return _table_text(
        ("t", "algorithm_loss", "best_constant_loss", "regret"),
        [curve.t, curve.algorithm_loss, curve.best_constant_loss, curve.regret],
    )


# ---------------------------------------------------------------------------
# Tracker checkpoints.


def checkpoint_csv_text(tracker: SimilarityTracker) -> str:
    ids = tracker.edge_ids
    return _table_text(
        CHECKPOINT_COLUMNS,
        [[a for a, _ in ids], [b for _, b in ids], tracker.y, tracker.s_hat,
         tracker.cumulative_loss, tracker.revealed_count, tracker.running_sum_revealed],
    )


def read_checkpoint(path, graph: FarmGraph, eta=0.5) -> SimilarityTracker:
    """Restore a tracker for `graph` from a checkpoint file.

    The learning rate is configuration, not state, so it is supplied by
    the caller rather than read from the file.

    Raises:
        InputError: on malformed rows, edges that do not match the
            graph, or a stored guess that is not the projection of its
            stored state.
    """
    _, rows = _table_rows(path, CHECKPOINT_COLUMNS)
    by_edge = {}
    for line, row in rows:
        pair = (row[0].strip(), row[1].strip())
        if pair in by_edge:
            raise InputError(f"{path} line {line}: duplicate edge {pair}")
        count_text = row[5].strip()
        try:
            count = int(count_text)
        except ValueError:
            raise InputError(
                f"{path} line {line}: unparsable revealed count {count_text!r}"
            ) from None
        if count < 0:
            raise InputError(f"{path} line {line}: revealed count must be >= 0")
        by_edge[pair] = (
            _parse_float(row[2], path, line, "state y"),
            _parse_float(row[3], path, line, "guess s_hat"),
            _parse_float(row[4], path, line, "cumulative loss"),
            count,
            _parse_float(row[6], path, line, "revealed sum"),
            line,
        )
    missing = [e for e in graph.edge_ids if e not in by_edge]
    extra = [e for e in by_edge if e not in set(graph.edge_ids)]
    if missing or extra:
        raise InputError(
            f"{path}: checkpoint edges do not match the graph "
            f"(missing {len(missing)}, unexpected {len(extra)})"
        )
    tracker = SimilarityTracker(graph.edge_ids, eta=eta)
    for k, pair in enumerate(graph.edge_ids):
        y, s_hat, loss, count, total, line = by_edge[pair]
        if s_hat != min(max(y, 0.0), 1.0):
            raise InputError(
                f"{path} line {line}: guess {s_hat!r} is not the clamped state {y!r}"
            )
        if loss < 0:
            raise InputError(f"{path} line {line}: cumulative loss must be >= 0")
        tracker.y[k] = y
        tracker.s_hat[k] = s_hat
        tracker.cumulative_loss[k] = loss
        tracker.revealed_count[k] = count
        tracker.running_sum_revealed[k] = total
    return tracker


# ---------------------------------------------------------------------------
# Manifest.


def manifest_text(command: str, settings: dict) -> str:
    payload = {
        "command": command,
        "version": __version__,
        "settings": settings,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
