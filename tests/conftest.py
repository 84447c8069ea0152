"""Shared builders for test graphs, layouts, and panels."""

import numpy as np
import pytest

from spectral_imputer import spectral
from spectral_imputer.graph import FarmLayout, Sensor, build_graph


def make_layout(coords, capacity=1.0, prefix="s"):
    """Layout from (lat, lon) pairs; ids s00, s01, ... in order."""
    sensors = tuple(
        Sensor(f"{prefix}{k:02d}", float(lat), float(lon), float(capacity))
        for k, (lat, lon) in enumerate(coords)
    )
    return FarmLayout(sensors)


def grid_layout(rows, cols, spacing=1.0, capacity=1.0):
    """Row-major rectangular grid layout."""
    coords = [
        (r * spacing, c * spacing) for r in range(rows) for c in range(cols)
    ]
    return make_layout(coords, capacity=capacity)


def chain_graph(layout):
    """Path graph s00 - s01 - ... over a layout."""
    ids = layout.ids
    return build_graph(layout, list(zip(ids[:-1], ids[1:])))


def random_connected_graph(rng, layout, extra_edges=0, weighted=False):
    """Spanning tree plus optional extras; optional weights in (0, 1]."""
    ids = layout.ids
    n = len(ids)
    pairs = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = order[k]
        b = order[rng.integers(0, k)]
        pairs.add((min(a, b), max(a, b)))
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    g = build_graph(layout, [(ids[a], ids[b]) for a, b in sorted(pairs)])
    if weighted:
        w = rng.uniform(0.05, 1.0, size=len(g.edges))
        g = g.with_weights(w)
    return g


@pytest.fixture
def path3_layout():
    return make_layout([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)])


@pytest.fixture
def path3_graph(path3_layout):
    return chain_graph(path3_layout)


@pytest.fixture
def blas(monkeypatch):
    """numpy's OpenBLAS thread-count getter, or a stand-in's where the
    calls cannot be reached, holding 2 threads (and 2 engine workers) for
    the test; the old count is put back afterwards."""
    calls = spectral._openblas_thread_calls()
    if calls is None:
        count = [1]
        calls = (lambda: count[0], lambda k: count.__setitem__(0, k))
        monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: calls)
    get, put = calls
    before = get()
    put(2)
    monkeypatch.setenv("SPECTRAL_IMPUTER_THREADS", "2")
    yield get
    put(before)
