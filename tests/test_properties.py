"""Property tests over randomly drawn inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_imputer.estimators import Panel
from spectral_imputer.graph import FarmLayout, Sensor
from spectral_imputer.io import load_panel, quantize_panel, write_panel

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
    panel = quantize_panel(panel, layout)
    path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
    write_panel(path, panel, layout)
    again, clamped = load_panel(path, layout)
    assert clamped == 0
    assert again.timestamps == panel.timestamps
    assert np.array_equal(again.mask, panel.mask)
    assert np.array_equal(again.values, panel.values, equal_nan=True)
