"""Leave-one-out evaluation, synthetic panels, and missingness simulation.

The evaluation hides one observed cell at a time, re-runs the configured
estimator on the modified row, and scores the estimate against the hidden
truth.  For the time-varying graph method the per-row similarity guesses
depend only on the rows before it, which the hide does not touch, so the
tracker can be replayed ahead of the rows it serves and every (row, sensor)
score computed independently.  So evaluation runs like `impute`: over
blocks of rows, the tracker replayed over each block first, with one call
of the impute estimator per block covering every scored cell; the
estimators never count a cell's own sensor among its neighbors.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, UndefinedScoreError
from .estimators import (
    EstimatorConfig,
    Panel,
    Provenance,
    make_estimator,
)
from .graph import FarmGraph, FarmLayout, build_graph, propose_grid_edges
from .graph import pairwise_distances
from .online import SimilarityTracker
from .spectral import DENSE_SOLVER_MAX, batch_rows, single_blas_thread

SETUPS = ("complete", "incomplete")
# `sweep` ranks mean improvements rounded to this many decimals: methods
# that coincide, as all do under the naive kernel, differ by about 1e-17.
RANK_DECIMALS = 12


def rmse(truth: np.ndarray, estimates: np.ndarray) -> float:
    """Root mean squared error over aligned arrays.

    Raises:
        UndefinedScoreError: if the arrays are empty.
    """
    truth = np.asarray(truth, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if truth.shape != estimates.shape:
        raise InputError(
            f"shape mismatch in rmse: {truth.shape} vs {estimates.shape}"
        )
    if truth.size == 0:
        raise UndefinedScoreError("rmse over an empty set is undefined")
    return float(np.sqrt(np.mean((truth - estimates) ** 2)))


SPLITS = ("all", "first", "second")


def split_rows(t_len: int, split: str) -> np.ndarray:
    """(T,) bool mask selecting a row-index portion of a panel.

    "first" keeps the leading half of the rows (rounded half to even),
    "second" the rest, and "all" everything, so a validation/test
    boundary is just an index cut.
    """
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}; choose from {', '.join(SPLITS)}")
    keep = np.zeros(t_len, dtype=bool)
    cut = round(t_len / 2)
    if split == "all":
        keep[:] = True
    elif split == "first":
        keep[:cut] = True
    else:
        keep[cut:] = True
    return keep


def scorable_cells(
    mask: np.ndarray, setup: str, within: np.ndarray | None = None
) -> np.ndarray:
    """(T, N) bool: the cells where hiding the sensor leaves a scorable estimate.

    complete: every cell of a row with every sensor observed.  incomplete:
    observed cells whose row has at least one other observation; rows with
    no other observation are skipped for every method rather than scored
    as an automatic failure, so the comparison stays about estimator
    quality.  `within` optionally restricts candidates to a row subset.
    """
    if setup not in SETUPS:
        raise ConfigError(f"unknown setup {setup!r}; choose from {', '.join(SETUPS)}")
    if setup == "complete":
        ok = np.repeat(mask.all(axis=1, keepdims=True), mask.shape[1], axis=1)
    else:
        ok = mask & (mask.sum(axis=1, keepdims=True) - mask > 0)
    if within is not None:
        ok &= np.asarray(within, dtype=bool)[:, None]
    return ok


# ---------------------------------------------------------------------------
# Reports.


@dataclass
class EvalReport:
    """Leave-one-out scores for one estimator configuration.

    Per-sensor arrays are aligned with `sensor_ids`; sensors with no
    scorable rows under the setup carry NaN scores and are left out of
    the aggregates, which raise `UndefinedScoreError` when no sensor was
    scored at all.  The equal-weight mean baseline is scored on exactly
    the same hidden cells, so improvements compare like with like.
    """

    method: str
    kernel: str
    r: int
    learning_rate: float
    setup: str
    sensor_ids: tuple[str, ...]
    rmse: np.ndarray
    naive_rmse: np.ndarray
    scored_counts: np.ndarray
    fallback_counts: dict[str, int]
    t_len: int
    complete_row_count: int

    @property
    def improvement(self) -> np.ndarray:
        """Per-sensor fractional improvement over the equal-weight mean."""
        with np.errstate(invalid="ignore", divide="ignore"):
            imp = (self.naive_rmse - self.rmse) / self.naive_rmse
        return np.where(self.naive_rmse == 0.0, 0.0, imp)

    def _scored(self, values: np.ndarray) -> np.ndarray:
        if not self.scored_counts.any():
            raise UndefinedScoreError(f"no cell is scorable under setup {self.setup!r}")
        return values[~np.isnan(values)]

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self._scored(self.rmse)))

    @property
    def sd_rmse(self) -> float:
        scored = self._scored(self.rmse)
        return float(np.std(scored, ddof=1)) if scored.size > 1 else 0.0

    @property
    def mean_improvement(self) -> float:
        """Mean of the per-sensor improvements."""
        return float(np.mean(self._scored(self.improvement)))

    @property
    def sd_improvement(self) -> float:
        scored = self._scored(self.improvement)
        return float(np.std(scored, ddof=1)) if scored.size > 1 else 0.0

    @property
    def improvement_of_means(self) -> float:
        """Improvement of the mean RMSE itself; both aggregates are reported."""
        naive = float(np.mean(self._scored(self.naive_rmse)))
        if naive == 0.0:
            return 0.0
        return (naive - self.mean_rmse) / naive

    def summary(self) -> dict:
        return {
            "method": self.method,
            "kernel": self.kernel,
            "r": self.r,
            "learning_rate": self.learning_rate,
            "setup": self.setup,
            "mean_rmse": self.mean_rmse,
            "sd_rmse": self.sd_rmse,
            "mean_improvement": self.mean_improvement,
            "sd_improvement": self.sd_improvement,
            "improvement_of_means": self.improvement_of_means,
            "scored_cells": int(self.scored_counts.sum()),
            "complete_rows": self.complete_row_count,
            "t_len": self.t_len,
            "fallback_counts": dict(sorted(self.fallback_counts.items())),
        }

    def sensor_rows(self) -> list[dict]:
        """One record per sensor, for tabular output."""
        out = []
        for i, sid in enumerate(self.sensor_ids):
            out.append(
                {
                    "sensor": sid,
                    "scored": int(self.scored_counts[i]),
                    "rmse": float(self.rmse[i]),
                    "naive_rmse": float(self.naive_rmse[i]),
                    "improvement": float(self.improvement[i]),
                }
            )
        return out


def leave_one_out_eval(
    panel: Panel,
    config: EstimatorConfig,
    setup: str = "complete",
    layout: FarmLayout | None = None,
    graph: FarmGraph | None = None,
    within: np.ndarray | None = None,
) -> EvalReport:
    """Hide observed cells one at a time and score the estimates.

    The configured estimator and the equal-weight mean baseline are both
    scored on the same cells.  Which cells qualify depends on `setup`;
    see `scorable_cells`.  `within` restricts scoring to a row subset
    (for a validation/test boundary); the similarity tracker still runs
    over the whole stream, since restricting what is scored does not
    change what the estimator would have seen.
    """
    n = panel.n_sensors
    if n < 2:
        raise InputError("leave-one-out evaluation needs at least two sensors")

    estimator = make_estimator(config, panel.sensor_ids, layout, graph)
    baseline_estimator = make_estimator(EstimatorConfig("naive"), panel.sensor_ids)
    tracker = None
    if config.method == "weighted_graph":
        tracker = SimilarityTracker.for_graph(graph, eta=config.learning_rate)
    # Per sensor: scored cells, and squared errors of estimates and baseline.
    counts = np.zeros(n, dtype=int)
    squares = np.zeros((2, n))
    tags = np.zeros(len(Provenance), dtype=int)
    # Blocks of rows, the tracker replayed over each in turn as `impute`
    # does, keep memory flat in the panel's length.  weighted_graph copies
    # every scored cell's row.  On the dense route the blocks hold half of
    # `batch_rows` (an eighth of weighted `impute`'s blocks): at a full
    # batch glibc would unmap and refault those copies every block.  Beyond
    # it, where `impute`'s blocks are sized by per-row arrays, a row's
    # scored cells bring up to n copies of it, so the blocks hold 1/n of
    # `impute`'s rows.
    edges = 0 if tracker is None else tracker.edge_count
    step = max(1, batch_rows(n, edges) // (2 if n <= DENSE_SOLVER_MAX else n))
    for start in range(0, panel.t_len, step):
        mask = panel.mask[start : start + step]
        values = np.where(mask, panel.values[start : start + step], 0.0)
        guesses = None
        if tracker is not None:
            guesses, _ = tracker.replay(estimator.edge_weights(values, mask, np.nan))
        rows_within = None if within is None else within[start : start + step]
        targets, rows = np.nonzero(scorable_cells(mask, setup, rows_within).T)
        if rows.size == 0:
            continue
        baseline, _ = baseline_estimator.estimate(values, mask, rows, targets)
        estimates = baseline
        # The plain mean weights nothing, so naive reports no fallback counts.
        if config.method != "naive":
            estimates, codes = estimator.estimate(values, mask, rows, targets, guesses)
            tags += np.bincount(codes, minlength=len(Provenance))
        counts += np.bincount(targets, minlength=n)
        for k, guess in enumerate((estimates, baseline)):
            errors = values[rows, targets] - guess
            squares[k] += np.bincount(targets, errors**2, minlength=n)
    with np.errstate(invalid="ignore"):  # 0 / 0: NaN for an unscored sensor
        per_rmse, per_naive = np.sqrt(squares / counts)
    fallback_counts = {p.label: int(tags[p]) for p in Provenance if tags[p]}
    return EvalReport(
        method=config.method,
        kernel=config.kernel,
        r=config.r,
        learning_rate=config.learning_rate,
        setup=setup,
        sensor_ids=panel.sensor_ids,
        rmse=per_rmse,
        naive_rmse=per_naive,
        scored_counts=counts,
        fallback_counts=fallback_counts,
        t_len=panel.t_len,
        complete_row_count=int(panel.complete_rows().sum()),
    )


def sweep(
    panel: Panel,
    configs,
    setups=SETUPS,
    layout: FarmLayout | None = None,
    graph: FarmGraph | None = None,
    within: np.ndarray | None = None,
) -> list[EvalReport]:
    """Evaluate many configurations, best mean improvement first.

    Runs configurations one after another; each run's eigensolves are
    already split across `thread_cap()` workers by the embedding engine.
    The returned ordering is by mean improvement rounded to
    RANK_DECIMALS decimals, ties broken by configuration order, so
    improvements that differ only by rounding keep that order.
    """
    configs = list(configs)
    for setup in setups:
        if setup not in SETUPS:
            raise ConfigError(
                f"unknown setup {setup!r}; choose from {', '.join(SETUPS)}"
            )
    reports = [
        leave_one_out_eval(panel, config, setup, layout, graph, within)
        for config in configs
        for setup in setups
    ]
    order = sorted(
        range(len(reports)),
        key=lambda k: (-round(reports[k].mean_improvement, RANK_DECIMALS), k),
    )
    return [reports[k] for k in order]


# ---------------------------------------------------------------------------
# Synthetic panels and missingness.


@dataclass(frozen=True)
class MissingnessSpec:
    """How to knock observations out of a fully observed panel.

    mechanism "mcar" drops each cell independently with probability
    `rate`.  mechanism "block" starts an outage at each cell with
    probability `rate` and extends it down the sensor's column for a
    geometric number of steps with mean `block_mean`.
    """

    mechanism: str = "mcar"
    rate: float = 0.1
    block_mean: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.mechanism not in ("mcar", "block"):
            raise ConfigError(
                f"unknown missingness mechanism {self.mechanism!r}; "
                "choose from mcar, block"
            )
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError("missingness rate must lie in [0, 1)")
        if not 1.0 <= self.block_mean < np.inf:
            raise ConfigError("mean outage length must be finite and >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def apply_missingness(panel: Panel, spec: MissingnessSpec) -> Panel:
    """Drop cells from a fully observed panel per `spec`, reproducibly.

    Raises:
        InputError: if the panel already has missing cells; holes must
            come from one place so the ground truth stays known.
    """
    if not panel.mask.all():
        raise InputError("missingness is applied to fully observed panels only")
    rng = np.random.default_rng(spec.seed)
    t, n = panel.values.shape
    mask = np.ones((t, n), dtype=bool)
    if spec.mechanism == "mcar":
        mask = rng.random((t, n)) >= spec.rate
    else:
        for col in range(n):
            starts = np.flatnonzero(rng.random(t) < spec.rate)
            if starts.size == 0:
                continue
            lengths = np.minimum(rng.geometric(1.0 / spec.block_mean, size=starts.size), t)
            for start, length in zip(starts, lengths):
                mask[start : start + length, col] = False
    masked = copy.copy(panel)  # still valid with fewer cells: no re-parse of timestamps
    masked.values, masked.mask = np.where(mask, panel.values, np.nan), mask
    return masked


def synth_panel(
    layout: FarmLayout,
    t_len: int,
    spatial_scale: float,
    temporal_persistence: float,
    seed: int = 0,
    driver_scale: float = 1.2,
    noise_scale: float = 0.6,
) -> Panel:
    """Fully observed synthetic farm panel with tunable structure.

    A single farm-wide driver and a spatially correlated disturbance
    field, both first-order autoregressive with the same persistence,
    are squashed through a logistic so readings land in (0, 1).  The
    disturbance covariance decays with squared distance over
    `spatial_scale`, so nearby sensors disagree less than distant ones;
    larger `driver_scale` relative to `noise_scale` makes every sensor a
    better predictor of every other.
    """
    if t_len < 1:
        raise InputError("panel length must be >= 1")
    if layout.n == 0:
        raise InputError("layout has no sensors")
    if not spatial_scale > 0:
        raise ConfigError("spatial scale must be > 0")
    if not 0.0 <= temporal_persistence < 1.0:
        raise ConfigError("temporal persistence must lie in [0, 1)")
    for name, scale in (("driver", driver_scale), ("noise", noise_scale)):
        if not 0.0 <= scale < np.inf:
            raise ConfigError(f"{name} scale must be finite and >= 0")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    n = layout.n
    d = pairwise_distances(layout.positions())
    # Extreme scales saturate, the covariance to I and readings to 0 or 1;
    # a NaN from inf - inf is left for `Panel` to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.exp(-((d / spatial_scale) ** 2))
    phi = temporal_persistence
    innovation = np.sqrt(1.0 - phi**2)
    driver = np.empty(t_len)
    field = np.empty((t_len, n))
    # Every BLAS call here is small: extra BLAS threads only slow it down.
    with single_blas_thread():
        eigenvalues, vectors = np.linalg.eigh(cov)
        factor = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
        driver[0] = rng.standard_normal()
        field[0] = factor @ rng.standard_normal(n)
        for t in range(1, t_len):
            driver[t] = phi * driver[t - 1] + innovation * rng.standard_normal()
            field[t] = phi * field[t - 1] + innovation * (factor @ rng.standard_normal(n))
    with np.errstate(over="ignore", invalid="ignore"):
        signal = driver_scale * driver[:, None] + noise_scale * field
        values = 1.0 / (1.0 + np.exp(-signal))
    # Timestamps 0.0, 1.0, ... increase by construction: only the cells are checked.
    panel = Panel.__new__(Panel)
    panel.timestamps = tuple(str(float(t)) for t in range(t_len))
    panel.sensor_ids, panel.values, panel.mask = layout.ids, values, np.ones((t_len, n), bool)
    panel._check_cells()
    return panel


# ---------------------------------------------------------------------------
# Complexity probe.


@dataclass
class TimingReport:
    """Per-timestep cost of the cheapest and dearest methods by farm size.

    Slopes are log-log fits of cost against sensor count; the
    time-varying graph method pays an eigendecomposition per imputed row
    and should steepen visibly while the plain mean barely moves.
    """

    n_values: tuple[int, ...]
    naive_per_row: tuple[float, ...]
    weighted_per_row: tuple[float, ...]

    def _slope(self, times) -> float:
        return float(
            np.polyfit(np.log(np.asarray(self.n_values, dtype=float)), np.log(times), 1)[0]
        )

    @property
    def naive_slope(self) -> float:
        return self._slope(self.naive_per_row)

    @property
    def weighted_slope(self) -> float:
        return self._slope(self.weighted_per_row)

    def summary(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "naive_per_row_s": list(self.naive_per_row),
            "weighted_per_row_s": list(self.weighted_per_row),
            "naive_slope": self.naive_slope,
            "weighted_slope": self.weighted_slope,
        }


def _timing_layout(n: int) -> FarmLayout:
    side = int(np.ceil(np.sqrt(n)))
    coords = [(i % side, i // side) for i in range(n)]
    sensors = [
        (f"t{k:02d}", float(x), float(y), 1.0) for k, (x, y) in enumerate(coords)
    ]
    from .graph import Sensor

    return FarmLayout(tuple(Sensor(*s) for s in sensors))


def complexity_smoke(
    n_values=(10, 20, 40), t_len: int = 200, seed: int = 0, repeats: int = 3
) -> TimingReport:
    """Time the plain mean and the time-varying graph method by farm size.

    Each panel has exactly one missing sensor per row (rotating), so the
    weighted method pays one full-farm embedding per row.  The best of
    `repeats` runs is kept to damp scheduler noise.
    """
    from .estimators import impute_naive, impute_weighted_graph

    naive_times = []
    weighted_times = []
    for n in n_values:
        layout = _timing_layout(n)
        graph = build_graph(layout, propose_grid_edges(layout, "king"))
        full = synth_panel(layout, t_len, spatial_scale=1.5, temporal_persistence=0.6, seed=seed)
        values = full.values.copy()
        mask = np.ones_like(full.mask)
        cols = np.arange(t_len) % n
        mask[np.arange(t_len), cols] = False
        values[~mask] = np.nan
        panel = Panel(full.timestamps, full.sensor_ids, values, mask)

        best_naive = min(
            _timed(lambda: impute_naive(panel)) for _ in range(repeats)
        )
        best_weighted = min(
            _timed(lambda: impute_weighted_graph(panel, graph)) for _ in range(repeats)
        )
        naive_times.append(best_naive / t_len)
        weighted_times.append(best_weighted / t_len)
    return TimingReport(tuple(n_values), tuple(naive_times), tuple(weighted_times))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
