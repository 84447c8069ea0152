import copy
import math

import numpy as np
import pytest

from spectral_imputer import estimators, spectral
from spectral_imputer.errors import ConfigError, InputError
from spectral_imputer.estimators import (
    EstimatorConfig,
    Panel,
    Provenance,
    _WeightedRowImputer,
    impute_naive,
    impute_sampling,
    impute_weighted_graph,
    revealed_similarity_rows,
    run_estimator,
    static_embedding_distances,
)
from spectral_imputer.graph import build_graph
from spectral_imputer.kernels import WeightVector
from spectral_imputer.online import SimilarityTracker

from conftest import chain_graph, make_layout, random_connected_graph
from oracles import oracle_impute_cell


def make_panel(rows, ids):
    ts = [str(k) for k in range(len(rows))]
    return Panel.from_values(ts, ids, np.array(rows, dtype=float))


@pytest.fixture
def line3():
    layout = make_layout([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)])
    return layout, chain_graph(layout)


def random_masked_panel(rng, n, t_len, p_missing=0.2):
    values = rng.random((t_len, n))
    gone = rng.random((t_len, n)) < p_missing
    values[gone] = np.nan
    ids = [f"s{k:02d}" for k in range(n)]
    return make_panel(values, ids)


class TestPanel:
    def test_mask_inferred_from_nan(self):
        p = make_panel([[0.1, np.nan], [0.2, 0.3]], ["s00", "s01"])
        assert p.mask.tolist() == [[True, False], [True, True]]
        assert p.complete_rows().tolist() == [False, True]

    def test_rejects_out_of_range_values(self):
        with pytest.raises(InputError):
            make_panel([[1.2, 0.0]], ["a", "b"])
        with pytest.raises(InputError):
            make_panel([[-0.1, 0.0]], ["a", "b"])

    def test_rejects_unordered_timestamps(self):
        with pytest.raises(InputError):
            Panel.from_values(["2", "1"], ["a"], np.array([[0.1], [0.2]]))
        with pytest.raises(InputError):
            Panel.from_values(["1", "1"], ["a"], np.array([[0.1], [0.2]]))

    def test_iso_timestamps_accepted(self):
        p = Panel.from_values(
            ["2016-01-01T00:00", "2016-01-01T00:10"],
            ["a"],
            np.array([[0.1], [0.2]]),
        )
        assert p.t_len == 2
        with pytest.raises(InputError):
            Panel.from_values(
                ["2016-01-01T00:10", "2016-01-01T00:00"],
                ["a"],
                np.array([[0.1], [0.2]]),
            )

    def test_rejects_value_under_mask(self):
        with pytest.raises(InputError):
            Panel(
                ("0",),
                ("a", "b"),
                np.array([[0.1, 0.2]]),
                np.array([[True, False]]),
            )


class TestNaive:
    def test_row_mean_of_observed(self):
        p = make_panel([[0.2, np.nan, 0.6]], ["a", "b", "c"])
        res = impute_naive(p)
        assert res.filled[0, 1] == pytest.approx(0.4, abs=1e-15)
        assert res.provenance[0, 1] == int(Provenance.WEIGHTED_KNN)

    def test_observed_cells_untouched(self):
        p = make_panel([[0.2, np.nan, 0.6]], ["a", "b", "c"])
        res = impute_naive(p)
        assert res.filled[0, 0] == 0.2
        assert res.provenance[0, 0] == int(Provenance.OBSERVED)

    def test_empty_row_unimputable(self):
        p = make_panel(
            [[np.nan, np.nan], [0.5, 0.5]], ["a", "b"]
        )
        res = impute_naive(p)
        assert np.isnan(res.filled[0]).all()
        assert (res.provenance[0] == int(Provenance.UNIMPUTABLE)).all()

    def test_single_neighbor_copies(self):
        p = make_panel([[np.nan, 0.7]], ["a", "b"])
        res = impute_naive(p)
        assert res.filled[0, 0] == pytest.approx(0.7, abs=1e-15)


class TestLocation:
    def test_triangular_takes_nearest_neighbor(self, line3):
        layout, _ = line3
        p = make_panel([[np.nan, 0.3, 0.8]], layout.ids)
        res = run_estimator(p, EstimatorConfig("location", "triangular"), layout=layout)
        # Distances (1, 2) scale to (0.5, 1): all weight on the nearer.
        assert res.filled[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_equidistant_neighbors_fall_back_uniform(self, line3):
        layout, _ = line3
        p = make_panel([[0.2, np.nan, 0.6]], layout.ids)
        res = run_estimator(p, EstimatorConfig("location", "triweight"), layout=layout)
        assert res.filled[0, 1] == pytest.approx(0.4, abs=1e-15)
        assert res.provenance[0, 1] == int(Provenance.UNIFORM_FALLBACK)

    def test_gaussian_matches_direct_formula(self, line3):
        layout, _ = line3
        p = make_panel([[np.nan, 0.3, 0.8]], layout.ids)
        res = run_estimator(p, EstimatorConfig("location", "gaussian"), layout=layout)
        k1, k2 = math.exp(-0.25), math.exp(-1.0)
        expected = (k1 * 0.3 + k2 * 0.8) / (k1 + k2)
        assert res.filled[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_naive_kernel_reduces_to_plain_mean(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            layout = make_layout(rng.random((n, 2)) * 3)
            p = random_masked_panel(rng, n, int(rng.integers(2, 20)))
            a = run_estimator(p, EstimatorConfig("location", "naive"), layout=layout)
            b = impute_naive(p)
            both = np.isfinite(a.filled) & np.isfinite(b.filled)
            assert np.allclose(a.filled[both], b.filled[both], atol=1e-12)
            assert np.isnan(a.filled).sum() == np.isnan(b.filled).sum()

    def test_alignment_checked(self, line3):
        layout, _ = line3
        p = make_panel([[0.1, 0.2, 0.3]], ["x", "y", "z"])
        with pytest.raises(InputError):
            run_estimator(p, EstimatorConfig("location"), layout=layout)


class TestUnweightedGraph:
    def test_triangular_takes_nearest_by_embedding(self, line3):
        layout, graph = line3
        p = make_panel([[np.nan, 0.3, 0.8]], layout.ids)
        cfg = EstimatorConfig("unweighted_graph", "triangular", 1)
        res = run_estimator(p, cfg, graph=graph)
        # Embedding distances from the end node are (1, 2) up to scale.
        assert res.filled[0, 0] == pytest.approx(0.3, abs=1e-12)

    def test_naive_kernel_reduces_to_plain_mean(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            layout = make_layout(rng.random((n, 2)) * 3)
            graph = random_connected_graph(rng, layout, extra_edges=2)
            p = random_masked_panel(rng, n, int(rng.integers(2, 20)))
            cfg = EstimatorConfig("unweighted_graph", "naive", 2)
            a = run_estimator(p, cfg, graph=graph)
            b = impute_naive(p)
            both = np.isfinite(a.filled) & np.isfinite(b.filled)
            assert np.allclose(a.filled[both], b.filled[both], atol=1e-12)

    def test_disconnected_graph_rejected(self):
        layout = make_layout([(0, 0), (0, 1), (0, 2), (9, 9)])
        graph = build_graph(
            layout, [("s00", "s01"), ("s01", "s02")]
        )
        p = make_panel([[0.1, 0.2, 0.3, 0.4]], layout.ids)
        with pytest.raises(ConfigError):
            run_estimator(p, EstimatorConfig("unweighted_graph"), graph=graph)
        with pytest.raises(ConfigError):
            static_embedding_distances(graph, 1)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            n = int(rng.integers(4, 7))
            layout = make_layout(rng.random((n, 2)) * 2)
            graph = random_connected_graph(rng, layout, extra_edges=2)
            values = rng.random((6, n))
            t, col = int(rng.integers(6)), int(rng.integers(n))
            values[t, col] = np.nan
            p = make_panel(values, layout.ids)
            cfg = EstimatorConfig("unweighted_graph", "triweight", 2)
            res = run_estimator(p, cfg, graph=graph)
            expected = oracle_impute_cell(
                "unweighted_graph",
                p.values,
                p.mask,
                t,
                col,
                layout.positions(),
                list(graph.edges),
                kind="triweight",
                r=2,
            )
            assert res.filled[t, col] == pytest.approx(expected, abs=1e-10)


class TestWeightedGraph:
    def test_constant_rows_reduce_to_unweighted(self):
        # Identical readings per row keep every similarity at exactly 1,
        # so the per-step graph never differs from the fixed one.
        rng = np.random.default_rng(3)
        layout = make_layout(rng.random((5, 2)))
        graph = random_connected_graph(rng, layout, extra_edges=3)
        values = np.repeat(rng.random((12, 1)), 5, axis=1)
        values[rng.random((12, 5)) < 0.3] = np.nan
        p = make_panel(values, layout.ids)
        res_w, _ = impute_weighted_graph(p, graph, kind="triweight", r=2)
        cfg = EstimatorConfig("unweighted_graph", "triweight", 2)
        res_u = run_estimator(p, cfg, graph=graph)
        both = np.isfinite(res_w.filled) & np.isfinite(res_u.filled)
        assert np.allclose(res_w.filled[both], res_u.filled[both], atol=1e-10)

    def test_guess_used_for_hidden_edge_and_updated_after(self, line3):
        layout, graph = line3
        p = make_panel(
            [[0.2, 0.3, 0.8], [np.nan, 0.3, 0.8]], layout.ids
        )
        res, tracker = impute_weighted_graph(p, graph, kind="triweight", r=2)
        # After row 0 (rate 0.5): guesses equal the revealed sims (0.9, 0.5).
        # Row 1 reveals only the far edge; the hidden edge keeps its guess.
        assert tracker.s_hat.tolist() == [0.9, 0.5]
        assert tracker.revealed_count.tolist() == [1, 2]
        expected = oracle_impute_cell(
            "weighted_graph",
            p.values,
            p.mask,
            1,
            0,
            layout.positions(),
            list(graph.edges),
            kind="triweight",
            r=2,
        )
        assert res.filled[1, 0] == pytest.approx(expected, abs=1e-10)
        assert res.provenance[1, 0] == int(Provenance.WEIGHTED_KNN)

    def test_zero_similarity_splits_off_pair_copy(self):
        layout = make_layout([(0, k) for k in range(4)])
        graph = chain_graph(layout)
        # Middle edge similarity is exactly 0 and is dropped; the far pair
        # keeps one observed member whose value is copied.
        p = make_panel([[0.5, 1.0, 0.0, np.nan]], layout.ids)
        res, _ = impute_weighted_graph(p, graph, kind="triweight", r=2)
        assert res.filled[0, 3] == pytest.approx(0.0, abs=1e-15)
        assert res.provenance[0, 3] == int(Provenance.SMALL_COMPONENT_COPY)

    def test_isolated_sensor_uses_static_fallback(self, line3):
        layout, graph = line3
        # Row 0 trains the near edge's guess to 0; row 1 hides that
        # sensor, so its only edge is dropped and it sits alone.
        p = make_panel(
            [[1.0, 0.0, 0.0], [np.nan, 0.4, 0.4]], layout.ids
        )
        res, tracker = impute_weighted_graph(p, graph, kind="triangular", r=1)
        assert tracker.edge_ids[0] == ("s00", "s01") and tracker.guesses[0] == 0.0
        assert res.filled[1, 0] == pytest.approx(0.4, abs=1e-12)
        assert res.provenance[1, 0] == int(Provenance.STATIC_GRAPH_FALLBACK)

    def test_fully_missing_row_unimputable(self, line3):
        layout, graph = line3
        p = make_panel(
            [[0.2, 0.3, 0.4], [np.nan, np.nan, np.nan]], layout.ids
        )
        res, _ = impute_weighted_graph(p, graph)
        assert np.isnan(res.filled[1]).all()
        assert (res.provenance[1] == int(Provenance.UNIMPUTABLE)).all()

    def test_tracker_continuity_across_split_runs(self):
        rng = np.random.default_rng(5)
        layout = make_layout(rng.random((5, 2)))
        graph = random_connected_graph(rng, layout, extra_edges=2)
        p = random_masked_panel(rng, 5, 20)
        res_full, _ = impute_weighted_graph(p, graph, kind="triweight", r=2)
        first = make_panel(p.values[:10], layout.ids)
        second = make_panel(p.values[10:], layout.ids)
        tracker = SimilarityTracker.for_graph(graph, eta=0.5)
        res_a, tracker = impute_weighted_graph(
            first, graph, kind="triweight", r=2, tracker=tracker
        )
        res_b, _ = impute_weighted_graph(
            second, graph, kind="triweight", r=2, tracker=tracker
        )
        resumed = np.vstack([res_a.filled, res_b.filled])
        both = np.isfinite(res_full.filled) & np.isfinite(resumed)
        assert np.array_equal(res_full.filled[both], resumed[both])

    def test_matches_independent_oracle_on_random_panels(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            n = int(rng.integers(4, 7))
            layout = make_layout(rng.random((n, 2)) * 2)
            graph = random_connected_graph(rng, layout, extra_edges=2)
            values = rng.random((int(rng.integers(3, 12)), n))
            t = int(rng.integers(values.shape[0]))
            col = int(rng.integers(n))
            values[t, col] = np.nan
            p = make_panel(values, layout.ids)
            res, _ = impute_weighted_graph(p, graph, kind="triweight", r=2)
            expected = oracle_impute_cell(
                "weighted_graph",
                p.values,
                p.mask,
                t,
                col,
                layout.positions(),
                list(graph.edges),
                kind="triweight",
                r=2,
            )
            assert res.filled[t, col] == pytest.approx(expected, abs=1e-10)

    def test_mismatched_tracker_rejected(self, line3):
        layout, graph = line3
        p = make_panel([[0.1, 0.2, 0.3]], layout.ids)
        stranger = SimilarityTracker([("x", "y")])
        with pytest.raises(InputError):
            impute_weighted_graph(p, graph, tracker=stranger)


def row_by_row_weighted(panel, graph, kind, r, tracker):
    """Streaming reference: one `impute_row` and one tracker update per row."""
    worker = _WeightedRowImputer(graph, kind, r, 1e-12)
    revealed = revealed_similarity_rows(panel, graph)
    filled = panel.values.copy()
    provenance = np.zeros(panel.values.shape, dtype=np.int8)
    for t in range(panel.t_len):
        miss = ~panel.mask[t]
        if miss.any():
            weights = np.where(np.isnan(revealed[t]), tracker.s_hat, revealed[t])
            estimates, codes = worker.impute_row(panel.values[t], panel.mask[t], weights)
            filled[t, miss] = estimates[miss]
            provenance[t, miss] = codes[miss]
        tracker.update(revealed[t])
    return filled, provenance


TRACKER_STATE = ("y", "s_hat", "cumulative_loss", "revealed_count", "running_sum_revealed")


class TestWeightedEngineAgreement:
    """The replay-then-batch imputer against the row-by-row reference."""

    def check(self, panel, graph, kind="triweight", r=2, tracker=None):
        if tracker is None:
            tracker = SimilarityTracker.for_graph(graph, eta=0.5)
        ref_tracker = copy.deepcopy(tracker)
        res, tracker = impute_weighted_graph(panel, graph, kind=kind, r=r, tracker=tracker)
        filled, provenance = row_by_row_weighted(panel, graph, kind, r, ref_tracker)
        assert np.array_equal(res.provenance, provenance)
        assert np.array_equal(np.isnan(res.filled), np.isnan(filled))
        both = ~np.isnan(filled)
        assert np.abs(res.filled[both] - filled[both]).max() <= 1e-10
        for name in TRACKER_STATE:
            assert np.array_equal(getattr(tracker, name), getattr(ref_tracker, name))
        return res

    def test_several_holes_per_row(self):
        rng = np.random.default_rng(61)
        layout = make_layout(rng.random((7, 2)) * 3)
        graph = random_connected_graph(rng, layout, extra_edges=5)
        panel = random_masked_panel(rng, 7, 40, p_missing=0.35)
        assert (np.sum(~panel.mask, axis=1) >= 2).sum() > 10
        for kind, r in (("triweight", 2), ("gaussian", 1), ("tricube", 3)):
            self.check(panel, graph, kind, r)

    def test_zero_similarity_row_splits_the_graph(self):
        layout = make_layout([(0, k) for k in range(5)])
        graph = chain_graph(layout)
        # Row 1 reveals similarity 0 on edge s02-s03; row 2 hides s02, so
        # the edge rides on a guess of 0, drops out, and leaves s03-s04
        # as a pair.
        panel = make_panel(
            [
                [0.3, 0.4, 0.5, 0.6, 0.7],
                [0.5, 0.5, 0.0, 1.0, 0.9],
                [0.4, 0.5, np.nan, 0.8, np.nan],
                [0.2, np.nan, 0.3, 0.4, 0.5],
            ],
            layout.ids,
        )
        res = self.check(panel, graph)
        assert res.provenance[2, 4] == int(Provenance.SMALL_COMPONENT_COPY)

    def test_fully_missing_row(self):
        rng = np.random.default_rng(62)
        layout = make_layout(rng.random((5, 2)))
        graph = random_connected_graph(rng, layout, extra_edges=2)
        panel = random_masked_panel(rng, 5, 12)
        values = panel.values.copy()
        values[4] = np.nan
        res = self.check(make_panel(values, layout.ids), graph)
        assert (res.provenance[4] == int(Provenance.UNIMPUTABLE)).all()

    def test_resumed_tracker_ends_bit_identical(self):
        rng = np.random.default_rng(63)
        layout = make_layout(rng.random((6, 2)) * 2)
        graph = random_connected_graph(rng, layout, extra_edges=4)
        panel = random_masked_panel(rng, 6, 30, p_missing=0.25)
        tracker = SimilarityTracker.for_graph(graph, eta=0.3)
        tracker.replay(revealed_similarity_rows(random_masked_panel(rng, 6, 15), graph))
        self.check(panel, graph, tracker=tracker)

    def test_two_sensor_farm(self):
        layout = make_layout([(0, 0), (0, 1)])
        graph = chain_graph(layout)
        panel = make_panel(
            [[0.2, 0.4], [np.nan, 0.5], [0.6, np.nan], [np.nan, np.nan]], layout.ids
        )
        res = self.check(panel, graph)
        assert res.provenance[1, 0] == int(Provenance.SMALL_COMPONENT_COPY)

    def test_farm_above_dense_solver_max(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX", 5)
        rng = np.random.default_rng(64)
        layout = make_layout(rng.random((8, 2)) * 3)
        graph = random_connected_graph(rng, layout, extra_edges=6)
        self.check(random_masked_panel(rng, 8, 15), graph)

    def test_large_farm_rows_skip_the_per_row_path(self, monkeypatch):
        # Above DENSE_SOLVER_MAX a row whose edges are all live still
        # shares the batched route; only the solver inside changes.
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX", 5)
        calls = []
        impute_row = _WeightedRowImputer.impute_row

        def spy(worker, *args):
            calls.append(args)
            return impute_row(worker, *args)

        monkeypatch.setattr(_WeightedRowImputer, "impute_row", spy)
        rng = np.random.default_rng(66)
        layout = make_layout(rng.random((8, 2)) * 3)
        graph = random_connected_graph(rng, layout, extra_edges=6)
        panel = random_masked_panel(rng, 8, 15)
        res, _ = impute_weighted_graph(panel, graph)
        assert calls == []
        assert (res.provenance == int(Provenance.WEIGHTED_KNN)).sum() > 5

    def test_more_holed_rows_than_one_batch(self, monkeypatch):
        n = 6
        monkeypatch.setattr(spectral, "BATCH_BYTES", 7 * 8 * n * n)
        assert spectral.batch_rows(n) == 7
        rng = np.random.default_rng(65)
        layout = make_layout(rng.random((n, 2)) * 2)
        graph = random_connected_graph(rng, layout, extra_edges=3)
        values = random_masked_panel(rng, n, 50, p_missing=0.3).values
        # Similarity 0 revealed on one edge, then one endpoint hidden: row
        # 21 drops that edge and takes the per-component path mid-batch.
        a, b = graph.edges[0]
        values[20, [a, b]] = (0.0, 1.0)
        values[21, a] = np.nan
        res = self.check(make_panel(values, layout.ids), graph)
        assert (res.provenance == int(Provenance.WEIGHTED_KNN)).sum() > 7


    def test_edge_similarities_built_once_per_block(self, monkeypatch):
        # The replay's similarities, with the guesses filled in, are the
        # block's edge weights: built once, and bit-identical to weights
        # the estimator forms itself from the guesses.
        n = 6
        monkeypatch.setattr(spectral, "BATCH_BYTES", 7 * 8 * n * n)
        blocks = -(-50 // (7 * estimators._DENSE_BLOCK_BATCHES))
        rng = np.random.default_rng(67)
        layout = make_layout(rng.random((n, 2)) * 2)
        graph = random_connected_graph(rng, layout, extra_edges=3)
        panel = random_masked_panel(rng, n, 50, p_missing=0.3)
        built = []
        similarities = estimators._edge_similarities

        def counted(*args):
            built.append(args[0].shape[0])
            return similarities(*args)

        monkeypatch.setattr(estimators, "_edge_similarities", counted)
        res, tracker = impute_weighted_graph(panel, graph)
        assert len(built) == blocks and sum(built) == 50
        estimate = _WeightedRowImputer.estimate

        def rebuilt(worker, values, obs, rows, targets, guesses, weights=None):
            return estimate(worker, values, obs, rows, targets, guesses)

        monkeypatch.setattr(_WeightedRowImputer, "estimate", rebuilt)
        again, again_tracker = impute_weighted_graph(panel, graph)
        assert np.array_equal(res.filled, again.filled, equal_nan=True)
        assert np.array_equal(res.provenance, again.provenance)
        for name in TRACKER_STATE:
            assert np.array_equal(getattr(tracker, name), getattr(again_tracker, name))


class TestSampling:
    def test_deterministic_given_seed(self):
        wv = WeightVector({"a": 0.3, "b": 0.7}, False)
        obs = {"a": 0.1, "b": 0.9}
        first = impute_sampling(wv, obs, seed=123)
        assert first in (0.1, 0.9)
        for _ in range(5):
            assert impute_sampling(wv, obs, seed=123) == first

    def test_degenerate_weight_always_chosen(self):
        wv = WeightVector({"a": 1.0, "b": 0.0}, False)
        obs = {"a": 0.4, "b": 0.9}
        for seed in range(20):
            assert impute_sampling(wv, obs, seed=seed) == 0.4

    def test_id_mismatch_rejected(self):
        wv = WeightVector({"a": 1.0}, False)
        with pytest.raises(InputError):
            impute_sampling(wv, {"b": 0.4}, seed=0)


class TestRunEstimator:
    def test_dispatch_all_methods(self, line3):
        layout, graph = line3
        p = make_panel([[np.nan, 0.3, 0.8], [0.2, 0.4, 0.9]], layout.ids)
        for method in ("naive", "location", "unweighted_graph", "weighted_graph"):
            cfg = EstimatorConfig(method=method, kernel="triweight", r=1)
            res = run_estimator(p, cfg, layout=layout, graph=graph)
            assert np.isfinite(res.filled[0, 0])

    def test_missing_dependencies_rejected(self, line3):
        layout, graph = line3
        p = make_panel([[0.1, 0.2, 0.3]], layout.ids)
        with pytest.raises(ConfigError):
            run_estimator(p, EstimatorConfig(method="location"))
        with pytest.raises(ConfigError):
            run_estimator(p, EstimatorConfig(method="weighted_graph"))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(method="psychic")
        with pytest.raises(ConfigError):
            EstimatorConfig(method="naive", kernel="boxcar")
        with pytest.raises(ConfigError):
            EstimatorConfig(method="naive", r=0)
        with pytest.raises(ConfigError):
            EstimatorConfig(method="naive", learning_rate=0.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(method="naive", weight_floor=-1.0)
