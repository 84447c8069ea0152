import numpy as np
import pytest

from spectral_imputer.errors import InputError
from spectral_imputer.online import (
    ETA_MAX,
    SimilarityTracker,
    regret_curve,
    track_sequence,
)

from oracles import TRACKER_STATE, UndefinedBaselineError, best_constant, regret
from oracles import tracker_rounds


def one_edge_tracker(eta, s_hat=None):
    tracker = SimilarityTracker([("a", "b")], eta=eta)
    if s_hat is not None:
        tracker.y[:] = s_hat
        tracker.s_hat[:] = s_hat
    return tracker


def step(tracker, revealed):
    """One online round: `replay` of a one-row block; returns its losses."""
    return tracker.replay(np.asarray(revealed, dtype=float)[None])[1][0]


class TestTrackerUpdates:
    def test_initial_state_is_one(self):
        tracker = one_edge_tracker(0.5)
        assert tracker.s_hat[0] == 1.0
        assert tracker.y[0] == 1.0

    def test_worked_update(self):
        # From guess 0.6, revealed 0.9 at rate 0.1: y moves by
        # 2*0.1*0.3 = 0.06.
        tracker = one_edge_tracker(0.1, s_hat=0.6)
        losses = step(tracker, [0.9])
        assert tracker.y[0] == pytest.approx(0.66, abs=1e-15)
        assert tracker.s_hat[0] == pytest.approx(0.66, abs=1e-15)
        assert losses[0] == pytest.approx(0.09, abs=1e-15)

    def test_projection_keeps_guess_in_range_but_not_state(self):
        # Oversized rate: y = 0.1 + 2*5*0.9 = 9.1, guess clamps to 1.
        tracker = one_edge_tracker(5.0, s_hat=0.1)
        step(tracker, [1.0])
        assert tracker.y[0] == pytest.approx(9.1, abs=1e-12)
        assert tracker.s_hat[0] == 1.0
        # A missing round leaves the diverged state carried as is.
        step(tracker, [np.nan])
        assert tracker.y[0] == pytest.approx(9.1, abs=1e-12)

    def test_missing_round_changes_nothing(self):
        tracker = one_edge_tracker(0.5, s_hat=0.4)
        tracker.cumulative_loss[:] = 0.7
        tracker.revealed_count[:] = 3
        tracker.running_sum_revealed[:] = 1.2
        losses = step(tracker, [None])
        assert losses[0] == 0.0
        assert tracker.s_hat[0] == 0.4
        assert tracker.y[0] == 0.4
        assert tracker.cumulative_loss[0] == 0.7
        assert tracker.revealed_count[0] == 3
        assert tracker.running_sum_revealed[0] == 1.2

    def test_half_rate_is_exact_persistence(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            tracker = one_edge_tracker(0.5)
            last = None
            for _ in range(60):
                if rng.random() < 0.3:
                    step(tracker, [np.nan])
                else:
                    s = float(rng.random())
                    step(tracker, [s])
                    last = s
                if last is not None:
                    assert tracker.s_hat[0] == last  # bitwise equal

    def test_step_magnitude_bounded_by_twice_eta(self):
        # Gradient magnitude never exceeds 2 on [0, 1] data.
        rng = np.random.default_rng(8)
        tracker = one_edge_tracker(0.37)
        for _ in range(200):
            before = tracker.y[0]
            step(tracker, [float(rng.random())])
            assert abs(tracker.y[0] - before) <= 2 * 0.37 + 1e-15

    def test_rejects_out_of_range_and_bad_shape(self):
        tracker = one_edge_tracker(0.5)
        with pytest.raises(InputError):
            step(tracker, [1.2])
        with pytest.raises(InputError):
            step(tracker, [-0.1])
        with pytest.raises(InputError):
            step(tracker, [0.5, 0.5])
        with pytest.raises(InputError):
            SimilarityTracker([("a", "b")], eta=0.0)

    def test_largest_learning_rate_keeps_the_state_finite(self):
        tracker = SimilarityTracker([("a", "b"), ("b", "c")], eta=ETA_MAX)
        for revealed in ([0.0, 1.0], [1.0, 0.0], [0.0, np.nan], [1.0, 1.0]):
            step(tracker, revealed)
            assert np.isfinite(tracker.y).all()
        for eta in (np.nextafter(ETA_MAX, np.inf), np.inf, np.nan, [0.5, np.inf]):
            with pytest.raises(InputError, match="finite"):
                SimilarityTracker([("a", "b"), ("b", "c")], eta=eta)

    def test_batched_lanes_match_single_edges(self):
        rng = np.random.default_rng(4)
        sims = rng.random((40, 3))
        sims[rng.random((40, 3)) < 0.3] = np.nan
        guesses, losses = track_sequence(sims, eta=0.2)
        for lane in range(3):
            g1, l1 = track_sequence(sims[:, lane], eta=0.2)
            assert np.array_equal(g1[:, 0], guesses[:, lane], equal_nan=True)
            assert np.array_equal(l1[:, 0], losses[:, lane], equal_nan=True)

    def test_replay_matches_round_loop_bit_for_bit(self):
        # One whole block, random splits of it into blocks (as checkpoints
        # slice a run), and one row per call all match the loop.
        rng = np.random.default_rng(8)
        sims = rng.random((60, 5))
        sims[rng.random((60, 5)) < 0.4] = np.nan
        # Rates above 0.5 overshoot, and the largest leave [0, 1].
        eta = np.array([0.05, 0.3, 0.5, 0.9, 4.0])
        guesses, losses, state = tracker_rounds(sims, eta)
        splits = [[0, 60]] + [
            [0, *np.sort(rng.choice(np.arange(1, 60), k, replace=False)), 60]
            for k in (1, 3, 12)
        ] + [list(range(61))]
        for bounds in splits:
            tracker = SimilarityTracker([("a", str(k)) for k in range(5)], eta=eta)
            pieces = [tracker.replay(sims[a:b]) for a, b in zip(bounds, bounds[1:])]
            got_guesses, got_losses = map(np.concatenate, zip(*pieces))
            assert np.array_equal(got_guesses, guesses)
            assert np.array_equal(got_losses, losses)
            for name in TRACKER_STATE:
                assert np.array_equal(getattr(tracker, name), state[name])

    def test_replay_rejects_bad_blocks_without_moving(self):
        tracker = SimilarityTracker([("a", "b"), ("b", "c")], eta=0.5)
        for bad in ([0.5, 0.5], [[0.5, 0.5, 0.5]], [[0.5, 0.5], [0.5, 1.5]]):
            with pytest.raises(InputError):
                tracker.replay(bad)
        assert tracker.revealed_count.tolist() == [0, 0]
        assert tracker.replay(np.empty((0, 2)))[0].shape == (0, 2)

    def test_edge_state_snapshot(self):
        tracker = SimilarityTracker([("a", "b"), ("b", "c")], eta=0.5)
        step(tracker, [0.2, np.nan])
        assert tracker.edge_ids == (("a", "b"), ("b", "c"))
        assert tracker.s_hat == pytest.approx([0.2, 1.0])
        assert tracker.revealed_count.tolist() == [1, 0]
        assert tracker.running_sum_revealed == pytest.approx([0.2, 0.0])


class TestBaselines:
    def test_best_constant_is_revealed_mean(self):
        assert best_constant([0.2, None, 0.4]) == pytest.approx(0.3, abs=1e-15)

    def test_best_constant_undefined_without_data(self):
        with pytest.raises(UndefinedBaselineError):
            best_constant([None, np.nan])

    def test_regret_hand_case(self):
        # History (0, 1): best constant 0.5 pays 0.5 total.
        value = regret([0.5, 0.5], [0.0, 1.0])
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_regret_can_be_negative(self):
        assert regret([0.0, 0.0], [0.0, 1.0]) == pytest.approx(-0.5)

    def test_regret_stays_under_tuned_bound(self):
        # Small-scale version of the sqrt(T) guarantee; the acceptance
        # suite runs the large one.
        rng = np.random.default_rng(17)
        for _ in range(50):
            t_len = int(rng.integers(50, 500))
            sims = rng.random(t_len)
            sims[rng.random(t_len) < 0.2] = np.nan
            t_rev = int(np.sum(~np.isnan(sims)))
            if t_rev == 0:
                continue
            eta = 1.0 / (2.0 * np.sqrt(t_rev))
            _, losses = track_sequence(sims, eta)
            r = regret(losses[:, 0], sims)
            assert r <= 1.5 * np.sqrt(t_rev)


class TestRegretCurve:
    def test_hand_checked_two_rounds(self):
        # eta=0.5, history (0, 1): losses are 1 and 1; prefix-best pays 0
        # then 0.5.
        curve = regret_curve([0.0, 1.0], eta=0.5)
        assert np.array_equal(curve.t, [1, 2])
        assert np.allclose(curve.algorithm_loss, [1.0, 2.0], atol=1e-15)
        assert np.allclose(curve.best_constant_loss, [0.0, 0.5], atol=1e-15)
        assert np.allclose(curve.regret, [1.0, 1.5], atol=1e-15)

    def test_final_point_matches_scalar_regret(self):
        rng = np.random.default_rng(6)
        sims = rng.random(200)
        sims[rng.random(200) < 0.25] = np.nan
        curve = regret_curve(sims, eta=0.3)
        _, losses = track_sequence(sims, eta=0.3)
        assert curve.regret[-1] == pytest.approx(
            regret(losses[:, 0], sims), abs=1e-10
        )

    def test_resumed_tracker_continues_the_run(self):
        rng = np.random.default_rng(14)
        sims = rng.random((80, 3))
        sims[rng.random((80, 3)) < 0.3] = np.nan
        _, losses = track_sequence(sims, eta=0.4)
        tracker = SimilarityTracker([("x", str(k)) for k in range(3)], eta=0.4)
        tracker.replay(sims[:50])
        curve = regret_curve(sims[50:], tracker=tracker)
        assert np.array_equal(curve.algorithm_loss, np.cumsum(losses[50:].sum(axis=1)))
        assert tracker.revealed_count.tolist() == (~np.isnan(sims)).sum(axis=0).tolist()

    def test_sums_over_edges(self):
        rng = np.random.default_rng(13)
        sims = rng.random((100, 4))
        curve = regret_curve(sims, eta=0.5)
        total = sum(
            regret_curve(sims[:, k], eta=0.5).regret[-1] for k in range(4)
        )
        assert curve.regret[-1] == pytest.approx(total, abs=1e-10)
