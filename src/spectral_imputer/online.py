"""Online tracking of per-edge similarities under partial feedback.

Each tracked edge plays a guess s_hat in [0, 1], pays squared error against
the revealed similarity when there is one, and moves its state by a
gradient step.  The carried state y is the pre-projection iterate: the
gradient is taken at the projected guess, but the step is applied to y
itself, so with a large learning rate y can leave [0, 1] while the played
guess stays clamped.  Rounds without a revealed value leave the state
untouched.

With learning_rate 0.5 the update lands exactly on the revealed value, so
the tracker degenerates to last-value persistence; 1/(2 sqrt(count)) is
the rate tuned to a known number of revealed rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Largest learning rate whose state bound 1 + 2 eta is a finite float.
ETA_MAX = np.finfo(float).max / 2
ETA_ERROR = f"learning rate must be finite, in (0, {ETA_MAX:.4g}]"


def _as_similarities(values, n, ndim):
    r = np.asarray(values, dtype=float)
    if r.ndim != ndim or r.shape[-1] != n:
        raise InputError(
            f"expected {n} similarity entries per round, got shape {r.shape}"
        )
    missing = np.isnan(r)
    present = r[~missing]
    if np.any(~np.isfinite(present)) or np.any(present < 0) or np.any(present > 1):
        raise InputError("revealed similarities must lie in [0, 1]")
    return r, ~missing


class SimilarityTracker:
    """Tracks one similarity guess per edge of a fixed edge set.

    Args:
        edge_ids: (from_id, to_id) pairs; order fixes the lane layout that
            `update` rows and checkpoints use.
        eta: learning rate, scalar in (0, ETA_MAX], or one rate per edge.
    """

    def __init__(self, edge_ids, eta=0.5):
        self.edge_ids = tuple((str(a), str(b)) for a, b in edge_ids)
        n = len(self.edge_ids)
        eta_arr = np.broadcast_to(np.asarray(eta, dtype=float), (n,)).copy()
        # The state stays within [-2 eta, 1 + 2 eta]; NaN fails both tests.
        if not np.all((eta_arr > 0) & (eta_arr <= ETA_MAX)):
            raise InputError(ETA_ERROR)
        self.eta = eta_arr
        self._twice_eta = 2.0 * eta_arr
        self.y = np.ones(n)
        self.s_hat = np.ones(n)
        self.cumulative_loss = np.zeros(n)
        self.revealed_count = np.zeros(n, dtype=np.int64)
        self.running_sum_revealed = np.zeros(n)

    @classmethod
    def for_graph(cls, graph, eta=0.5):
        return cls(graph.edge_ids, eta=eta)

    @property
    def edge_count(self) -> int:
        return len(self.edge_ids)

    @property
    def guesses(self) -> np.ndarray:
        """Current played guesses, one per edge."""
        return self.s_hat.copy()

    def update(self, revealed) -> np.ndarray:
        """Pay losses for one round, then take the gradient step.

        Args:
            revealed: one entry per edge; NaN (or None) marks an edge with
                nothing revealed this round, any other value must lie in
                [0, 1].

        Returns:
            Per-edge squared-error losses paid this round.
        """
        r, rev = _as_similarities(revealed, self.edge_count, 1)
        return self._step(r, rev)

    def replay(self, similarities):
        """Run `update` over a (T, E) block of rounds, validated once.

        Row t of the block is round t; NaN marks an edge with nothing
        revealed.  The state moves exactly as T `update` calls would move
        it, bit for bit.

        Returns:
            (guesses, losses), both (T, E): `guesses[t]` is what the
            tracker played at round t, before seeing row t, and
            `losses[t]` what it paid there.
        """
        sims, rev = _as_similarities(similarities, self.edge_count, 2)
        guesses = np.empty(sims.shape)
        y, s_hat, twice_eta = self.y, self.s_hat, self._twice_eta
        # `_step`'s recursion alone; what it adds up per round follows.
        for t in range(sims.shape[0]):
            guesses[t] = s_hat
            err = np.where(rev[t], sims[t] - s_hat, 0.0)
            err *= twice_eta
            y += err
            np.minimum(y, 1.0, out=s_hat)
            np.maximum(s_hat, 0.0, out=s_hat)
        losses = np.where(rev, sims, guesses)
        losses -= guesses
        losses *= losses
        rounds = np.where(rev, sims, 0.0)
        _add_rounds(self.running_sum_revealed, rounds)
        np.copyto(rounds, losses)
        _add_rounds(self.cumulative_loss, rounds)
        self.revealed_count += rev.sum(axis=0)
        return guesses, losses

    def _step(self, r, rev):
        err = np.where(rev, r - self.s_hat, 0.0)
        losses = err * err
        self.cumulative_loss += losses
        # Gradient of (s - s_hat)^2 at the played guess is -2 err; the
        # step lands on the carried pre-projection state.
        err *= self._twice_eta
        self.y += err
        np.minimum(self.y, 1.0, out=self.s_hat)
        np.maximum(self.s_hat, 0.0, out=self.s_hat)
        self.revealed_count += rev
        self.running_sum_revealed += np.where(rev, r, 0.0)
        return losses


def _add_rounds(state, rounds):
    """Add the rows of `rounds` to `state` in round order, as one `+=` per
    round does, bit for bit; `rounds` is overwritten."""
    if len(rounds):
        rounds[0] += state
        np.cumsum(rounds, axis=0, out=rounds)
        state[:] = rounds[-1]


def track_sequence(similarities, eta):
    """Run a fresh tracker over a (T, E) similarity history.

    NaN entries are rounds with nothing revealed on that edge.  Returns
    (guesses, losses), both (T, E): `guesses[t]` is what the tracker
    played at round t, before seeing row t.
    """
    sims = _as_block(similarities)
    lanes = [("lane", str(k)) for k in range(sims.shape[1])]
    return SimilarityTracker(lanes, eta=eta).replay(sims)


def _as_block(similarities) -> np.ndarray:
    sims = np.asarray(similarities, dtype=float)
    return sims[:, None] if sims.ndim == 1 else sims


@dataclass(frozen=True)
class RegretCurve:
    """Cumulative losses and regret against the prefix-best constant."""

    t: np.ndarray
    algorithm_loss: np.ndarray
    best_constant_loss: np.ndarray
    regret: np.ndarray


def prefix_best_losses(similarities) -> np.ndarray:
    """(T,) loss of the best constant per prefix, summed over edges.

    Entry t is what an oracle constant chosen after seeing the first
    t+1 rounds would have paid on them; the mean of each edge's revealed
    values minimizes squared loss, giving a closed form from running
    sums.
    """
    sims = _as_block(similarities)
    rev = ~np.isnan(sims)
    vals = np.where(rev, sims, 0.0)
    cum_n = np.cumsum(rev, axis=0)
    cum_s = np.cumsum(vals, axis=0)
    cum_s2 = np.cumsum(vals**2, axis=0)
    per_edge = np.where(cum_n > 0, cum_s2 - cum_s**2 / np.maximum(cum_n, 1), 0.0)
    return per_edge.sum(axis=1)


def regret_curve(
    similarities, eta=0.5, tracker: SimilarityTracker | None = None
) -> RegretCurve:
    """Per-round cumulative regret summed over edges.

    The baseline at round t is, per edge, the best fixed guess for the
    first t rounds, so the curve compares against hindsight that grows
    with the data seen so far.

    Args:
        tracker: state to continue from, e.g. restored from a
            checkpoint; updated in place.  A fresh tracker with rate
            `eta` is used when omitted.
    """
    sims = _as_block(similarities)
    if tracker is None:
        _, losses = track_sequence(sims, eta)
    else:
        _, losses = tracker.replay(sims)
    alg = np.cumsum(losses.sum(axis=1))
    best = prefix_best_losses(sims)
    t = np.arange(1, sims.shape[0] + 1)
    return RegretCurve(t, alg, best, alg - best)
