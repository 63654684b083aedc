"""Reference transmission policies: myopic central argmin and battery-greedy."""
from __future__ import annotations

import numpy as np

from .mdp import (DEFAULT_BUDGET, bellman_slot, check_dp_budget, sample_act,
                  table_conditionals, table_rows)


class MyopicCentralPolicy:
    """Minimizes the current slot's expected cost over feasible joint actions.

    Stationary: ignores channel persistence, harvesting, and the horizon. Its
    table is the exact solver's terminal slot, `bellman_slot` without
    continuation, so it shares the solver's argmin and tie rule (the lowest
    joint action index wins), and it is refused under the solver's budget
    check before any cost table is built.
    """

    stationary = True

    def __init__(self, mdp, *, budget: int = DEFAULT_BUDGET):
        check_dp_budget(mdp, budget)
        self._table = self.table(mdp)

    def table(self, mdp) -> np.ndarray:
        """(n_states,) int32 argmin joint action of the one-slot cost at every state."""
        return bellman_slot(mdp, None)[1].reshape(-1)

    def rows(self, mdp, t, digits):
        return table_rows(mdp, self._table, digits)

    def conditionals(self, mdp, t):
        return table_conditionals(mdp, self._table)

    act = sample_act


class GreedyPolicy:
    """Every device transmits at the highest power its battery can fund.

    Fully decentralized and stateless across slots; wastes energy whenever
    holding back would have been better.
    """

    stationary = True

    def __init__(self, mdp):
        nb = mdp.energy.n_levels
        top = [[np.nonzero(feas[:, b])[0].max() for b in range(nb)]
               for feas in mdp.feasible_level_masks]  # (m, nb) highest feasible level
        self._hot = np.eye(max(mdp.act_dims))[top]  # (m, nb, W)

    def rows(self, mdp, t, digits):
        """Device d's row is hot[d, b] at its battery digit b; no table over states is built."""
        return self._hot[np.arange(mdp.m)[:, None], digits[:, mdp.n_links:].T]

    def conditionals(self, mdp, t):
        """Device d's rows read only its battery: (1, ..., nb at axis 1 + d, ..., 1, W)."""
        hot, m = self._hot, mdp.m
        return [hot[d].reshape((1,) * (d + 1) + (-1,) + (1,) * (m - 1 - d) + hot.shape[2:])
                for d in range(m)]

    act = sample_act

