"""Reference transmission policies: myopic central argmin and battery-greedy."""
from __future__ import annotations

import numpy as np

from .mdp import (DEFAULT_BUDGET, bellman_slot, check_dp_budget, policy_conditionals,
                  sample_act)


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

    def rows(self, mdp, t, s_idx):
        return mdp.action_one_hot.take(self._table[s_idx], axis=1)

    act = sample_act
    conditionals = policy_conditionals


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
        self._hot = (np.eye(max(mdp.act_dims))[top], np.arange(mdp.m)[:, None],
                     nb ** np.arange(mdp.m - 1, -1, -1)[:, None])

    def rows(self, mdp, t, s_idx):
        """Device d's row is hot[d, b], b its battery digit, found at stride strides[d]
        of the state index; no table over states, battery configurations or joint
        actions is built."""
        hot, devs, strides = self._hot
        return hot[devs, np.asarray(s_idx) // strides % mdp.energy.n_levels]

    def conditionals(self, mdp, t):
        """Device d's rows read only its battery: (1, ..., nb at axis 1 + d, ..., 1, W)."""
        hot, m = self._hot[0], mdp.m  # hot: (m, nb, W)
        return [hot[d].reshape((1,) * (d + 1) + (-1,) + (1,) * (m - 1 - d) + hot.shape[2:])
                for d in range(m)]

    act = sample_act

