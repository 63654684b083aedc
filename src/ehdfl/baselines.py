"""Reference transmission policies: myopic central argmin and battery-greedy."""
from __future__ import annotations

import numpy as np

from .mdp import policy_conditionals, sample_act


class MyopicCentralPolicy:
    """Minimizes the current slot's expected cost over feasible joint actions.

    Stationary: ignores channel persistence, harvesting, and the horizon.
    Ties break toward the lowest joint action index, like the exact solver.
    """

    stationary = True

    def __init__(self, mdp):
        self._table = self.table(mdp)

    def table(self, mdp) -> np.ndarray:
        """(n_states,) int32 argmin joint action of the one-slot cost at every state."""
        cost = mdp.cost_table()  # (nc, na)
        feas = mdp.action_feasibility  # (na, nbc)
        nc, nbc = mdp.n_channel_cfgs, mdp.n_battery_cfgs
        penal = np.where(feas.T, 0.0, np.inf)  # (nbc, na)
        table = np.empty(mdp.n_states, dtype=np.int32)
        for c in range(nc):
            rows = cost[c][None, :] + penal  # (nbc, na)
            table[c * nbc:(c + 1) * nbc] = rows.argmin(axis=1)
        return table

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

    act = sample_act
    conditionals = policy_conditionals

