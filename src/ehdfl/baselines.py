"""Reference transmission policies: myopic central argmin and battery-greedy."""
from __future__ import annotations

import numpy as np

from .mdp import level_rows, one_hot_rows, policy_conditionals, sample_act


class MyopicCentralPolicy:
    """Minimizes the current slot's expected cost over feasible joint actions.

    Stationary: ignores channel persistence, harvesting, and the horizon.
    Ties break toward the lowest joint action index, like the exact solver.
    """

    stationary = True

    def __init__(self, mdp):
        self._table = None

    def table(self, mdp) -> np.ndarray:
        if self._table is None:
            cost = mdp.cost_table()  # (nc, na)
            feas = mdp.action_feasibility  # (na, nbc)
            nc, nbc = mdp.n_channel_cfgs, mdp.n_battery_cfgs
            penal = np.where(feas.T, 0.0, np.inf)  # (nbc, na)
            table = np.empty(mdp.n_states, dtype=np.int32)
            for c in range(nc):
                rows = cost[c][None, :] + penal  # (nbc, na)
                table[c * nbc:(c + 1) * nbc] = rows.argmin(axis=1)
            self._table = table
        return self._table

    def rows(self, mdp, t, s_idx):
        return one_hot_rows(mdp, self.table(mdp)[s_idx])

    act = sample_act
    conditionals = policy_conditionals


class GreedyPolicy:
    """Every device transmits at the highest power its battery can fund.

    Fully decentralized and stateless across slots; wastes energy whenever
    holding back would have been better.
    """

    stationary = True

    def __init__(self, mdp):
        self._columns = None

    def _hot_columns(self, mdp):
        """Column c of a state's concatenated level rows is hot[c, b], b the battery digit
        of c's device, found at stride strides[c] of the state index; no table over
        states, battery configurations or joint actions is built."""
        if self._columns is None:
            nb = mdp.energy.n_levels
            dev = np.repeat(np.arange(mdp.m), mdp.act_dims)
            level = np.arange(len(dev)) - mdp.level_offsets[dev]
            top = np.array([[max(np.nonzero(feas[:, b])[0]) for b in range(nb)]
                            for feas in mdp.feasible_level_masks])  # (m, nb) highest feasible
            self._columns = ((top[dev] == level[:, None]).astype(float),
                             nb ** (mdp.m - 1 - dev))
        return self._columns

    def rows(self, mdp, t, s_idx):
        hot, strides = self._hot_columns(mdp)
        bats = np.asarray(s_idx)[:, None] // strides % mdp.energy.n_levels
        return level_rows(mdp, hot[np.arange(len(hot)), bats])

    act = sample_act
    conditionals = policy_conditionals

