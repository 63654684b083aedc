"""Reference transmission policies: myopic central argmin and battery-greedy."""
from __future__ import annotations

import numpy as np

from .mdp import one_hot_rows, policy_conditionals, sample_act


class MyopicCentralPolicy:
    """Minimizes the current slot's expected cost over feasible joint actions.

    Stationary: ignores channel persistence, harvesting, and the horizon.
    Ties break toward the lowest joint action index, like the exact solver.
    """

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

    def __init__(self, mdp):
        self._per_device = None

    def _tables(self, mdp):
        """Per device: (nb, n_levels), the one-hot highest feasible level per battery index."""
        if self._per_device is None:
            out = []
            for d in range(mdp.m):
                feas = mdp.feasible_level_masks[d]  # (nl, nb)
                lvl = [max(np.nonzero(feas[:, b])[0]) for b in range(feas.shape[1])]
                out.append(np.eye(feas.shape[0])[lvl])
            self._per_device = out
        return self._per_device

    def rows(self, mdp, t, s_idx):
        tbl, nb = self._tables(mdp), mdp.energy.n_levels
        bats = np.asarray(s_idx)[:, None] // nb ** np.arange(mdp.m - 1, -1, -1) % nb
        return [tbl[d][bats[:, d]] for d in range(mdp.m)]

    act = sample_act
    conditionals = policy_conditionals

