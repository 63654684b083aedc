"""Reference transmission policies: myopic central argmin and battery-greedy."""
from __future__ import annotations

import numpy as np


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

    def act(self, mdp, s_idx, t, rng=None):
        return mdp.action_decode(int(self.table(mdp)[s_idx]))

    def conditionals(self, mdp, t):
        tbl = self.table(mdp)
        return [np.eye(mdp.act_dims[d])[mdp.action_digit(tbl, d)] for d in range(mdp.m)]


class GreedyPolicy:
    """Every device transmits at the highest power its battery can fund.

    Fully decentralized and stateless across slots; wastes energy whenever
    holding back would have been better.
    """

    def __init__(self, mdp):
        self._per_device = None

    def _tables(self, mdp):
        if self._per_device is None:
            out = []
            for d in range(mdp.m):
                feas = mdp.feasible_level_masks[d]  # (nl, nb)
                nl = feas.shape[0]
                # highest feasible level per battery index
                lvl = np.array([max(np.nonzero(feas[:, b])[0]) for b in range(feas.shape[1])],
                               dtype=np.int32)
                out.append(lvl)
            self._per_device = out
        return self._per_device

    def act(self, mdp, s_idx, t, rng=None):
        tbl = self._tables(mdp)
        return tuple(int(tbl[d][mdp.battery_digit_of_state(s_idx, d)]) for d in range(mdp.m))

    def conditionals(self, mdp, t):
        tbl = self._tables(mdp)
        out = []
        for d in range(mdp.m):
            lv = tbl[d][mdp.state_battery_digits(d)]
            out.append(np.eye(mdp.act_dims[d])[lv])
        return out


def myopic_central_action(mdp, s_idx: int) -> tuple[int, ...]:
    """Functional form of the myopic argmin for a single state."""
    ch = s_idx // mdp.n_battery_cfgs
    b = s_idx % mdp.n_battery_cfgs
    cost = mdp.cost_table()[ch]
    feas = mdp.action_feasibility[:, b]
    masked = np.where(feas, cost, np.inf)
    return mdp.action_decode(int(masked.argmin()))


def greedy_action(mdp, s_idx: int) -> tuple[int, ...]:
    out = []
    for d in range(mdp.m):
        b = int(mdp.battery_digit_of_state(s_idx, d))
        feas = mdp.feasible_level_masks[d][:, b]
        out.append(int(np.nonzero(feas)[0].max()))
    return tuple(out)
