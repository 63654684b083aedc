"""Finite-horizon multi-device MDP over link gains and battery levels.

State = (gain index per link entity, battery index per device); joint action =
one power level index per device. The transition kernel factorizes into
independent link chains (action-free) and per-device battery kernels
(own-action only), which the exact solver exploits: channel axes are
contracted once per layer, battery axes along a tree over devices so partial
contractions are shared between joint actions. Each contraction is one gemm,
`contract_leading`, that consumes the leading axis and appends the new one
last, so contracting the link axes and then the battery axes rotates an array
back to canonical layout with no transpose copy. Exact policy evaluation runs
backward with the same primitive: V_t = c_t + E[V_{t+1}].

A policy is its per-slot, per-device conditional level rows given the global
state: `rows(mdp, t, s_idx)` at an array of n states is one float array of
shape (m, n, W), device-major, W the longest power ladder, zero beyond each
device's ladder. `act` (one draw) and `conditionals` (rows at every state) are
defined once from it, and Monte Carlo advances all rollouts of a seed together
by sampling those rows.

Indexing convention: links are undirected, one link entity (one fading gain)
per sorted undirected edge, in sorted order. A global state index is the
C-order ravel of (gain digits..., battery digits...), devices ascending. Joint
action indices ravel per-device level digits in device order, so index 0 is
all-silent and ties in the solver break toward the lexicographically smallest
action. Digits are read and written with np.unravel_index and
np.ravel_multi_index over the dims tuples, nowhere by hand.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelChain, RadioParams
from .energy import EnergyParams, HarvestModel
from .errors import BudgetExceeded, CausalityViolation

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class GlobalState:
    """Decoded state: gain index per link entity, battery index per device."""

    gains: tuple[int, ...]
    batteries: tuple[int, ...]


@dataclass(eq=False)
class GlobalMdp:
    """Bundle of topology, channel chains, energy model, actions, horizon."""

    topo: object
    radio: RadioParams
    energy: EnergyParams
    chains: list
    harvests: list
    power_levels: list
    horizon: int
    entities: list = field(init=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def __post_init__(self):
        m = self.topo.m
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.entities = [tuple(e) for e in self.topo.edges]
        self.chains = link_chains(self.chains, len(self.entities))
        if len(self.harvests) != m or len(self.power_levels) != m:
            raise ValueError("need one harvest model and one power ladder per device")
        for chain in self.chains:
            chain.validate()
        self._entity_index = {e: k for k, e in enumerate(self.entities)}
        self.power_levels = [power_ladder(lv) for lv in self.power_levels]
        for hv in self.harvests:
            hv.quanta(self.energy)  # validates grid alignment

    @property
    def m(self) -> int:
        return self.topo.m

    @property
    def n_links(self) -> int:
        return len(self.entities)

    @property
    def link_dims(self) -> list[int]:
        return [c.n for c in self.chains]

    @property
    def bat_dims(self) -> list[int]:
        return [self.energy.n_levels] * self.m

    @property
    def act_dims(self) -> list[int]:
        return [len(lv) for lv in self.power_levels]

    @property
    def n_channel_cfgs(self) -> int:
        return math.prod(self.link_dims)

    @property
    def n_battery_cfgs(self) -> int:
        return math.prod(self.bat_dims)

    @property
    def n_states(self) -> int:
        return self.n_channel_cfgs * self.n_battery_cfgs

    @property
    def n_actions(self) -> int:
        return math.prod(self.act_dims)

    def entity_of(self, receiver: int, transmitter: int) -> int:
        """Link entity index carrying the gain between `receiver` and `transmitter`."""
        return self._entity_index[(min(receiver, transmitter), max(receiver, transmitter))]

    # ------------------------------------------------------------------
    # state and action indexing
    # ------------------------------------------------------------------

    def state_index(self, state: GlobalState) -> int:
        dims = self.link_dims + self.bat_dims
        coords = list(state.gains) + list(state.batteries)
        return int(np.ravel_multi_index(coords, dims))

    def state_decode(self, idx: int) -> GlobalState:
        dims = self.link_dims + self.bat_dims
        coords = np.unravel_index(idx, dims)
        L = self.n_links
        return GlobalState(gains=tuple(int(c) for c in coords[:L]),
                           batteries=tuple(int(c) for c in coords[L:]))

    def action_index(self, levels: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(levels, self.act_dims))

    def action_decode(self, a: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unravel_index(a, self.act_dims))

    def powers_of(self, levels) -> np.ndarray:
        return np.array([self.power_levels[d][l] for d, l in enumerate(levels)])

    # ------------------------------------------------------------------
    # cached factored model pieces
    # ------------------------------------------------------------------

    @functools.cached_property
    def draw_quanta(self):
        """Per device: int (n_levels_d,), the battery quanta one slot at each level draws."""
        e = self.energy
        return [np.array([e.to_quanta(e.slot_energy(p)) for p in lv]) for lv in self.power_levels]

    @functools.cached_property
    def battery_kernels(self):
        """Per device: array (n_levels_d, nb, nb); infeasible rows are identity filler."""
        nb = self.energy.n_levels
        out = []
        for d, draws in enumerate(self.draw_quanta):
            uq, pr = self.harvests[d].quanta(self.energy)
            ks = np.zeros((len(draws), nb, nb))
            for l, eq in enumerate(draws):
                for b in range(nb):
                    if eq > b:
                        ks[l, b, b] = 1.0  # never selectable, placeholder row
                        continue
                    for amount, prob in zip(uq, pr):
                        ks[l, b, min(b - eq + amount, nb - 1)] += prob
            out.append(ks)
        return out

    @functools.cached_property
    def action_one_hot(self) -> np.ndarray:
        """Read-only (m, n_actions, W): each joint action's one-hot level rows."""
        digits = np.unravel_index(np.arange(self.n_actions), self.act_dims)
        rows = np.eye(max(self.act_dims))[np.array(digits)]
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def feasible_level_masks(self):
        """Per device: bool (n_levels_d, nb), True where the level fits the battery."""
        return [np.arange(self.energy.n_levels) >= draws[:, None] for draws in self.draw_quanta]

    @functools.cached_property
    def action_feasibility(self):
        """Bool (n_actions, n_battery_cfgs): joint action feasible at battery config."""
        na, nbc = self.n_actions, self.n_battery_cfgs
        if na * nbc > 200_000_000:
            raise BudgetExceeded(f"action feasibility table too large ({na}x{nbc})")
        levels = np.unravel_index(np.arange(na), self.act_dims)
        bats = np.unravel_index(np.arange(nbc), self.bat_dims)
        feas = np.ones((na, nbc), dtype=bool)
        for d, mask in enumerate(self.feasible_level_masks):
            feas &= mask[np.ix_(levels[d], bats[d])]
        return feas

    @functools.cached_property
    def ordered_pairs(self):
        """All (receiver, transmitter, weight, own entity, [(interferer, entity), ...])."""
        out = []
        for j in range(self.m):
            for i in self.topo.neighbors[j]:
                interf = [(k, self.entity_of(i, k)) for k in self.topo.neighbors[i] if k != j]
                out.append((i, j, float(self.topo.mixing[i, j]), self.entity_of(i, j), interf))
        return out

    @functools.cached_property
    def gain_values(self) -> list:
        """Per link entity: its gain value at every channel configuration, (nc,)."""
        digits = np.unravel_index(np.arange(self.n_channel_cfgs), self.link_dims)
        return [chain.levels[g] for chain, g in zip(self.chains, digits)]

    def cost_table(self) -> np.ndarray:
        """Expected one-slot cost, shape (n_channel_cfgs, n_actions)."""
        return self._cost_table

    @functools.cached_property
    def _cost_table(self) -> np.ndarray:
        nc, na = self.n_channel_cfgs, self.n_actions
        if nc * na > 200_000_000:
            raise BudgetExceeded(f"cost table too large ({nc}x{na})")
        gv = self.gain_values
        levels = np.unravel_index(np.arange(na), self.act_dims)
        pv = [lv[digit] for lv, digit in zip(self.power_levels, levels)]
        cost = np.zeros((nc, na))
        for i, j, w, e_own, interf in self.ordered_pairs:
            cost += link_loss_table(self.radio, i, w, pv[j], gv[e_own],
                                    [(pv[k], gv[e_k]) for k, e_k in interf])
        return cost

    # ------------------------------------------------------------------
    # scalar model queries
    # ------------------------------------------------------------------

    def gain_matrix(self, gains) -> np.ndarray:
        """(m, m) symmetric array of link gains at per-link gain digits; 0 off the links."""
        mat = np.zeros((self.m, self.m))
        for e, (a, b) in enumerate(self.entities):
            mat[a, b] = mat[b, a] = self.chains[e].levels[gains[e]]
        return mat

    def one_step_cost(self, state, levels) -> float:
        """Mixing-weighted sum of packet error rates for one (state, action)."""
        if isinstance(state, (int, np.integer)):
            state = self.state_decode(int(state))
        if isinstance(levels, (int, np.integer)):
            levels = self.action_decode(int(levels))
        g = self.gain_matrix(state.gains)
        p = self.powers_of(levels)
        total = 0.0
        from .channel import packet_error_rate

        for i, j, w, _, _ in self.ordered_pairs:
            total += w * packet_error_rate(p, g, self.topo, self.radio, i, j)
        return total

    def device_cost(self, state, levels, device: int) -> float:
        """Share of the one-slot cost charged to `device`'s own transmissions.

        Shares sum to the global cost exactly; each device is billed for the
        expected loss on its outgoing links, the quantity its own power level
        controls most directly.
        """
        if isinstance(state, (int, np.integer)):
            state = self.state_decode(int(state))
        if isinstance(levels, (int, np.integer)):
            levels = self.action_decode(int(levels))
        g = self.gain_matrix(state.gains)
        p = self.powers_of(levels)
        total = 0.0
        from .channel import packet_error_rate

        for i, j, w, _, _ in self.ordered_pairs:
            if j == device:
                total += w * packet_error_rate(p, g, self.topo, self.radio, i, j)
        return total

    def transition(self, state, levels, max_support: int = 1_000_000) -> dict:
        """Explicit next-state distribution {flat index: prob} (small instances)."""
        if isinstance(state, (int, np.integer)):
            state = self.state_decode(int(state))
        if isinstance(levels, (int, np.integer)):
            levels = self.action_decode(int(levels))
        branches = []
        for e, chain in enumerate(self.chains):
            row = chain.psi[state.gains[e]]
            branches.append([(g, row[g]) for g in np.nonzero(row)[0]])
        for d in range(self.m):
            row = battery_row(self, d, state.batteries[d], levels[d])
            branches.append([(b, row[b]) for b in np.nonzero(row)[0]])
        size = math.prod(len(b) for b in branches)
        if size > max_support:
            raise BudgetExceeded(f"transition support {size} exceeds {max_support}")
        dims = self.link_dims + self.bat_dims
        out = {}
        for combo in itertools.product(*branches):
            coords = [c for c, _ in combo]
            prob = float(np.prod([p for _, p in combo]))
            idx = int(np.ravel_multi_index(coords, dims))
            out[idx] = out.get(idx, 0.0) + prob
        return out

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def signature(self) -> str:
        desc = {
            "m": self.m,
            "edges": [list(e) for e in self.topo.edges],
            "mixing": np.round(self.topo.mixing, 12).tolist(),
            "entities": [list(e) for e in self.entities],
            # retired model knobs, kept as their only values so saved files' hashes still match
            "reciprocal": True,
            "chains": [[np.round(c.levels, 12).tolist(), np.round(c.psi, 12).tolist()]
                       for c in self.chains],
            "radio": [self.radio.phi, np.atleast_1d(self.radio.sigma2).tolist(), self.radio.tau],
            "energy": [self.energy.k_steps, self.energy.cpu_freq, self.energy.cycles_per_sample,
                       self.energy.batch_size, self.energy.tau, self.energy.b_max,
                       self.energy.n_levels],
            "harvests": [[h.support.tolist(), h.probs.tolist()] for h in self.harvests],
            "powers": [lv.tolist() for lv in self.power_levels],
            "horizon": self.horizon,
            "cost_scale": 1.0,
        }
        blob = json.dumps(desc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def link_loss_table(radio: RadioParams, receiver: int, w: float, p_tx, g_own,
                    interferers) -> np.ndarray:
    """w times the packet error rate of one directed link, shape (n_gain_cfgs, n_actions).

    p_tx: (n_actions,) transmit power; g_own: (n_gain_cfgs,) the link's gain;
    interferers: (power, gain) vector pairs in the receiver's neighbour order.
    A silent transmitter loses its packet with certainty.
    """
    acc = np.full((len(g_own), len(p_tx)), radio.noise(receiver))
    for p_k, g_k in interferers:
        acc = acc + p_k[None, :] * g_k[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 - np.exp(-radio.phi * acc / (p_tx[None, :] * g_own[:, None]))
    q[:, p_tx == 0.0] = 1.0
    return w * q


def battery_row(mdp: GlobalMdp, device: int, b_idx: int, level: int) -> np.ndarray:
    """Next-battery distribution row; raises CausalityViolation when infeasible."""
    if not mdp.feasible_level_masks[device][level, b_idx]:
        p = mdp.power_levels[device][level]
        raise CausalityViolation(
            f"device {device}: level {level} (p={p}) infeasible at battery index {b_idx}")
    return mdp.battery_kernels[device][level, b_idx]


def link_chains(chains, n_links: int) -> list:
    """One chain per link: a lone chain, bare or in a list of one, serves every link."""
    chains = [chains] if isinstance(chains, ChannelChain) else list(chains)
    if len(chains) == 1:
        chains = chains * n_links
    if len(chains) != n_links:
        raise ValueError(f"need one chain or one per link ({n_links}), got {len(chains)}")
    return chains


def power_ladder(levels) -> np.ndarray:
    """One device's power levels as floats: 0.0 first, then strictly rising."""
    lv = np.asarray(levels, dtype=float)
    if lv[0] != 0.0 or (np.diff(lv) <= 0).any():
        raise ValueError(f"need levels rising strictly from 0.0, got {lv.tolist()}; silence "
                         f"(0.0) is the level of zero quantum cost an empty battery can afford")
    return lv


def build_mdp(topo, radio, energy, chains, harvests, power_levels, horizon) -> GlobalMdp:
    """Assemble a GlobalMdp, broadcasting a single harvest or ladder (and chain, via link_chains)."""
    m = topo.m
    if isinstance(harvests, HarvestModel):
        harvests = [harvests] * m
    power_levels = list(power_levels)
    if np.ndim(power_levels[0]) == 0:
        power_levels = [power_levels] * m
    return GlobalMdp(topo=topo, radio=radio, energy=energy, chains=chains,
                     harvests=list(harvests), power_levels=power_levels,
                     horizon=horizon)


# ---------------------------------------------------------------------------
# exact finite-horizon solver
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Solution:
    """Backward-induction output: per-slot values and argmin action tables."""

    mdp: GlobalMdp
    values: list  # values[t-1]: (n_states,) optimal cost-to-go at slot t
    tables: list  # tables[t-1]: (n_states,) int32 joint action index

    @property
    def horizon(self) -> int:
        return len(self.tables)

    def value(self, t: int, s_idx: int) -> float:
        return float(self.values[t - 1][s_idx])

    def expected_cost(self, s1) -> float:
        if isinstance(s1, GlobalState):
            s1 = self.mdp.state_index(s1)
        return float(self.values[0][s1])

    def q_row(self, t: int, s_idx: int) -> np.ndarray:
        """Q_t(s, .) recomputed from V_{t+1}; infeasible joint actions are +inf."""
        mdp = self.mdp
        state = mdp.state_decode(s_idx)
        ch_idx = s_idx // mdp.n_battery_cfgs
        b_idx = s_idx % mdp.n_battery_cfgs
        row = np.full(mdp.n_actions, np.inf)
        vnext = self.values[t] if t < self.horizon else None
        for a in range(mdp.n_actions):
            if not mdp.action_feasibility[a, b_idx]:
                continue
            c = mdp.cost_table()[ch_idx, a]
            if vnext is None:
                row[a] = c
            else:
                dist = mdp.transition(state, a)
                row[a] = c + sum(prob * vnext[s2] for s2, prob in dist.items())
        return row

    def as_policy(self):
        return CentralizedPolicy(self.tables)

    def save(self, path) -> None:
        save_solution(self, path)


def contract_leading(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply `mat` along the leading axis of `x` and put the new axis last.

    Bit for bit moveaxis(tensordot(mat, x, ([1], [0])), 0, -1), as one gemm on
    transposed views that never copies a contiguous `x`.
    """
    return np.dot(x.reshape(x.shape[0], -1).T, mat.T).reshape(x.shape[1:] + (mat.shape[0],))


def backward_induction(mdp: GlobalMdp, *, budget: int = DEFAULT_BUDGET) -> Solution:
    """Exact dynamic program over the factored model.

    Joint actions are scanned in ascending index order and strict improvement
    is required to replace the incumbent, so ties resolve to the lowest index.

    Raises:
        BudgetExceeded: when n_states * n_actions > budget.
    """
    n_s, n_a = mdp.n_states, mdp.n_actions
    if n_s * n_a > budget:
        raise BudgetExceeded(
            f"state-action product {n_s * n_a} exceeds budget {budget}; "
            "raise the budget explicitly if this size is intended")
    link_dims, bat_dims, m = mdp.link_dims, mdp.bat_dims, mdp.m
    shape = tuple(link_dims + bat_dims)
    kbs = mdp.battery_kernels
    strides = np.cumprod([1] + mdp.act_dims[::-1])[::-1][1:]  # C-order action strides
    # per joint action: cost over the link axes, feasibility over the battery axes
    cost_a = np.ascontiguousarray(mdp.cost_table().T).reshape((n_a,) + tuple(link_dims) + (1,) * m)
    feas_a = mdp.action_feasibility.reshape((n_a,) + (1,) * len(link_dims) + tuple(bat_dims))
    q, ok = np.empty(shape), np.empty(shape, dtype=bool)

    values, tables = [None] * mdp.horizon, [None] * mdp.horizon
    v_next = np.zeros(shape)
    for t in range(mdp.horizon, 0, -1):
        w = v_next
        for chain in mdp.chains:  # link axes rotate to the back: (batteries..., links...)
            w = contract_leading(w, chain.psi)
        best = np.full(shape, np.inf)
        arg = np.zeros(shape, dtype=np.int32)

        def descend(d, x, a):
            if d == m:  # x is back in canonical layout
                np.add(x, cost_a[a], out=q)
                np.less(q, best, out=ok)
                np.logical_and(ok, feas_a[a], out=ok)
                np.copyto(best, q, where=ok)
                np.copyto(arg, a, where=ok)
                return
            for l in range(mdp.act_dims[d]):
                descend(d + 1, contract_leading(x, kbs[d][l]), a + l * int(strides[d]))

        descend(0, w, 0)
        del descend  # break the closure's self-reference so it is freed by refcount, not gc
        if not np.isfinite(best).all():
            raise CausalityViolation("no feasible action at some state (should not happen)")
        values[t - 1] = best.reshape(-1)
        tables[t - 1] = arg.reshape(-1)
        v_next = best
    return Solution(mdp=mdp, values=values, tables=tables)


# ---------------------------------------------------------------------------
# policies: per-device conditional rows, one draw rule
# ---------------------------------------------------------------------------

def _draw(rows: np.ndarray, u: np.ndarray, widths) -> np.ndarray:
    """(n, k) indices by inverse CDF: rows is (k, n, W) probabilities, u is (n, k).

    Row j of item i holds widths[j] entries, zero-padded to W. Per row the
    count of cumsum(row) <= u, clipped to the last index, which is
    searchsorted(cumsum(row), u, side="right"); a padded entry can only count
    when u reaches the row's total, and then the clip discards it.
    """
    counts = (np.cumsum(rows, axis=2) <= u.T[:, :, None]).sum(axis=2)
    return np.minimum(counts.T, np.subtract(widths, 1))


def _zero_padded(arrays) -> np.ndarray:
    """Arrays of one rank stacked on a new leading axis, zero-padded to the largest shape."""
    out = np.zeros((len(arrays),) + tuple(np.max([a.shape for a in arrays], axis=0)))
    for k, a in enumerate(arrays):
        out[(k,) + tuple(map(slice, a.shape))] = a
    return out


def sample_act(self, mdp, s_idx: int, t: int, rng=None) -> tuple[int, ...]:
    """Levels at one state, drawn from the policy's rows with rng.random(m).

    One uniform per device, in device order. Without `rng` every device takes
    its lowest level of positive probability, which for a deterministic
    policy is its level. The uniforms are drawn even when every row is
    one-hot, so the generator's stream does not depend on the rows.
    """
    u = rng.random((1, mdp.m)) if rng is not None else np.zeros((1, mdp.m))
    rows = self.rows(mdp, t, np.array([s_idx]))
    if np.count_nonzero(rows) == mdp.m == np.count_nonzero(rows == 1.0):
        # rows sum to 1, so each holds one nonzero entry, 1.0, where the inverse CDF
        # lands for every u: skip the draw
        return tuple(rows[:, 0].argmax(1).tolist())
    return tuple(_draw(rows, u, mdp.act_dims)[0].tolist())


def policy_conditionals(self, mdp, t: int) -> np.ndarray:
    """(m, n_states, W) level rows at every state of slot t; rows[d] is C-contiguous."""
    return self.rows(mdp, t, np.arange(mdp.n_states))


class CentralizedPolicy:
    """Deterministic time-varying joint policy as per-slot argmin tables."""

    def __init__(self, tables):
        self.tables = [np.asarray(tbl) for tbl in tables]

    def rows(self, mdp, t: int, s_idx):
        return mdp.action_one_hot.take(self.tables[t - 1][s_idx], axis=1)

    act = sample_act
    conditionals = policy_conditionals


class FixedLevelsPolicy:
    """Every device holds one level index each slot (diagnostics, tests)."""

    stationary = True

    def __init__(self, levels):
        self.levels = tuple(levels)

    def rows(self, mdp, t, s_idx):
        rows = np.zeros((mdp.m, len(s_idx), max(mdp.act_dims)))
        rows[np.arange(mdp.m), :, self.levels] = 1.0
        return rows

    act = sample_act
    conditionals = policy_conditionals


# ---------------------------------------------------------------------------
# exact policy evaluation (product-form conditionals) and Monte Carlo
# ---------------------------------------------------------------------------

def expected_cost_rows(mdp: GlobalMdp, conds) -> np.ndarray:
    """E[one-slot cost | s] for every state under per-device conditionals.

    conds[d] holds device d's rows at every state in its first n_levels_d
    columns, summing to 1; any columns beyond are zero padding, as in the
    (m, n_states, W) array `conditionals` returns, and are not read. The pairwise PER
    expectation factorizes across devices because, given the state, devices
    draw their levels independently. The survival factors exp(-phi·noise/denom)
    and exp(-phi·p_k·h_k/denom) depend only on the channel configuration, so
    they are computed per configuration and broadcast over the batteries.
    """
    nc, nbc = mdp.n_channel_cfgs, mdp.n_battery_cfgs
    phi = mdp.radio.phi
    conds = [c.reshape(nc, nbc, -1) for c in conds]
    out = np.zeros((nc, nbc))
    for i, j, w, e_own, interf in mdp.ordered_pairs:
        h_own = mdp.gain_values[e_own]
        cond_j = conds[j]
        acc = cond_j[:, :, 0].copy()  # silent level: guaranteed loss
        for l in range(1, mdp.act_dims[j]):
            pj = mdp.power_levels[j][l]
            denom = pj * h_own
            surv = np.exp(-phi * mdp.radio.noise(i) / denom)[:, None]
            for k, e_k in interf:
                hk = mdp.gain_values[e_k]
                f = np.zeros((nc, nbc))
                for lk in range(mdp.act_dims[k]):
                    pk = mdp.power_levels[k][lk]
                    if pk == 0.0:
                        f += conds[k][:, :, lk]
                    else:
                        f += conds[k][:, :, lk] * np.exp(-phi * pk * hk / denom)[:, None]
                surv = surv * f
            acc += cond_j[:, :, l] * (1.0 - surv)
        out += w * acc
    return out.reshape(-1)


def battery_mixes(mdp: GlobalMdp, conds) -> list:
    """Per device: (n_states, nb), the policy-mixed battery row at every state.

    mixes[d][s] = sum_l conds[d][s, l] * kernel_l[b_d(s)] over the n_levels_d
    columns of conds[d] (the zero padding of the (m, n_states, W) layout is not
    read), one gemm per battery index b_d.
    """
    nb, m = mdp.energy.n_levels, mdp.m
    mixes = []
    for d, kb in enumerate(mdp.battery_kernels):
        cond = conds[d][:, :len(kb)].reshape(-1, nb, nb ** (m - 1 - d), len(kb))
        mix = np.empty(cond.shape[:3] + (nb,))
        for b in range(nb):
            np.matmul(cond[:, b], kb[:, b, :], out=mix[:, b])
        mixes.append(mix.reshape(-1, nb))
    return mixes


def backward_expectation(mdp: GlobalMdp, v_next: np.ndarray, mixes) -> np.ndarray:
    """E[v_next(s') | s] for every state, given the policy's `battery_mixes`.

    Contracts the link axes, then folds in each device's mixed battery row,
    over blocks of channel configurations of at most 2M floats.
    """
    nc, nbc, nb, m = mdp.n_channel_cfgs, mdp.n_battery_cfgs, mdp.energy.n_levels, mdp.m
    w = v_next.reshape(tuple(mdp.link_dims) + (nbc,))
    for chain in mdp.chains:
        w = contract_leading(w, chain.psi)
    w = w.reshape(nbc, nc)  # w[b', c] = E[v_next(c', b') | c]
    out = np.empty(mdp.n_states)
    cb = max(1, 2_000_000 // nbc // (nbc // nb))
    for c0 in range(0, nc, cb):
        c1 = min(c0 + cb, nc)
        rows = slice(c0 * nbc, c1 * nbc)
        y = np.matmul(mixes[0][rows].reshape(c1 - c0, nbc, nb),
                      w[:, c0:c1].T.reshape(c1 - c0, nb, -1)).reshape((c1 - c0) * nbc, -1)
        for d in range(1, m):
            y = np.einsum("sk,skr->sr", mixes[d][rows], y.reshape(len(y), nb, -1))
        out[rows] = y[:, 0]
    return out


def evaluate_policy(mdp: GlobalMdp, policy, s1, *, mode: str = "exact",
                    n_samples: int = 1000, seed: int = 0, horizon: int | None = None):
    """Expected cumulative cost J(policy) from initial state s1.

    mode="exact" runs the policy's value backward, V_t = c_t + E[V_{t+1}]
    (requires a policy exposing per-device conditionals given the global
    state, which all policies in this package do). A policy whose class sets
    `stationary = True` has the same rows at every slot, so its conditionals,
    expected costs and battery mixes are built once rather than per slot.
    mode="mc" simulates trajectories and returns (mean, stderr).
    """
    T = horizon if horizon is not None else mdp.horizon
    if mode == "exact":
        stationary = getattr(policy, "stationary", False)
        conds = policy.conditionals(mdp, T)
        v = c = expected_cost_rows(mdp, conds)
        mixes = battery_mixes(mdp, conds) if stationary else None
        for t in range(T - 1, 0, -1):
            if not stationary:
                conds = policy.conditionals(mdp, t)
                c, mixes = expected_cost_rows(mdp, conds), battery_mixes(mdp, conds)
            v = c + backward_expectation(mdp, v, mixes)
        return float(v[mdp.state_index(s1) if isinstance(s1, GlobalState) else int(s1)])
    if mode == "mc":
        costs = simulate_costs(mdp, policy, s1, n_samples=n_samples, seed=seed, horizon=T)
        return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs)))
    raise ValueError(f"unknown mode {mode!r}")


def simulate_costs(mdp: GlobalMdp, policy, s1, *, n_samples: int, seed: int,
                   horizon: int | None = None) -> np.ndarray:
    """Monte Carlo rollouts of the cumulative cost, all advanced in lockstep.

    The n_samples rollouts move together as (n_samples, ·) digit arrays driven
    by one RNG stream, default_rng(seed). Each slot draws, in this order, one
    uniform per rollout and device for the levels (inverse CDF on the policy's
    rows at the batch's states), one per rollout and link for the gains (on
    the rows of psi) and one per rollout and device for the batteries (on the
    battery kernel rows). The psi and kernel rows are zero-padded into the
    (entities, n_samples, width) layout of the policy's rows.

    Raises:
        CausalityViolation: when the policy picks a level the battery cannot fund.
    """
    T = horizon if horizon is not None else mdp.horizon
    if isinstance(s1, GlobalState):
        s1 = mdp.state_index(s1)
    dims, L, nbc = mdp.link_dims + mdp.bat_dims, mdp.n_links, mdp.n_battery_cfgs
    digits = np.tile(np.array(np.unravel_index(int(s1), dims), dtype=np.int64), (n_samples, 1))
    gains, bats = digits[:, :L], digits[:, L:]
    cost_tbl = mdp.cost_table() if mdp.n_channel_cfgs * mdp.n_actions <= 50_000_000 else None
    psi, kernels = _zero_padded([c.psi for c in mdp.chains]), _zero_padded(mdp.battery_kernels)
    links, devs = np.arange(L)[:, None], np.arange(mdp.m)[:, None]
    rng = np.random.default_rng(seed)
    totals = np.zeros(n_samples)
    for t in range(1, T + 1):
        s_idx = np.ravel_multi_index(digits.T, dims)
        levels = _draw(policy.rows(mdp, t, s_idx), rng.random((n_samples, mdp.m)), mdp.act_dims)
        for d, mask in enumerate(mdp.feasible_level_masks):
            bad = ~mask[levels[:, d], bats[:, d]]
            if bad.any():  # battery_row raises with the first offender's details
                k = int(bad.argmax())
                battery_row(mdp, d, int(bats[k, d]), int(levels[k, d]))
        if cost_tbl is not None:
            totals += cost_tbl[s_idx // nbc, np.ravel_multi_index(levels.T, mdp.act_dims)]
        else:
            totals += [mdp.one_step_cost(int(s), tuple(lv)) for s, lv in zip(s_idx, levels)]
        gains[:] = _draw(psi[links, gains.T], rng.random((n_samples, L)), mdp.link_dims)
        bats[:] = _draw(kernels[devs, levels.T, bats.T], rng.random((n_samples, mdp.m)),
                        mdp.bat_dims)
    return totals


# ---------------------------------------------------------------------------
# solution serialization: versioned npz plus a text manifest
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def save_solution(sol: Solution, path) -> None:
    path = str(path)
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "centralized_solution",
        "mdp_signature": sol.mdp.signature(),
        "horizon": sol.horizon,
        "n_states": sol.mdp.n_states,
        "n_actions": sol.mdp.n_actions,
    }
    np.savez_compressed(path if path.endswith(".npz") else path + ".npz",
                        meta=json.dumps(meta, sort_keys=True),
                        values=np.stack(sol.values),
                        tables=np.stack(sol.tables))
    mpath = (path[:-4] if path.endswith(".npz") else path) + ".manifest.txt"
    with open(mpath, "w") as fh:
        for k in sorted(meta):
            fh.write(f"{k}: {meta[k]}\n")


def load_solution(path, mdp: GlobalMdp) -> Solution:
    path = str(path)
    with np.load(path if path.endswith(".npz") else path + ".npz") as z:
        meta = json.loads(str(z["meta"]))
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported solution format {meta['format_version']}")
        if meta["mdp_signature"] != mdp.signature():
            raise ValueError("solution was produced for a different model")
        values = [row for row in z["values"]]
        tables = [row.astype(np.int32) for row in z["tables"]]
    return Solution(mdp=mdp, values=values, tables=tables)
