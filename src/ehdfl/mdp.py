"""Finite-horizon multi-device MDP over link gains and battery levels.

State = (gain index per link entity, battery index per device); joint action =
one power level index per device. The transition kernel factorizes into
independent link chains (action-free) and per-device battery kernels
(own-action only), which the exact solver exploits: channel axes are
contracted once per layer, battery axes along a tree over devices so partial
contractions are shared between joint actions. A level is contracted only
over the battery suffix it can fund (energy causality), so infeasible
(action, battery) pairs are never formed. Each contraction is one gemm,
`contract_leading`, that consumes the leading axis and appends the new one
last, so contracting the link axes and then the battery axes rotates an array
back to canonical layout with no transpose copy. Exact policy evaluation runs
backward with the same primitive: V_t = c_t + E[V_{t+1}]. The cost table's loss
kernel puts each operand on its own axis, so only its output is full size.

A policy is its per-slot, per-device conditional level rows given the global
state: `rows(mdp, t, digits)` at an (n, L + m) int array of state digits (gains,
then batteries) is one float array (m, n, W), device-major, W the longest
power ladder, zero beyond each device's ladder. Rollouts carry digits and
sample those rows; `act` (one draw at a flat index) is defined once from them.
`conditionals(mdp, t)` gives the same rows at every state on each policy's
own scope: m arrays, each broadcastable to the canonical state layout
`state_shape + (W,)`, one axis per link gain and then one per battery, the
layout of the solver and of every flat index, with length 1 on every axis the
device's row does not read. Exact evaluation works on those shapes by
broadcasting (factored policy evaluation, Koller & Parr, IJCAI 1999): the
expected cost and the battery mixes are computed only over each scope, and
the fold of E[V_{t+1}] contracts next-battery digits one device at a time,
each intermediate as wide as the scopes folded so far.

Indexing convention: links are undirected, one link entity (one fading gain)
per sorted undirected edge, in sorted order. A global state index is the
C-order ravel of (gain digits..., battery digits...), devices ascending. Joint
action indices ravel per-device level digits in device order, so index 0 is
all-silent and ties in the solver break toward the lexicographically smallest
action. Only tables over every state, the exact solver's and the table
policies' (`table_rows`), use the flat state index.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChannelChain, RadioParams, inverse_cdf, step_links, waterfall, zero_padded
from .energy import EnergyParams, HarvestModel, battery_step
from .errors import BudgetExceeded, CausalityViolation

DEFAULT_BUDGET = 10_000_000
# Monte Carlo reads slot costs from the cost table up to this many entries, else per sample
COST_TABLE_ENTRIES = 50_000_000


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
    harvest_quanta: list = field(init=False)  # per device: its harvest support in quanta

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def __post_init__(self):
        m = self.topo.m
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.chains = link_chains(self.chains, len(self.topo.edges))
        if len(self.harvests) != m or len(self.power_levels) != m:
            raise ValueError("need one harvest model and one power ladder per device")
        once_each(ChannelChain.validate, self.chains)
        self.power_levels = once_each(power_ladder, self.power_levels)
        self.harvest_quanta = once_each(lambda hv: hv.quanta(self.energy)[0], self.harvests)

    @property
    def m(self) -> int:
        return self.topo.m

    @property
    def n_links(self) -> int:
        return len(self.topo.edges)

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

    @functools.cached_property
    def state_shape(self) -> tuple[int, ...]:
        """Canonical state layout: one axis per link gain, then one per battery."""
        return tuple(self.link_dims + self.bat_dims)

    @property
    def n_battery_cfgs(self) -> int:
        return math.prod(self.bat_dims)

    @property
    def n_states(self) -> int:
        return self.n_channel_cfgs * self.n_battery_cfgs

    @property
    def n_actions(self) -> int:
        return math.prod(self.act_dims)

    @property
    def default_start(self) -> GlobalState:
        """Each link's likeliest gain (argmax of its steady law), every battery full."""
        gains = once_each(lambda c: int(np.argmax(c.steady)), self.chains)
        return GlobalState(gains=tuple(gains), batteries=(self.energy.n_levels - 1,) * self.m)

    # ------------------------------------------------------------------
    # state and action indexing
    # ------------------------------------------------------------------

    def state_index(self, state: GlobalState) -> int:
        coords = list(state.gains) + list(state.batteries)
        return int(np.ravel_multi_index(coords, self.state_shape))

    def state_decode(self, idx: int) -> GlobalState:
        coords = np.unravel_index(idx, self.state_shape)
        L = self.n_links
        return GlobalState(gains=tuple(int(c) for c in coords[:L]),
                           batteries=tuple(int(c) for c in coords[L:]))

    def action_decode(self, a: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unravel_index(a, self.act_dims))

    def powers_of(self, levels) -> np.ndarray:
        """Per-device powers at level digits, (..., m) to (..., m)."""
        return self._ladders[np.arange(self.m), np.asarray(levels)]

    def gains_of(self, digits) -> np.ndarray:
        """Per-link gains at gain digits, (..., L) to (..., L), links in `topo.edges` order."""
        return self._gain_ladders[np.arange(self.n_links), np.asarray(digits)]

    # ------------------------------------------------------------------
    # cached factored model pieces
    # ------------------------------------------------------------------

    @functools.cached_property
    def _ladders(self) -> np.ndarray:
        """(m, W): each device's power ladder, zero-padded to the longest."""
        return zero_padded(self.power_levels)

    @functools.cached_property
    def _gain_ladders(self) -> np.ndarray:
        """(L, W): each link's gain ladder, zero-padded to the longest."""
        return zero_padded([np.asarray(c.levels, dtype=float) for c in self.chains])

    @functools.cached_property
    def psi_stack(self) -> np.ndarray:
        """(L, W, W): each link's transition matrix, zero-padded to the widest chain."""
        return zero_padded([c.psi for c in self.chains])

    @functools.cached_property
    def draw_quanta(self):
        """Per device: int (n_levels_d,), the battery quanta one slot at each level draws."""
        e = self.energy
        return [np.array([e.to_quanta(e.slot_energy(p)) for p in lv]) for lv in self.power_levels]

    @functools.cached_property
    def battery_kernels(self):
        """Per device: (n_levels_d, nb, nb), each fundable row `battery_step`'s pushforward
        under the harvest law, summed in harvest order (a zero-padded harvest adds +0.0,
        keeping the bits); the other rows are identity filler, never selectable."""
        nb = self.energy.n_levels
        draws = zero_padded(self.draw_quanta).astype(np.int64)
        fundable = np.arange(nb) >= draws[..., None]  # (m, W, nb), every device at once
        ks = np.where(fundable[..., None], 0.0, np.eye(nb))
        d, lv, b = np.nonzero(fundable)
        harvest = zero_padded(self.harvest_quanta).astype(np.int64)[d]
        nxt = battery_step(b[:, None], draws[d, lv, None], harvest, self.energy)
        probs = zero_padded([hv.probs for hv in self.harvests])[d]
        np.add.at(ks, (d[:, None], lv[:, None], b[:, None], nxt), probs)
        return [ks[k, :len(dq)] for k, dq in enumerate(self.draw_quanta)]

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
    def top_levels(self) -> np.ndarray:
        """(m, nb): the highest level each battery funds, its count of fundable levels
        less one, as draw_quanta never falls along a ladder."""
        return np.array([feas.sum(axis=0) - 1 for feas in self.feasible_level_masks])

    @functools.cached_property
    def ordered_pairs(self):
        """All (receiver, transmitter, weight, own link, [(other neighbor, link), ...]), one
        per row of the topology's link table, in its order."""
        return [(i, j, w, e, [(k, e_k) for k, e_k in zip(ks, es) if k < self.m])
                for i, j, e, ks, es, w in zip(*(a.tolist() for a in self.topo.links))]

    def cost_table(self) -> np.ndarray:
        """Expected one-slot cost, shape (n_channel_cfgs, n_actions)."""
        return self._cost_table

    @functools.cached_property
    def _cost_table(self) -> np.ndarray:
        dims, L = self.link_dims + self.act_dims, self.n_links
        return link_loss_table(self, dims, lambda d: on_axis(self.power_levels[d], L + d, dims),
                               lambda e: on_axis(self.chains[e].levels, e, dims)
                               ).reshape(self.n_channel_cfgs, self.n_actions)

    # ------------------------------------------------------------------
    # model queries, at one sample or over leading sample axes
    # ------------------------------------------------------------------

    def decoded(self, state, levels) -> tuple[GlobalState, tuple[int, ...]]:
        """(state, levels) with a flat state or joint action index decoded."""
        if isinstance(state, (int, np.integer)):
            state = self.state_decode(int(state))
        if isinstance(levels, (int, np.integer)):
            levels = self.action_decode(int(levels))
        return state, levels

    def one_step_cost(self, state, levels) -> float:
        """Mixing-weighted sum of packet error rates for one (state, action)."""
        state, levels = self.decoded(state, levels)
        return float(sample_costs(self, np.array([state.gains]), np.array([levels]))[0])

    def device_cost(self, state, levels, device: int) -> float:
        """Share of the one-slot cost charged to `device`'s own transmissions.

        Shares sum to the global cost exactly; each device is billed for the
        expected loss on its outgoing links, the quantity its own power level
        controls most directly.
        """
        state, levels = self.decoded(state, levels)
        return float(sample_costs(self, np.array([state.gains]), np.array([levels]), device)[0])

    def one_step_costs(self, states, actions, device: int | None = None) -> np.ndarray:
        """`one_step_cost`, or `device_cost` given `device`, at n flat state and joint
        action indices: (n,), each entry the float its scalar query returns."""
        digits = np.stack(np.unravel_index(np.asarray(states), self.state_shape), axis=-1)
        levels = np.stack(np.unravel_index(np.asarray(actions), self.act_dims), axis=-1)
        return sample_costs(self, digits[:, :self.n_links], levels, device)

    def transition(self, state, levels, max_support: int = 1_000_000) -> dict:
        """Explicit next-state distribution {flat index: prob} (small instances)."""
        state, levels = self.decoded(state, levels)
        branches = []
        for e, chain in enumerate(self.chains):
            row = chain.psi[state.gains[e]]
            branches.append([(g, row[g]) for g in np.nonzero(row)[0]])
        for d in range(self.m):
            row = battery_row(self, d, state.batteries[d], levels[d])
            branches.append([(b, row[b]) for b in np.nonzero(row)[0]])
        size = math.prod(len(b) for b in branches)
        if size > max_support:
            raise BudgetExceeded(f"transition support {count_text(size)} exceeds {max_support}")
        out = {}
        for combo in itertools.product(*branches):
            coords = [c for c, _ in combo]
            prob = float(np.prod([p for _, p in combo]))
            idx = int(np.ravel_multi_index(coords, self.state_shape))
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
            "entities": [list(e) for e in self.topo.edges],  # one link per edge
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


def link_loss_table(mdp: GlobalMdp, shape, power, gain, owner: int | None = None) -> np.ndarray:
    """Sum of w * PER over the ordered pairs, those `owner` transmits on unless None.

    power(d) and gain(e) give device d's power and link e's gain, broadcastable
    to `shape`. Tables put each operand on its own axis (`on_axis`): a pair's PER
    spans only its links and devices, and only the weighted sum into the output
    is full size. Each element sees the same float operations in pair order, so
    tables and samples agree bit for bit.
    """
    pairs = mdp.ordered_pairs if owner is None else mdp.ordered_pairs[mdp.topo.out_links(owner)]
    out = np.zeros(shape)
    for i, j, w, e_own, interf in pairs:
        acc = mdp.radio.noise(i)
        for k, e_k in interf:
            acc = acc + power(k) * gain(e_k)
        out += w * waterfall(mdp.radio.phi, acc, power(j), gain(e_own))
    return out


def on_axis(v: np.ndarray, k: int, dims) -> np.ndarray:
    """Vector `v` laid along axis k of an array of len(dims) axes, broadcastable to it."""
    return v.reshape((-1,) + (1,) * (len(dims) - 1 - k))


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


def once_each(f, objs) -> list:
    """[f(o) for o in objs], f called once per distinct object, such as a shared ladder."""
    done = {k: f(o) for k, o in {id(o): o for o in objs}.items()}
    return [done[id(o)] for o in objs]


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

    def expected_cost(self, s1) -> float:
        if isinstance(s1, GlobalState):
            s1 = self.mdp.state_index(s1)
        return float(self.values[0][s1])

    def as_policy(self):
        return CentralizedPolicy(self.tables)


def contract_leading(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply `mat` along the leading axis of `x` and put the new axis last.

    Bit for bit moveaxis(tensordot(mat, x, ([1], [0])), 0, -1), as one gemm on
    transposed views that never copies a contiguous `x`.
    """
    return np.dot(x.reshape(x.shape[0], -1).T, mat.T).reshape(x.shape[1:] + (mat.shape[0],))


def count_text(n: int) -> str:
    """A count for a message: its digits up to 100 of them, else the power of two at or
    below it, so a size past Python's int-to-str digit limit still prints."""
    return str(n) if n < 10 ** 100 else f"at least 2^{n.bit_length() - 1}"


def check_dp_budget(mdp: GlobalMdp, budget: int) -> None:
    """Raise BudgetExceeded when one slot of the DP, n_states * n_actions, exceeds budget."""
    size = mdp.n_states * mdp.n_actions
    if size > budget:
        raise BudgetExceeded(
            f"state-action product {count_text(size)} exceeds budget {count_text(budget)}; "
            "raise the budget explicitly if this size is intended")


def bellman_slot(mdp: GlobalMdp, v_next: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """One slot of backward induction: (V_t, argmin table) on the canonical layout
    (link digits..., battery digits...), given V_{t+1} on that layout.

    Battery axes are contracted along a tree over devices. Under each level l
    of device d the output keeps only the batteries b >= draw_quanta[d][l]
    that can fund it, and a level no battery can fund is skipped, so
    infeasible (action, battery) pairs are never formed: each joint action
    is scored on exactly the battery configurations where it is feasible.
    Joint actions are scanned in ascending index order and strict improvement
    is required to replace the incumbent, so ties resolve to the lowest index.

    `v_next=None` (V_{T+1} = 0) gives the myopic argmin as a box prefix-min: the
    levels battery b funds are 0..top_d(b), as draw_quanta never falls along a
    ladder, so V_T(c, b) is the least cost over a <= top(b), a running min along
    each level axis, devices last to first. Device d's fold compares entries that
    share a_0..a_{d-1}, so keeping the lower level on ties keeps the lower index.
    """
    link_dims, m, nb, n_a = mdp.link_dims, mdp.m, mdp.energy.n_levels, mdp.n_actions
    shape = mdp.state_shape
    if v_next is None:
        best = mdp.cost_table().reshape((mdp.n_channel_cfgs,) + tuple(mdp.act_dims)).copy()
        arg = np.empty(best.shape, dtype=np.int32)
        arg[...] = np.arange(n_a, dtype=np.int32).reshape(mdp.act_dims)
        for d in range(m, 0, -1):  # device d - 1's level axis
            vals, args = np.moveaxis(best, d, 0), np.moveaxis(arg, d, 0)
            for l in range(1, len(vals)):
                keep = vals[l - 1] <= vals[l]
                np.copyto(vals[l], vals[l - 1], where=keep)
                np.copyto(args[l], args[l - 1], where=keep)
        at = np.ix_(*mdp.top_levels)
        return best[(slice(None),) + at].reshape(shape), arg[(slice(None),) + at].reshape(shape)
    kbs, draws = mdp.battery_kernels, [dq.tolist() for dq in mdp.draw_quanta]
    strides = np.cumprod([1] + mdp.act_dims[::-1])[::-1][1:].tolist()  # C-order action strides
    # per joint action: cost over the link axes, broadcast over the battery axes
    cost_a = np.ascontiguousarray(mdp.cost_table().T).reshape((n_a,) + tuple(link_dims) + (1,) * m)
    best = np.full(shape, np.inf)
    arg = np.zeros(shape, dtype=np.int32)

    def descend(d, x, a, view):
        if d == m:  # canonical layout; `view` cuts each battery axis as x's were cut
            np.add(x, cost_a[a], out=x)
            incumbent = best[view]
            ok = x < incumbent
            np.copyto(incumbent, x, where=ok)
            np.copyto(arg[view], a, where=ok)
            return
        for l, q in enumerate(draws[d]):
            if q < nb:  # the level is fundable at batteries q.., so cut the output there
                descend(d + 1, contract_leading(x, kbs[d][l])[..., q:], a + l * strides[d],
                        view + (slice(q, None),))

    for chain in mdp.chains:  # link axes rotate to the back: (batteries..., links...)
        v_next = contract_leading(v_next, chain.psi)
    descend(0, v_next, 0, (slice(None),) * len(link_dims))
    del descend  # break the closure's self-reference so it is freed by refcount, not gc
    if not np.isfinite(best).all():
        raise CausalityViolation("no feasible action at some state (should not happen)")
    return best, arg


def backward_induction(mdp: GlobalMdp, *, budget: int = DEFAULT_BUDGET) -> Solution:
    """Exact dynamic program over the factored model: one `bellman_slot` per slot,
    the terminal slot without continuation.

    Raises:
        BudgetExceeded: when n_states * n_actions > budget.
    """
    check_dp_budget(mdp, budget)
    values, tables = [None] * mdp.horizon, [None] * mdp.horizon
    v = None
    for t in range(mdp.horizon, 0, -1):
        v, arg = bellman_slot(mdp, v)
        values[t - 1] = v.reshape(-1)
        tables[t - 1] = arg.reshape(-1)
    return Solution(mdp=mdp, values=values, tables=tables)


# ---------------------------------------------------------------------------
# policies: per-device conditional rows, one draw rule
# ---------------------------------------------------------------------------

def sample_act(self, mdp, s_idx: int, t: int, rng=None) -> tuple[int, ...]:
    """Levels at one flat state index, drawn from the policy's rows with rng.random(m).

    One uniform per device, in device order, whatever the rows. Without `rng`
    every device takes its lowest level of positive probability, which for a
    deterministic policy is its level: the inverse CDF of a one-hot row is the
    position of its 1.0 for every u.
    """
    u = rng.random((1, mdp.m)) if rng is not None else np.zeros((1, mdp.m))
    rows = self.rows(mdp, t, np.array([np.unravel_index(s_idx, mdp.state_shape)]))
    return tuple(inverse_cdf(rows, u, mdp.act_dims)[0].tolist())


def table_rows(mdp, table: np.ndarray, digits) -> np.ndarray:
    """One-hot rows of a per-state joint action table at (n, L + m) digits; the only global ravel."""
    s_idx = np.ravel_multi_index(np.asarray(digits).T, mdp.state_shape)
    return mdp.action_one_hot.take(table[s_idx], axis=1)


def table_conditionals(mdp, table: np.ndarray) -> np.ndarray:
    """(m,) + state_shape + (W,): a per-state joint action table's rows, full scope."""
    return mdp.action_one_hot.take(table, axis=1).reshape((mdp.m,) + mdp.state_shape + (-1,))


class CentralizedPolicy:
    """Deterministic time-varying joint policy as per-slot argmin tables."""

    def __init__(self, tables):
        self.tables = [np.asarray(tbl) for tbl in tables]

    def rows(self, mdp, t: int, digits):
        return table_rows(mdp, self.tables[t - 1], digits)

    def conditionals(self, mdp, t: int):
        return table_conditionals(mdp, self.tables[t - 1])

    act = sample_act


# ---------------------------------------------------------------------------
# exact policy evaluation (product-form conditionals) and Monte Carlo
# ---------------------------------------------------------------------------

def expected_cost_rows(mdp: GlobalMdp, conds) -> np.ndarray:
    """E[one-slot cost | s] for every state under per-device conditionals, (n_states,).

    conds[d] holds device d's rows, broadcastable to `state_shape` + (W,) as
    `conditionals` returns them, in its first n_levels_d columns, summing to
    1; any columns beyond are zero padding and are not read. The pairwise PER
    expectation factorizes across devices because, given the state, devices
    draw their levels independently. Each link's gain levels lie on its own
    axis (`on_axis`), as in the cost table, so the survival factors
    exp(-phi·noise/denom) and exp(-phi·p_k·h_k/denom) span only their links;
    each product is formed over the union of its operands' scopes and
    broadcast into the full output, with the same float operations per state
    as over the full layout.
    """
    phi, powers, shape = mdp.radio.phi, mdp.power_levels, mdp.state_shape
    gains = [on_axis(chain.levels, e, shape) for e, chain in enumerate(mdp.chains)]
    out = np.zeros(shape)
    for i, j, w, e_own, interf in mdp.ordered_pairs:
        h_own = gains[e_own]
        cond_j = conds[j]
        acc = cond_j[..., 0]  # silent level: guaranteed loss
        for l, pj in enumerate(powers[j][1:], start=1):
            denom = pj * h_own
            surv = np.exp(-phi * mdp.radio.noise(i) / denom)
            for k, e_k in interf:
                hk = gains[e_k]
                f = 0.0
                for lk, pk in enumerate(powers[k]):
                    if pk == 0.0:
                        f = f + conds[k][..., lk]
                    else:
                        f = f + conds[k][..., lk] * np.exp(-phi * pk * hk / denom)
                surv = surv * f
            acc = acc + cond_j[..., l] * (1.0 - surv)
        out += w * acc
    return out.reshape(-1)


def battery_mixes(mdp: GlobalMdp, conds) -> list:
    """Per device: the policy-mixed battery row on the device's own scope.

    mixes[d][..., b'] = sum_l conds[d][..., l] * kernel_l[b_d, b'] over the
    n_levels_d columns of conds[d]: conds[d]'s shape with battery axis d at
    nb (the kernel reads b_d even where the rows do not) and the next battery
    b' last. One gemm per battery digit b_d.
    """
    L, nb = mdp.n_links, mdp.energy.n_levels
    mixes = []
    for d, kb in enumerate(mdp.battery_kernels):
        cond = conds[d][..., :len(kb)]
        lead, n_own, tail = cond.shape[:L + d], cond.shape[L + d], cond.shape[L + d + 1:-1]
        cond = cond.reshape(math.prod(lead), n_own, math.prod(tail), len(kb))
        mix = np.empty(cond.shape[:1] + (nb,) + cond.shape[2:3] + (nb,))
        for b in range(nb):
            np.matmul(cond[:, b if n_own > 1 else 0], kb[:, b, :], out=mix[:, b])
        mixes.append(mix.reshape(lead + (nb,) + tail + (nb,)))
    return mixes


def backward_expectation(mdp: GlobalMdp, v_next: np.ndarray, mixes) -> np.ndarray:
    """E[v_next(s') | s] for every state, given the policy's `battery_mixes`.

    Contracts the link axes, then folds the next batteries b'_0, ..., b'_{m-1}
    in turn, each with its device's mix, its link axes flattened into one
    channel axis c (`_flat_links`). The running intermediate keeps the state
    axes (c, b_0, ..., b_{m-1}), at length 1 where no mix folded so far reads
    them, then the next batteries still to fold, so it is only as wide as the
    union of the scopes folded so far. Device 0's fold is one gemm per channel
    configuration; each later fold broadcasts the intermediate and the mix to
    the union of their scopes and contracts every state's row with einsum.
    Blocks of channel configurations keep each intermediate at most 2**19
    floats.
    """
    nc, nbc, nb, m = mdp.n_channel_cfgs, mdp.n_battery_cfgs, mdp.energy.n_levels, mdp.m
    mixes = [_flat_links(mdp, mix) for mix in mixes]
    w = v_next.reshape(tuple(mdp.link_dims) + (nbc,))
    for chain in mdp.chains:
        w = contract_leading(w, chain.psi)
    w = w.reshape(nbc, nc).T  # w[c, b'] = E[v_next(c', b') | c]
    scope, width = (1,) * m, 1  # battery axes read so far; widest intermediate per c
    for d, mix in enumerate(mixes):
        scope = tuple(map(max, scope, mix.shape[1:-1]))  # every axis is 1 or full
        width = max(width, math.prod(scope) * nb ** (m - d))
    out = np.empty((nc,) + tuple(mdp.bat_dims))
    cb = max(1, 2 ** 19 // width)  # 4 MB blocks: about 20% faster than 16 MB on desk
    for c0 in range(0, nc, cb):
        c1 = min(c0 + cb, nc)
        y = w[c0:c1].reshape(c1 - c0, nb, -1)
        mix = mixes[0][c0:c1] if len(mixes[0]) > 1 else mixes[0]
        y = np.matmul(mix.reshape(len(mix), -1, nb), y)
        y = y.reshape((c1 - c0,) + mix.shape[1:-1] + (-1,))
        for mix in mixes[1:]:
            mix = mix[c0:c1] if len(mix) > 1 else mix
            batch = tuple(map(max, y.shape[:-1], mix.shape[:-1]))
            r = y.shape[-1] // nb
            mix = _expanded(mix, batch + (nb,))
            y = _expanded(y.reshape(y.shape[:-1] + (nb, r)), batch + (nb, r))
            y = np.einsum("sk,skr->sr", mix.reshape(-1, nb), y.reshape(-1, nb, r))
            y = y.reshape(batch + (r,))
        out[c0:c1] = y[..., 0]
    return out.reshape(-1)


def _flat_links(mdp: GlobalMdp, x: np.ndarray) -> np.ndarray:
    """x, on the `state_shape` axes and then trailing axes, with its link axes flattened
    into one channel axis: a view when x spans every link or none, else a broadcast copy."""
    links, rest = x.shape[:mdp.n_links], x.shape[mdp.n_links:]
    if links != tuple(mdp.link_dims) and math.prod(links) > 1:
        x = _expanded(x, tuple(mdp.link_dims) + rest)
    return x.reshape((-1,) + rest)


def _expanded(x: np.ndarray, shape: tuple) -> np.ndarray:
    """x broadcast to `shape`: x itself when it has that shape, else a new C-order copy."""
    if x.shape == shape:
        return x
    out = np.empty(shape)
    out[...] = x
    return out


def check_eval_budget(mdp: GlobalMdp, budget: int) -> None:
    """Raise BudgetExceeded when exact evaluation's n_states * m * W row entries exceed budget."""
    size = mdp.n_states * mdp.m * max(mdp.act_dims)
    if size > budget:
        raise BudgetExceeded(
            f"exact evaluation needs {count_text(size)} level-row entries "
            f"(states x devices x levels), over the budget {count_text(budget)}")


def evaluate_policy(mdp: GlobalMdp, policy, s1, *, budget: int = DEFAULT_BUDGET) -> float:
    """Exact expected cumulative cost J(policy) from initial state s1.

    Runs the policy's value backward, V_t = c_t + E[V_{t+1}], from the
    policy's per-device conditionals given the global state (every policy in
    this package exposes them), each on its own scope of the canonical state
    layout: `expected_cost_rows` and `battery_mixes` work over those scopes
    and `backward_expectation` folds only the batteries each device reads, so
    V_t is the only full-size array. A policy whose class sets
    `stationary = True` has the same rows at every slot, so its conditionals,
    expected costs and battery mixes are built once rather than per slot. For
    a sampled estimate use `simulate_costs`.

    Raises:
        BudgetExceeded: when n_states * m * W exceeds budget, before anything is built.
    """
    check_eval_budget(mdp, budget)
    T = mdp.horizon
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


def sample_costs(mdp: GlobalMdp, gains, levels, device: int | None = None) -> np.ndarray:
    """One-slot cost of each of n samples at (n, L) gain and (n, m) level digits, or
    `device`'s share of it; every cost query of the model prices through here."""
    return link_loss_table(mdp, len(gains), lambda d: mdp.power_levels[d][levels[:, d]],
                           lambda e: mdp.chains[e].levels[gains[:, e]], device)


def simulate_costs(mdp: GlobalMdp, policy, s1, *, n_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo rollouts of the cumulative cost, all advanced in lockstep.

    The n_samples rollouts move together as one (n_samples, L + m) array of
    state digits, never a flat index, driven by one RNG stream, default_rng(seed).
    Each slot draws, in this order, one uniform per rollout and device for the
    levels (inverse CDF on the policy's rows at the digits), one per rollout and
    link for the gains (`step_links`) and one per rollout and device for the
    batteries (on the battery kernel rows). A slot's cost comes from `cost_table`
    up to COST_TABLE_ENTRIES entries, else from `sample_costs`, bit for bit equal.

    Raises:
        CausalityViolation: when the policy picks a level the battery cannot fund.
    """
    s1 = s1 if isinstance(s1, GlobalState) else mdp.state_decode(int(s1))
    L, m = mdp.n_links, mdp.m
    digits = np.tile(np.array(s1.gains + s1.batteries, dtype=np.int64), (n_samples, 1))
    gains, bats = digits[:, :L], digits[:, L:]
    use_table = mdp.n_channel_cfgs * mdp.n_actions <= COST_TABLE_ENTRIES
    cost_tbl = mdp.cost_table().reshape(mdp.link_dims + mdp.act_dims) if use_table else None
    kernels, devs = zero_padded(mdp.battery_kernels), np.arange(m)[:, None]
    rng = np.random.default_rng(seed)
    totals = np.zeros(n_samples)
    for t in range(1, mdp.horizon + 1):
        levels = inverse_cdf(policy.rows(mdp, t, digits), rng.random((n_samples, m)), mdp.act_dims)
        for d, mask in enumerate(mdp.feasible_level_masks):
            bad = ~mask[levels[:, d], bats[:, d]]
            if bad.any():  # battery_row raises with the first offender's details
                k = int(bad.argmax())
                battery_row(mdp, d, int(bats[k, d]), int(levels[k, d]))
        if use_table:
            totals += cost_tbl[tuple(gains.T) + tuple(levels.T)]
        else:
            totals += sample_costs(mdp, gains, levels)
        gains[:] = step_links(gains, mdp.psi_stack, mdp.link_dims, rng.random((n_samples, L)))
        bats[:] = inverse_cdf(kernels[devs, levels.T, bats.T], rng.random((n_samples, m)),
                              mdp.bat_dims)
    return totals


# ---------------------------------------------------------------------------
# saved artifacts: versioned npz plus a text manifest
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def save_artifact(path, meta: dict, manifest_keys, arrays: dict) -> None:
    """Write `arrays` and the JSON `meta`, uncompressed, to <stem>.npz and `manifest_keys`
    of meta to <stem>.manifest.txt, where `path` is <stem> with or without the .npz suffix."""
    stem = str(path).removesuffix(".npz")
    meta = {"format_version": FORMAT_VERSION, **meta}
    Path(stem).parent.mkdir(parents=True, exist_ok=True)
    np.savez(stem + ".npz", meta=json.dumps(meta, sort_keys=True), **arrays)
    with open(stem + ".manifest.txt", "w") as fh:
        for k in manifest_keys:
            fh.write(f"{k}: {meta[k]}\n")


def load_artifact(path, mdp: GlobalMdp | None, kind: str) -> tuple[dict, dict]:
    """(meta, arrays) of a saved artifact, checked against FORMAT_VERSION, the `kind`
    expected and, given `mdp`, its signature."""
    with np.load(str(path).removesuffix(".npz") + ".npz") as z:
        meta = json.loads(str(z["meta"]))
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported artifact format {meta['format_version']}")
        if meta["kind"] != kind:
            raise ValueError(f"{path} holds a {meta['kind']}, not a {kind}")
        if mdp is not None and meta["mdp_signature"] != mdp.signature():
            raise ValueError(f"{meta['kind']} was produced for a different model")
        return meta, {k: z[k] for k in z.files if k != "meta"}


def save_solution(sol: Solution, path) -> None:
    meta = {"kind": "centralized_solution", "mdp_signature": sol.mdp.signature(),
            "horizon": sol.horizon, "n_states": sol.mdp.n_states,
            "n_actions": sol.mdp.n_actions}
    tables = np.stack(sol.tables).astype(np.min_scalar_type(sol.mdp.n_actions - 1))
    save_artifact(path, meta, ("format_version", "horizon", "kind", "mdp_signature",
                               "n_actions", "n_states"),
                  {"values": np.stack(sol.values), "tables": tables})


def load_solution(path, mdp: GlobalMdp) -> Solution:
    _, arrays = load_artifact(path, mdp, "centralized_solution")
    return Solution(mdp=mdp, values=list(arrays["values"]),
                    tables=[row.astype(np.int32) for row in arrays["tables"]])
