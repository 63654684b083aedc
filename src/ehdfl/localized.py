"""Localized Q tables and decentralized policy synthesis.

Each device keeps tables over its kappa-hop cover: the gains of links incident
to cover members plus the cover members' batteries, and one power level per
cover member. Synthesis alternates a localized backward recursion (min outside
the expectation) with rounds of neighborhood Q-fusion and softmax response,
using extension defaults whenever a neighbor's table refers to a coordinate
outside the local cover.

The localized Q carries no battery information: the localized cost has no
battery axis and the recursion's min over next actions is unmasked, so Q
lives on gain x action configurations, (n_gain_cfgs, n_actions). Energy reaches
the synthesized policy only through the feasibility masks of the softmax,
whose rows run over the full local states. A battery-aware recursion, with a
feasible min inside the expectation, is an open modelling question.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded
from .mdp import (contract_leading, link_loss_table, load_artifact, policy_conditionals,
                  sample_act, save_artifact)
from .topology import k_hop_set


@dataclass(frozen=True)
class ExtensionDefaults:
    """Digits used for out-of-cover coordinates: gain, battery, power level."""

    gain: int = 0
    battery: int = 0
    level: int = 0


@dataclass(eq=False)
class Cover:
    """One device's kappa-hop view: member devices, incident link entities."""

    owner: int
    hops: int
    devs: tuple[int, ...]
    links: tuple[int, ...]
    link_dims: tuple[int, ...]
    bat_dims: tuple[int, ...]
    act_dims: tuple[int, ...]

    def __post_init__(self):
        self.state_dims = tuple(self.link_dims) + tuple(self.bat_dims)
        self.dev_pos = {d: k for k, d in enumerate(self.devs)}
        self.link_pos = {e: k for k, e in enumerate(self.links)}

    @property
    def n_gain_cfgs(self) -> int:
        return math.prod(self.link_dims)

    @property
    def n_states(self) -> int:
        return math.prod(self.state_dims)

    @property
    def n_actions(self) -> int:
        return math.prod(self.act_dims)


def build_cover(mdp, owner: int, hops: int) -> Cover:
    devs = k_hop_set(mdp.topo.neighbors, owner, hops)
    links = tuple(e for e, (a, b) in enumerate(mdp.entities) if a in devs or b in devs)
    return Cover(owner=owner, hops=hops, devs=tuple(devs), links=links,
                 link_dims=tuple(mdp.chains[e].n for e in links),
                 bat_dims=tuple(mdp.energy.n_levels for _ in devs),
                 act_dims=tuple(len(mdp.power_levels[d]) for d in devs))


# ---------------------------------------------------------------------------
# localized cost
# ---------------------------------------------------------------------------

def localized_cost_table(mdp, cover: Cover,
                         defaults: ExtensionDefaults = ExtensionDefaults()) -> np.ndarray:
    """One-slot cost chargeable to the cover owner, shape (n_gain_cfgs, n_actions).

    The owner's share of the global cost (its outgoing links) from local
    information only: out-of-cover powers take the default level and
    out-of-cover gains the default gain digit.
    """
    ng, na = cover.n_gain_cfgs, cover.n_actions
    gains = np.unravel_index(np.arange(ng), cover.link_dims)
    levels = np.unravel_index(np.arange(na), cover.act_dims)

    def gain_vec(e):
        if e in cover.link_pos:
            return mdp.chains[e].levels[gains[cover.link_pos[e]]]
        return np.full(ng, mdp.chains[e].levels[defaults.gain])

    def power_vec(d):
        if d in cover.dev_pos:
            return mdp.power_levels[d][levels[cover.dev_pos[d]]]
        return np.full(na, mdp.power_levels[d][defaults.level])

    out = np.zeros((ng, na))
    for i, j, w, e_own, interf in mdp.ordered_pairs:
        if j == cover.owner:
            out += link_loss_table(mdp.radio, i, w, power_vec(j), gain_vec(e_own),
                                   [(power_vec(k), gain_vec(e_k)) for k, e_k in interf])
    return out


# ---------------------------------------------------------------------------
# localized backward recursion
# ---------------------------------------------------------------------------

def localized_backward_layer(mdp, cover: Cover, q_next: np.ndarray,
                             cost_tbl: np.ndarray) -> np.ndarray:
    """One step of the localized recursion: c(g, p) + min_p' E[q_next(g', p') | g].

    Tables are (n_gain_cfgs, n_actions). The expectation uses the chains of the
    cover links; the min runs over all joint next actions of the cover,
    unrestricted. No battery kernel enters: a table constant in the batteries
    stays constant under them, so Q needs no battery axis.
    """
    x = q_next.reshape(cover.link_dims + (cover.n_actions,))
    for e in cover.links:  # link axes rotate to the back: (actions, links...)
        x = contract_leading(x, mdp.chains[e].psi)
    return cost_tbl + x.reshape(cover.n_actions, cover.n_gain_cfgs).min(axis=0)[:, None]


# ---------------------------------------------------------------------------
# synthesis context: neighbour table views, feasibility rows
# ---------------------------------------------------------------------------

class _SynthContext:
    """Covers, cost tables, feasibility rows and neighbour views of one synthesis.

    views[i][j] maps a Q table of cover j, (n_gain_cfgs_j, n_actions_j), to a
    strided view on cover i's gain and action digit axes: the table
    extension_state_map and extension_action_map would gather, without the copy
    and without the battery digits Q does not depend on. pi_views[i][j] maps a
    policy table of device j, (n_states_j, n_levels_j), to cover i's state digit
    axes, keeping its trailing level axis. Digits of cover i that cover j lacks
    are length-1 axes. The budget is checked on the covers alone, before any
    table is built. It counts states x actions, within about 4x of the largest
    table: Q holds gain configurations x actions, but _expected_own_rows builds
    an intermediate of states x actions / 4 on the shipped models (16,384 of
    65,536 entries on the desk ring at hops 2).
    """

    def __init__(self, mdp, hops, gamma, defaults, table_budget):
        self.mdp = mdp
        self.gamma = float(gamma)
        self.defaults = defaults
        self.covers = [build_cover(mdp, i, hops) for i in range(mdp.m)]
        for cov in self.covers:
            if cov.n_states * cov.n_actions > table_budget:
                raise BudgetExceeded(
                    f"cover of device {cov.owner} needs {cov.n_states}x{cov.n_actions} table entries")
        self.cost_tables = [localized_cost_table(mdp, c, defaults) for c in self.covers]
        self.views = [{j: _digit_view(ci, self.covers[j], defaults, True) for j in ci.devs}
                      for ci in self.covers]
        self.pi_views = [{j: _digit_view(ci, self.covers[j], defaults, False) for j in ci.devs}
                         for ci in self.covers]
        self.feas_rows = [self._feasible_rows(c) for c in self.covers]

    def _feasible_rows(self, cover):
        digits = np.unravel_index(np.arange(cover.n_states), cover.state_dims)
        b = digits[len(cover.links) + cover.dev_pos[cover.owner]]
        return self.mdp.feasible_level_masks[cover.owner][:, b].T  # (n_states, nl_owner)


def _digit_view(ci: Cover, cj: Cover, defaults: ExtensionDefaults, actions: bool):
    """View recipe of a cover-j table on cover i's digit axes (see _SynthContext).

    Digits i lacks are fixed at the extension default by basic indexing, the rest
    transposed into i's order, and i's digits j lacks inserted as new axes. With
    actions=True the table is a Q table (gain digits, then action digits); with
    actions=False a policy table (state digits, then device j's levels last).
    """
    def keys(c):
        if actions:
            return [("l", e) for e in c.links] + [("a", d) for d in c.devs]
        return [("l", e) for e in c.links] + [("b", d) for d in c.devs] + [("levels", None)]

    ki, kj = keys(ci), keys(cj)
    fill = {"l": defaults.gain, "b": defaults.battery, "a": defaults.level}
    shape = cj.link_dims + cj.act_dims if actions else cj.state_dims + (-1,)
    index = tuple(slice(None) if k in ki else fill[k[0]] for k in kj)
    kept = [k for k in kj if k in ki]
    perm = [kept.index(k) for k in ki if k in kept]
    expand = tuple(slice(None) if k in kept else None for k in ki)
    return lambda tbl: tbl.reshape(shape)[index].transpose(perm)[expand]


def extension_state_map(ci: Cover, cj: Cover, defaults: ExtensionDefaults) -> np.ndarray:
    """Local state index of cover j as seen from each local state of cover i.

    Coordinates j knows about but i does not take the extension defaults.
    """
    digits, nl = np.unravel_index(np.arange(ci.n_states), ci.state_dims), len(ci.links)
    gain, battery = np.full(ci.n_states, defaults.gain), np.full(ci.n_states, defaults.battery)
    coords = [digits[ci.link_pos[e]] if e in ci.link_pos else gain for e in cj.links]
    coords += [digits[nl + ci.dev_pos[d]] if d in ci.dev_pos else battery for d in cj.devs]
    return np.ravel_multi_index(coords, cj.state_dims)


def extension_action_map(ci: Cover, cj: Cover, defaults: ExtensionDefaults) -> np.ndarray:
    """Local joint action index of cover j as seen from each joint action of cover i."""
    levels = np.unravel_index(np.arange(ci.n_actions), ci.act_dims)
    level = np.full(ci.n_actions, defaults.level)
    coords = [levels[ci.dev_pos[d]] if d in ci.dev_pos else level for d in cj.devs]
    return np.ravel_multi_index(coords, cj.act_dims)


def masked_softmax(rows: np.ndarray, gamma: float, feas: np.ndarray) -> np.ndarray:
    """Row-wise softmax of -gamma * rows restricted to feasible columns."""
    rmin = np.min(np.where(feas, rows, np.inf), axis=1, keepdims=True)
    # Infeasible entries may lie below the feasible minimum; zero their
    # exponent instead of letting exp() overflow before the mask zeroes them.
    z = np.where(feas, rows - rmin, 0.0)
    w = np.exp(-gamma * z) * feas
    return w / w.sum(axis=1, keepdims=True)


def _state_rows(cov: Cover, x: np.ndarray) -> np.ndarray:
    """x, on cover state axes (length 1 where it is constant), as (n_states, last axis)."""
    return np.broadcast_to(x, cov.state_dims + x.shape[-1:]).reshape(cov.n_states, -1)


def _init_policy(ctx: _SynthContext, i: int, q1: np.ndarray) -> np.ndarray:
    """pi^1: softmax of the own-action slice of Q^1 with others at the default level."""
    cov = ctx.covers[i]
    own = cov.dev_pos[i]
    levels = np.full((len(cov.devs), cov.act_dims[own]), ctx.defaults.level)
    levels[own] = np.arange(cov.act_dims[own])
    cols = np.ravel_multi_index(levels, cov.act_dims)
    rows = q1[:, cols].reshape(cov.link_dims + (1,) * len(cov.devs) + (-1,))
    return masked_softmax(_state_rows(cov, rows), ctx.gamma, ctx.feas_rows[i])


def _expected_own_rows(ctx: _SynthContext, i: int, q_i: np.ndarray, policies) -> np.ndarray:
    """E over cover neighbors' policies of Q_i, leaving own action free."""
    cov = ctx.covers[i]
    ns = len(cov.state_dims)
    x = q_i.reshape(cov.link_dims + (1,) * len(cov.devs) + tuple(cov.act_dims))
    for pos in range(len(cov.devs) - 1, -1, -1):
        d = cov.devs[pos]
        if d == i:
            continue
        rows = ctx.pi_views[i][d](policies[d])  # i's state axes, then d's levels
        lead, tail = (slice(None),) * (ns + pos), (None,) * (x.ndim - ns - 1)
        acc = x[lead + (0,)] * rows[(..., 0) + tail]
        for l in range(1, cov.act_dims[pos]):  # level order keeps the sums bit-identical
            acc += x[lead + (l,)] * rows[(..., l) + tail]
        x = acc
    return _state_rows(cov, x)  # neighbour rows may leave battery axes at length 1


def _improve_round(ctx: _SynthContext, q_list, pi_list):
    """One fusion + softmax-response round; simultaneous policy update."""
    m = ctx.mdp.m
    q_new = []
    for i in range(m):
        cov = ctx.covers[i]
        acc = np.zeros(cov.link_dims + tuple(cov.act_dims))
        for j in cov.devs:
            acc += ctx.views[i][j](q_list[j])
        q_new.append((acc / len(cov.devs)).reshape(cov.n_gain_cfgs, cov.n_actions))
    pi_new = []
    for i in range(m):
        rows = _expected_own_rows(ctx, i, q_new[i], pi_list)
        pi_new.append(masked_softmax(rows, ctx.gamma, ctx.feas_rows[i]))
    return q_new, pi_new


# ---------------------------------------------------------------------------
# full synthesis
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LocalizedPolicy:
    """Per-device stochastic power policies over kappa-hop local states."""

    hops: int
    gamma: float
    rounds: int
    covers: list
    tables: list  # tables[i][t-1]: (n_states_i, n_levels_i)
    mdp_signature: str
    defaults: ExtensionDefaults = field(default_factory=ExtensionDefaults)
    _proj: list = field(default_factory=list, repr=False)

    def projections(self, mdp):
        """Per device: local state index for every global state index (cached)."""
        if not self._proj:
            digits = np.unravel_index(np.arange(mdp.n_states), mdp.link_dims + mdp.bat_dims)
            for cov in self.covers:
                coords = [digits[e] for e in cov.links] + [digits[mdp.n_links + d] for d in cov.devs]
                self._proj.append(np.ravel_multi_index(coords, cov.state_dims))
        return self._proj

    def rows(self, mdp, t: int, s_idx):
        out = np.zeros((mdp.m, len(s_idx), max(mdp.act_dims)))
        for i, (tbl, proj) in enumerate(zip(self.tables, self.projections(mdp))):
            out[i, :, :tbl[t - 1].shape[1]] = tbl[t - 1][proj[s_idx]]
        return out

    act = sample_act
    conditionals = policy_conditionals


def synthesize(mdp, *, hops: int = 2, gamma: float = 1.0, rounds: int = 20,
               defaults: ExtensionDefaults | None = None,
               snapshot_rounds=None, table_budget: int = 50_000_000):
    """Run the decentralized synthesis.

    Returns a LocalizedPolicy, or {R: LocalizedPolicy} when snapshot_rounds is
    given (R = number of improvement rounds applied; R = 0 is the softmax
    initialization). rounds = 0 returns the initialization.

    Raises BudgetExceeded when any cover's table exceeds table_budget entries.
    """
    if rounds < 0 or hops < 0:
        raise ValueError("rounds and hops must be >= 0")
    if defaults is None:
        defaults = ExtensionDefaults()
    ctx = _SynthContext(mdp, hops, gamma, defaults, table_budget)
    T = mdp.horizon
    m = mdp.m
    snaps = sorted(set(snapshot_rounds)) if snapshot_rounds is not None else [rounds]
    if snapshot_rounds is not None and (min(snaps) < 0 or max(snaps) > rounds):
        raise ValueError("snapshot_rounds must lie within [0, rounds]")
    store = {R: [[None] * T for _ in range(m)] for R in snaps}

    q_next = None
    for t in range(T, 0, -1):
        if q_next is None:
            q1 = ctx.cost_tables
        else:
            q1 = [localized_backward_layer(mdp, ctx.covers[i], q_next[i], ctx.cost_tables[i])
                  for i in range(m)]
        pi = [_init_policy(ctx, i, q1[i]) for i in range(m)]
        if 0 in store:
            for i in range(m):
                store[0][i][t - 1] = pi[i].copy()
        q_r = q1
        for r in range(1, rounds + 1):
            q_r, pi = _improve_round(ctx, q_r, pi)
            if r in store:
                for i in range(m):
                    store[r][i][t - 1] = pi[i].copy()
        q_next = q1

    sig = mdp.signature()

    def make(R):
        return LocalizedPolicy(hops=hops, gamma=gamma, rounds=R, covers=ctx.covers,
                               tables=store[R], mdp_signature=sig, defaults=defaults)

    if snapshot_rounds is None:
        return make(rounds)
    return {R: make(R) for R in snaps}


def policy_distance(pa: LocalizedPolicy, pb: LocalizedPolicy) -> np.ndarray:
    """Sup (over local states) total variation per (device, slot); shape (m, T)."""
    if len(pa.tables) != len(pb.tables):
        raise ValueError("policies cover different device counts")
    m = len(pa.tables)
    T = len(pa.tables[0])
    out = np.zeros((m, T))
    for i in range(m):
        if len(pa.tables[i]) != len(pb.tables[i]):
            raise ValueError("policies have different horizons")
        for t in range(T):
            a, b = pa.tables[i][t], pb.tables[i][t]
            if a.shape != b.shape:
                raise ValueError("policy tables have mismatched shapes; same hops required")
            out[i, t] = 0.5 * np.abs(a - b).sum(axis=1).max()
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_localized(pol: LocalizedPolicy, path) -> None:
    meta = {
        "kind": "localized_policy",
        "hops": pol.hops,
        "gamma": pol.gamma,
        "rounds": pol.rounds,
        "defaults": [pol.defaults.gain, pol.defaults.battery, pol.defaults.level],
        "mdp_signature": pol.mdp_signature,
        "m": len(pol.tables),
        "horizon": len(pol.tables[0]),
        "covers": [dataclasses.asdict(c) for c in pol.covers],
    }
    arrays = {f"pi_{i}_{t}": pol.tables[i][t]
              for i in range(len(pol.tables)) for t in range(len(pol.tables[i]))}
    save_artifact(path, meta, ("kind", "format_version", "m", "horizon", "hops", "gamma",
                               "rounds", "mdp_signature"), arrays)


def load_localized(path, mdp=None) -> LocalizedPolicy:
    meta, arrays = load_artifact(path, mdp)
    covers = [Cover(**{k: v if isinstance(v, int) else tuple(v) for k, v in c.items()})
              for c in meta["covers"]]
    tables = [[arrays[f"pi_{i}_{t}"] for t in range(meta["horizon"])]
              for i in range(meta["m"])]
    d = meta["defaults"]
    return LocalizedPolicy(hops=meta["hops"], gamma=meta["gamma"], rounds=meta["rounds"],
                           covers=covers, tables=tables, mdp_signature=meta["mdp_signature"],
                           defaults=ExtensionDefaults(gain=d[0], battery=d[1], level=d[2]))
