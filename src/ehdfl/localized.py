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
from typing import NamedTuple

import numpy as np

from .mdp import (check_size, contract_leading, link_loss_table, load_artifact, on_axis,
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
        self.n_gain_cfgs, self.n_actions = math.prod(self.link_dims), math.prod(self.act_dims)
        self.n_states = math.prod(self.state_dims)


def build_cover(mdp, owner: int, hops: int) -> Cover:
    devs = k_hop_set(mdp.topo.neighbors, owner, hops)
    edge = mdp.topo.links.edge  # the edges each cover device transmits on
    links = tuple(sorted({e for d in devs for e in edge[mdp.topo.out_links(d)].tolist()}))
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
    dims, nl = cover.link_dims + cover.act_dims, len(cover.links)
    gain = {e: on_axis(mdp.chains[e].levels, k, dims) for e, k in cover.link_pos.items()}
    power = {d: on_axis(mdp.power_levels[d], nl + k, dims) for d, k in cover.dev_pos.items()}
    return link_loss_table(  # a default is read only for an out-of-cover device or link
        mdp, dims, lambda d: power[d] if d in power else mdp.power_levels[d][defaults.level],
        lambda e: gain[e] if e in gain else mdp.chains[e].levels[defaults.gain],
        cover.owner).reshape(cover.n_gain_cfgs, cover.n_actions)


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

class _FoldPlan(NamedTuple):
    """How _expected_own_rows folds one cover's neighbours (see _SynthContext)."""

    q_axes: tuple  # (gains, member actions) -> action-major, the owner's action first
    folds: tuple  # (neighbour, running scope shape), last cover position first
    rows_axes: tuple  # policy rows on the cover state axes -> permuted state axes, levels
    out_axes: tuple  # (levels, cover state axes) -> (levels, permuted state axes)
    out_scope: tuple  # the last fold's scope, length 1 on the axes no fold reads


class _SynthContext:
    """Covers, cost tables, feasibility rows and neighbour views of one synthesis.

    views[i][j] maps a Q table of cover j, (n_gain_cfgs_j, n_actions_j), to a
    strided view on cover i's gain and action digit axes: the table
    extension_state_map and extension_action_map would gather, without the copy
    and without the battery digits Q does not depend on. pi_views[i][j] maps a
    policy table of device j, (n_states_j, n_levels_j), to cover i's state digit
    axes, keeping its trailing level axis. Digits of cover i that cover j lacks
    are length-1 axes.

    fold_plans[i] lays out _expected_own_rows for cover i. Neighbours fold from
    the last cover position to the first, on the cover's state axes permuted so
    that each fold's running scope is a trailing block: links innermost (Q spans
    them from the start), then batteries outward in the order the folds first
    read them (the digits _digit_view keeps of each neighbour's cover), and the
    axes no fold reads outermost. Every product then runs over a contiguous inner
    loop at least n_gain_cfgs long.

    The budget is checked on the covers alone, before any table is built. It
    counts states x actions, within about 4x of the largest table: Q holds gain
    configurations x actions, but _expected_own_rows builds an intermediate of
    states x actions / 4 on the shipped models (16,384 of 65,536 entries on the
    desk ring at hops 2).
    """

    def __init__(self, mdp, hops, gamma, defaults, table_budget):
        self.mdp = mdp
        self.gamma = float(gamma)
        self.defaults = defaults
        self.covers = [build_cover(mdp, i, hops) for i in range(mdp.m)]
        for cov in self.covers:
            check_size(f"cover of device {cov.owner}", cov.n_states * cov.n_actions, table_budget,
                       "table entries (states x actions)")
        self.cost_tables = [localized_cost_table(mdp, c, defaults) for c in self.covers]
        self.views = [{j: _digit_view(ci, self.covers[j], defaults, True) for j in ci.devs}
                      for ci in self.covers]
        self.pi_views = [{j: _digit_view(ci, self.covers[j], defaults, False) for j in ci.devs}
                         for ci in self.covers]
        self.feas_rows = [self._feasible_rows(c) for c in self.covers]
        self.fold_plans = [self._fold_plan(c) for c in self.covers]

    def _fold_plan(self, cover):
        nl, own, ns = len(cover.links), cover.dev_pos[cover.owner], len(cover.state_dims)
        read, folds = [], []  # battery axes in the order the folds first read them
        for pos in range(len(cover.devs) - 1, -1, -1):
            if pos != own:
                cj = self.covers[cover.devs[pos]]
                read += [nl + k for k, d in enumerate(cover.devs)
                         if d in cj.dev_pos and nl + k not in read]
                folds.append((cover.devs[pos], len(read)))
        perm = [a for a in range(nl, ns) if a not in read] + read[::-1] + list(range(nl))
        dims = tuple(cover.state_dims[a] for a in perm)
        acts = [own] + [k for k in range(len(cover.devs)) if k != own]
        return _FoldPlan(q_axes=tuple(1 + k for k in acts) + (0,),
                         folds=tuple((d, dims[ns - nl - n:]) for d, n in folds),
                         rows_axes=tuple(perm) + (ns,),
                         out_axes=(0,) + tuple(1 + a for a in perm),
                         out_scope=(1,) * (ns - nl - len(read)) + dims[ns - nl - len(read):])

    def _feasible_rows(self, cover):
        pos = len(cover.links) + cover.dev_pos[cover.owner]  # the owner's battery digit
        stride = math.prod(cover.state_dims[pos + 1:])
        b = np.arange(cover.n_states) // stride % cover.state_dims[pos]
        # (n_states, nl_owner): the transpose of C-order level-major rows, as masked_softmax reads
        return self.mdp.feasible_level_masks[cover.owner].take(b, axis=1).T


def _digit_view(ci: Cover, cj: Cover, defaults: ExtensionDefaults, actions: bool):
    """View recipe of a cover-j table on cover i's digit axes (see _SynthContext).

    Digits i lacks are fixed at the extension default by basic indexing, and i's
    digits j lacks are inserted as new axes. Both covers list links and devices
    ascending, so the digits j keeps are already in i's order. With actions=True
    the table is a Q table (gain digits, then action digits); with actions=False
    a policy table (state digits, then device j's levels last).
    """
    for own, other in ((ci.link_pos, cj.link_pos), (ci.dev_pos, cj.dev_pos)):
        assert [x for x in other if x in own] == [x for x in own if x in other]
    fill = defaults.level if actions else defaults.battery
    index = (tuple(slice(None) if e in ci.link_pos else defaults.gain for e in cj.links)
             + tuple(slice(None) if d in ci.dev_pos else fill for d in cj.devs))
    expand = (tuple(slice(None) if e in cj.link_pos else None for e in ci.links)
              + tuple(slice(None) if d in cj.dev_pos else None for d in ci.devs))
    shape = cj.link_dims + cj.act_dims if actions else cj.state_dims + (-1,)
    return lambda tbl: tbl.reshape(shape)[index][expand]


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
    """Row-wise softmax of -gamma * rows restricted to feasible columns.

    Level-major on the (n_levels, n) transposes, adding levels in order as numpy's
    row sum does below 8 levels; fastest with `feas` a C-order array's transpose."""
    rows, feas = rows.T, feas.T
    rmin = np.where(feas, rows, np.inf).min(axis=0)
    # Infeasible entries may lie below the feasible minimum; zero their
    # exponent instead of letting exp() overflow before the mask zeroes them.
    w = np.exp(-gamma * np.where(feas, rows - rmin, 0.0)) * feas
    total = w[0].copy()
    for row in w[1:]:
        total += row
    out = np.empty(rows.shape[::-1])
    np.divide(w, total, out=out.T)
    return out


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


def _fold_level_rows(x: np.ndarray, rows: np.ndarray, scope) -> np.ndarray:
    """sum_l x[..., l, :] * rows[..., l] in level order, on a fold's running scope.

    x is (..., n_levels, n_in), its n_in entries the scope's trailing axes; rows is a
    view of shape scope + (n_levels,), length 1 where the neighbour lacks an axis. Each
    level's rows are copied contiguous on the scope, so every product runs over n_in."""
    level = np.empty(scope)
    level[...] = rows[..., 0]
    row = level.reshape(-1, x.shape[-1])
    acc = np.multiply(x[..., 0, None, :], row, order="C")  # "K" would follow x's strides
    for l in range(1, rows.shape[-1]):  # level order keeps the sums bit-identical
        level[...] = rows[..., l]
        acc += x[..., l, None, :] * row
    return acc.reshape(acc.shape[:-2] + (-1,))


def _expected_own_rows(ctx: _SynthContext, i: int, q_i: np.ndarray, policies) -> np.ndarray:
    """E over cover neighbors' policies of Q_i, leaving own action free: (n_states, nl_own),
    the transpose of C-order level-major rows, as masked_softmax reads them."""
    cov, plan = ctx.covers[i], ctx.fold_plans[i]
    x = np.ascontiguousarray(q_i.reshape(cov.n_gain_cfgs, *cov.act_dims).transpose(plan.q_axes))
    for d, scope in plan.folds:
        rows = ctx.pi_views[i][d](policies[d]).transpose(plan.rows_axes)
        x = _fold_level_rows(x, rows.reshape(rows.shape[-1 - len(scope):]), scope)
    out = np.empty((len(x),) + cov.state_dims)  # axes no fold reads broadcast
    out.transpose(plan.out_axes)[...] = x.reshape((len(x),) + plan.out_scope)
    return out.reshape(len(x), cov.n_states).T


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
    _codecs: list = field(default_factory=list, repr=False)

    def codecs(self, mdp):
        """Per device: (digit columns, strides) that ravel its cover's digits (cached)."""
        if not self._codecs:
            for cov in self.covers:
                cols = cov.links + tuple(mdp.n_links + d for d in cov.devs)
                strides = np.cumprod((1,) + cov.state_dims[::-1])[-2::-1]
                self._codecs.append((np.array(cols, dtype=np.intp), strides))
        return self._codecs

    def rows(self, mdp, t: int, digits):
        out = np.zeros((mdp.m, len(digits), max(mdp.act_dims)))
        for i, (tbl, (cols, strides)) in enumerate(zip(self.tables, self.codecs(mdp))):
            out[i, :, :tbl[t - 1].shape[1]] = tbl[t - 1][digits[:, cols] @ strides]
        return out

    def conditionals(self, mdp, t: int):
        """Device i's table reshaped onto its cover's axes of `state_shape`, length 1 on the
        others, padded to W. Cover links and devices ascend as the global axes do, so the
        cover's C-order state index is already that layout: no gather, no transpose."""
        out = []
        for tbl, (cols, _) in zip(self.tables, self.codecs(mdp)):
            axes = set(cols.tolist())
            scope = tuple(n if k in axes else 1 for k, n in enumerate(mdp.state_shape))
            rows = np.zeros(scope + (max(mdp.act_dims),))
            rows[..., :tbl[t - 1].shape[1]] = tbl[t - 1].reshape(scope + (-1,))
            out.append(rows)
        return out

    act = sample_act


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
    meta, arrays = load_artifact(path, mdp, "localized_policy")
    covers = [Cover(**{k: v if isinstance(v, int) else tuple(v) for k, v in c.items()})
              for c in meta["covers"]]
    tables = [[arrays[f"pi_{i}_{t}"] for t in range(meta["horizon"])]
              for i in range(meta["m"])]
    d = meta["defaults"]
    return LocalizedPolicy(hops=meta["hops"], gamma=meta["gamma"], rounds=meta["rounds"],
                           covers=covers, tables=tables, mdp_signature=meta["mdp_signature"],
                           defaults=ExtensionDefaults(gain=d[0], battery=d[1], level=d[2]))
