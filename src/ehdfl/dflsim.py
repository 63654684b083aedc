"""Slot-level training simulator: local SGD plus lossy gossip over the radio model."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channel import inverse_cdf, packet_error_rate, step_links, zero_padded
from .energy import battery_step
from .mdp import GlobalMdp, GlobalState

# Sub-stream roles under the run seed; per-device streams spawn as (role, device).
_ROLE_POLICY = 0
_ROLE_CHANNEL = 1
_ROLE_HARVEST = 2


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def local_sgd(task, i: int, w, *, k_steps: int, eta: float):
    """Run K full-batch local steps from w, (..., d); return (w_new, sup of squared grad norms).

    Leading axes of w index independent models; the sup has their shape.
    """
    w = np.array(w, dtype=float, copy=True)
    sup_sq = np.zeros(w.shape[:-1])
    for _ in range(k_steps):
        g = task.local_grad(i, w)
        gg = np.matmul(g[..., None, :], g[..., None])[..., 0, 0]
        sup_sq = np.where(gg > sup_sq, gg, sup_sq)
        w -= eta * g
    return w, sup_sq


def gossip_passes(topo) -> list:
    """`apply_gossip`'s passes: pass r holds each device's r-th contribution in ascending j,
    self included, as (receivers, transmitters, rows, weights); row P + i is i's own."""
    lk, own = topo.links, np.arange(topo.m)
    rx, tx = np.concatenate([lk.rx, own]), np.concatenate([lk.tx, own])
    order = np.lexsort((tx, rx))
    rank = np.arange(len(order)) - np.searchsorted(rx[order], rx[order])
    weight = np.concatenate([lk.weight, topo.self_weights])
    return [(rx[at], tx[at], at, weight[at]) for at in (order[rank == r]
                                                       for r in range(rank.max() + 1))]


def apply_gossip(models, deltas, beta, delivered, passes):
    """One aggregation slot over (S, m, d) models and deltas; returns the new models.

    Device i adds a_ij * delta_j for every transmitting neighbor whose packet arrived
    (beta (S, m), delivered (S, P) on the link table's rows) and a_ii * delta_i for
    itself, in ascending j order (self included), so a reference recursion written the
    same way matches bit for bit: pass r of `gossip_passes` adds every device's r-th.
    """
    heard = np.concatenate([delivered, np.ones(beta.shape, dtype=bool)], axis=1)
    out = models.copy()
    for rx, tx, row, weight in passes:
        gate = (beta[:, tx] != 0) & heard[:, row]
        acc = out[:, rx]
        out[:, rx] = np.where(gate[..., None], acc + weight[:, None] * deltas[:, tx], acc)
    return out


@dataclass
class DflRun:
    """Trajectory record of the seeds of one `run_training` call.

    Every array leads with the seed axis (row k is the k-th seed asked for);
    per-slot axes follow, 1-based slot t at index t-1. `run[k]` is seed k's
    own record, with the seed axis dropped.
    """

    horizon: int
    wbar: np.ndarray           # (S, T+1, d) average model at slot starts, then final
    consensus: np.ndarray      # (S, T+1) sum_i ||w_i - wbar||^2
    grad_norm_sq: np.ndarray   # (S, T) ||grad F(wbar_t)||^2 at slot starts
    global_loss: np.ndarray    # (S, T+1)
    device_loss: np.ndarray    # (S, T+1) mean_i F(w_i); carries the consensus penalty
    opt_gap: np.ndarray        # (S, T+1) F(wbar) - F*
    energy_spent: np.ndarray   # (S, T) joules summed over devices
    packets_sent: np.ndarray   # (S, T) int
    packets_dropped: np.ndarray  # (S, T) int
    beta: np.ndarray           # (S, T, m) participation indicators
    per: np.ndarray            # (S, T, P) q on each link of `topo.links`, 0 if its tx is silent
    actions: np.ndarray        # (S, T, m) chosen level indices
    batteries: np.ndarray      # (S, T+1, m) joules at slot starts
    sup_grad_sq: np.ndarray    # (S,) max squared stochastic-gradient norm seen
    final_models: np.ndarray   # (S, m, d)
    models: np.ndarray         # (S, T, m, d) models at slot starts if recorded, else (S, 0, m, d)
    deltas: np.ndarray         # (S, T, m, d) local updates if recorded, else (S, 0, m, d)

    def __getitem__(self, k: int) -> DflRun:
        return DflRun(self.horizon, *(getattr(self, f.name)[k] for f in fields(self)[1:]))


def run_training(mdp: GlobalMdp, task, policy, *, seeds, eta: float,
                 per_override: float | None = None,
                 s1: GlobalState | None = None, record_models: bool = False) -> DflRun:
    """Co-simulate radio and decentralized training for the model's T slots, every seed at once.

    Every device starts from the zero model and takes full-batch local steps.
    per_override, when given, replaces every link's packet-error probability
    with a constant (0.0 forces lossless delivery); the channel process still
    advances so trajectories stay comparable across override settings.

    The seeds advance in lockstep as (S, ·) arrays, and each seed's record is
    the one a run of that seed alone gives, bit for bit. Each seed has its own
    policy, channel and per-device harvest streams. Each slot, a seed's policy
    stream gives random(m) for the levels, drawn from the policy's rows at the
    seed's state digits; its channel stream gives random(n_active + L), the first
    n_active for the packet outcomes of the links with an active transmitter, in
    ascending (receiver, transmitter) order, the last L for the link step; each harvest
    stream gives one uniform, drawn through `inverse_cdf` on the device's harvest law.

    Raises:
        CausalityViolation: when the policy picks a level the battery cannot fund.
    """
    topo, radio, energy = mdp.topo, mdp.radio, mdp.energy
    m, n_links, n_seeds, horizon = topo.m, mdp.n_links, len(seeds), mdp.horizon
    s1 = mdp.default_start if s1 is None else s1
    d = task.dim

    # The policy and harvest streams feed only their own draws, so every slot's
    # uniforms are drawn up front; channel draws depend on who transmits.
    pol_u = np.array([_stream(s, _ROLE_POLICY).random((horizon, m))
                      for s in seeds]).reshape(n_seeds, horizon, m)
    harvest_u = np.array([[_stream(s, _ROLE_HARVEST, i).random(horizon) for s in seeds]
                          for i in range(m)]).reshape(m, -1).T  # (S * T, m)
    picks = inverse_cdf(zero_padded([hv.probs for hv in mdp.harvests])[:, None], harvest_u,
                        [len(hv.probs) for hv in mdp.harvests])
    harvest = zero_padded(mdp.harvest_quanta).astype(np.int64)[np.arange(m), picks].reshape(
        n_seeds, horizon, m)
    rng_chan = [_stream(s, _ROLE_CHANNEL) for s in seeds]

    links, passes = topo.links, gossip_passes(topo)
    receiver_major = np.lexsort((links.tx, links.rx))  # the channel stream's draw order
    unpermute = np.argsort(receiver_major)
    draws = zero_padded(mdp.draw_quanta).astype(int)
    gains = np.tile(np.asarray(s1.gains, dtype=np.int64), (n_seeds, 1))
    quanta = np.tile(np.asarray(s1.batteries, dtype=np.int64), (n_seeds, 1))
    models = np.zeros((n_seeds, m, d))
    recorded = horizon if record_models else 0

    def zeros(*shape, dtype=float):
        return np.zeros((n_seeds, *shape), dtype=dtype)

    rec = DflRun(
        horizon, wbar=zeros(horizon + 1, d), consensus=zeros(horizon + 1),
        grad_norm_sq=zeros(horizon), global_loss=zeros(horizon + 1),
        device_loss=zeros(horizon + 1), opt_gap=zeros(horizon + 1), energy_spent=zeros(horizon),
        packets_sent=zeros(horizon, dtype=np.int64), packets_dropped=zeros(horizon, dtype=np.int64),
        beta=zeros(horizon, m, dtype=np.int64), per=zeros(horizon, len(links.rx)),
        actions=zeros(horizon, m, dtype=np.int64), batteries=zeros(horizon + 1, m),
        sup_grad_sq=zeros(), final_models=models, models=zeros(recorded, m, d),
        deltas=zeros(recorded, m, d))
    f_star = task.f_star

    def log_point(row: int) -> None:
        wbar = rec.wbar[:, row] = np.mean(models, axis=1)
        spread = np.sum((models - wbar[:, None]) ** 2, axis=-1)
        for i in range(m):  # in device order, as a scalar sum over devices runs
            rec.consensus[:, row] += spread[:, i]
        losses = task.global_loss(np.concatenate([wbar[:, None], models], axis=1))
        rec.global_loss[:, row] = losses[:, 0]
        rec.device_loss[:, row] = np.mean(losses[:, 1:], axis=-1)
        rec.opt_gap[:, row] = rec.global_loss[:, row] - f_star

    for t in range(horizon):
        rec.batteries[:, t] = quanta * energy.quantum
        log_point(t)
        rec.grad_norm_sq[:, t] = np.sum(task.global_grad(rec.wbar[:, t]) ** 2, axis=-1)

        levels = rec.actions[:, t] = inverse_cdf(
            policy.rows(mdp, t + 1, np.hstack([gains, quanta])), pol_u[:, t], mdp.act_dims)
        powers = mdp.powers_of(levels)
        beta = powers > 0
        rec.beta[:, t] = beta

        # Local SGD for participating devices.
        deltas = np.zeros((n_seeds, m, d))
        for i in range(m):
            on = beta[:, i]
            if on.any():
                w_new, sup_sq = local_sgd(task, i, models[on, i], k_steps=energy.k_steps,
                                          eta=eta)
                deltas[on, i] = w_new - models[on, i]
                best = rec.sup_grad_sq[on]
                rec.sup_grad_sq[on] = np.where(sup_sq > best, sup_sq, best)
        if record_models:
            rec.models[:, t], rec.deltas[:, t] = models, deltas

        # Packet outcomes on the directed links with an active transmitter.
        active = beta[:, links.tx]
        n_active = active.sum(axis=1)
        u = [rng.random(n + n_links) for rng, n in zip(rng_chan, n_active.tolist())]
        offsets = np.cumsum([0] + [len(x) for x in u])[:-1, None]
        u = np.concatenate(u) if u else np.zeros(0)
        if per_override is None:  # every seed and link at once; only the active ones are read
            q = packet_error_rate(powers, mdp.gains_of(gains), topo, radio, links.rx, links.tx)
        else:
            q = np.full(active.shape, float(per_override))
        # an active link's uniform sits at its receiver-major rank among the seed's active links
        rank = np.cumsum(active[:, receiver_major], axis=1)[:, unpermute] - 1
        ok = u[offsets + rank] >= q
        rec.per[:, t] = np.where(active, q, 0.0)
        rec.packets_sent[:, t] = n_active
        rec.packets_dropped[:, t] = (active & ~ok).sum(axis=1)

        models = apply_gossip(models, deltas, beta, active & ok, passes)

        # Energy bookkeeping and exogenous processes.
        spend = draws[np.arange(m), levels]
        for i in range(m):
            rec.energy_spent[:, t] += spend[:, i] * energy.quantum
        quanta = battery_step(quanta, spend, harvest[:, t], energy)
        gains = step_links(gains, mdp.psi_stack, mdp.link_dims,
                           u[offsets + n_active[:, None] + np.arange(n_links)])

    rec.batteries[:, horizon] = quanta * energy.quantum
    log_point(horizon)
    rec.final_models = models
    return rec


@dataclass(frozen=True)
class Theorem1Bound:
    terms: tuple
    total: float
    eta: float


def convergence_bound(consts, lam: float, topo, horizon: int, f_gap: float,
                      beta, per) -> Theorem1Bound:
    """Six-term rate certificate for the time-averaged squared gradient norm.

    f_gap is the initial optimality gap F(wbar_1) - F*. beta is (T, m) and per
    is (T, P), per[t, p] the error probability on link p of `topo.links`. The
    last term runs over all ordered pairs i != j: the links, each weighted by
    its a_ij, and the m - 1 - deg j non-neighbors of each transmitter j, whose
    zero weight leaves (1 - beta_j) each.
    """
    lip, k, m, lk = consts.lipschitz, consts.k_steps, topo.m, topo.links
    g2, c1, t_hor = consts.grad_bound ** 2, consts.c1, float(horizon)
    beta = np.asarray(beta, dtype=float)

    term1 = 256.0 * lip * f_gap / np.sqrt(m * t_hor)
    term2 = np.sqrt(m) * c1 / (2.0 * k * np.sqrt(t_hor))
    term3 = m * c1 / (256.0 * k * t_hor)
    term4 = np.sqrt(m) * (c1 + 4.0 * k * g2) / (128.0 * (1.0 - lam) * k * t_hor ** 1.5)
    term5 = m * (c1 + 4.0 * k * g2) / (128.0 ** 2 * (1.0 - lam) * k * t_hor ** 2)

    on_links = ((m - 1) * lk.weight * per - 1.0) * beta[:, lk.tx] + 1.0
    off_links = (m - 1 - np.bincount(lk.tx, minlength=m)) * (1.0 - beta)
    acc = float(on_links.sum() + off_links.sum())
    term6 = 4.0 * (k * lip + np.sqrt(k)) * g2 / ((m - 1) * k * t_hor) * acc

    terms = tuple(map(float, (term1, term2, term3, term4, term5, term6)))
    return Theorem1Bound(terms=terms, total=float(sum(terms)), eta=consts.eta)
