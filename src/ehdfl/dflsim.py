"""Slot-level training simulator: local SGD plus lossy gossip over the radio model."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channel import packet_error_rate, step_links
from .errors import CausalityViolation
from .mdp import GlobalMdp, GlobalState, _draw, _zero_padded

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


def apply_gossip(models, deltas, beta, zeta, mixing, neighbors):
    """One aggregation slot over (S, m, d) models and deltas; returns the new models.

    Device i adds a_ij * zeta_ij * delta_j for every transmitting neighbor
    (beta (S, m), zeta (S, m, m) receiver-major) and a_ii * delta_i for itself.
    Contributions accumulate in ascending j order (self included at its sorted
    position) so a reference recursion written the same way matches bit for
    bit: pass r adds every device's r-th contribution at once.
    """
    order = [sorted(set(neighbors[i]) | {i}) for i in range(models.shape[1])]
    out = models.copy()
    for r in range(max(map(len, order))):
        rx = np.array([i for i, js in enumerate(order) if r < len(js)])
        tx = np.array([order[i][r] for i in rx])
        gate = (beta[:, tx] != 0) & ((zeta[:, rx, tx] != 0.0) | (rx == tx))
        acc = out[:, rx]
        out[:, rx] = np.where(gate[..., None], acc + mixing[rx, tx, None] * deltas[:, tx], acc)
    return out


METRICS_HEADER = ("slot", "grad_norm_sq_avg_model", "consensus", "global_loss",
                  "device_loss", "opt_gap", "energy_spent_total", "packets_sent",
                  "packets_dropped")


@dataclass
class DflRun:
    """Trajectory record of the seeds of one `run_training` call.

    Every array leads with the seed axis (row k is the k-th seed asked for);
    per-slot axes follow, 1-based slot t at index t-1. `run[k]` is seed k's
    own record, with the seed axis dropped.
    """

    horizon: int
    m: int
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
    per: np.ndarray            # (S, T, m, m) q for receiver i <- transmitter j, 0 elsewhere
    actions: np.ndarray        # (S, T, m) chosen level indices
    batteries: np.ndarray      # (S, T+1, m) joules at slot starts
    sup_grad_sq: np.ndarray    # (S,) max squared stochastic-gradient norm seen
    final_models: np.ndarray   # (S, m, d)
    models: np.ndarray         # (S, T, m, d) models at slot starts if recorded, else (S, 0, m, d)
    deltas: np.ndarray         # (S, T, m, d) local updates if recorded, else (S, 0, m, d)

    def __getitem__(self, k: int) -> DflRun:
        return DflRun(self.horizon, self.m,
                      *(getattr(self, f.name)[k] for f in fields(self)[2:]))

    def time_avg_grad_sq(self) -> float:
        return float(np.mean(self.grad_norm_sq))

    def csv_rows(self):
        """Yield (header, rows) for the per-slot metrics file of a one-seed record."""
        header = list(METRICS_HEADER)
        rows = []
        for t in range(self.horizon):
            rows.append([t + 1, self.grad_norm_sq[t], self.consensus[t],
                         self.global_loss[t], self.device_loss[t], self.opt_gap[t],
                         self.energy_spent[t], int(self.packets_sent[t]),
                         int(self.packets_dropped[t])])
        return header, rows


def run_training(mdp: GlobalMdp, task, policy, *, seeds, eta: float,
                 horizon: int | None = None, per_override: float | None = None,
                 s1: GlobalState | None = None, record_models: bool = False) -> DflRun:
    """Co-simulate the radio process and decentralized training for T slots, every seed at once.

    Every device starts from the zero model and takes full-batch local steps.
    per_override, when given, replaces every link's packet-error probability
    with a constant (0.0 forces lossless delivery); the channel process still
    advances so trajectories stay comparable across override settings.

    The seeds advance in lockstep as (S, ·) arrays, and each seed's record is
    the one a run of that seed alone gives, bit for bit. Each seed has its own
    policy, channel and per-device harvest streams. Each slot, a seed's policy
    stream gives random(m) for the levels, drawn from the policy's rows at the
    seed's state digits; its channel stream gives random(n_active + L), the first
    n_active for the packet outcomes of the directed links with an active
    transmitter, in ascending (receiver, transmitter) order, the last L for
    the link step; each harvest stream gives one uniform.

    Raises:
        CausalityViolation: when the policy picks a level the battery cannot fund.
    """
    topo, radio, energy = mdp.topo, mdp.radio, mdp.energy
    m, n_links, n_seeds = topo.m, mdp.n_links, len(seeds)
    horizon = mdp.horizon if horizon is None else horizon
    s1 = mdp.default_start if s1 is None else s1
    d = task.dim

    # The policy and harvest streams feed only their own draws, so every slot's
    # uniforms are drawn up front; channel draws depend on who transmits.
    pol_u = np.array([_stream(s, _ROLE_POLICY).random((horizon, m))
                      for s in seeds]).reshape(n_seeds, horizon, m)
    harvest = np.zeros((n_seeds, horizon, m), dtype=np.int64)
    for i, (hv, amounts) in enumerate(zip(mdp.harvests, mdp.harvest_quanta)):
        for k, s in enumerate(seeds):
            u = _stream(s, _ROLE_HARVEST, i).random(horizon)
            harvest[k, :, i] = amounts[hv.cdf.searchsorted(u, side="right")]
    rng_chan = [_stream(s, _ROLE_CHANNEL) for s in seeds]

    pair_rx, pair_tx = np.array([(i, j) for i in range(m) for j in sorted(topo.neighbors[i])],
                                dtype=np.int64).reshape(-1, 2).T
    ladders, draws = _zero_padded(mdp.power_levels), _zero_padded(mdp.draw_quanta).astype(int)
    devs, seed_rows = np.arange(m), np.arange(n_seeds)[:, None]
    gains = np.tile(np.asarray(s1.gains, dtype=np.int64), (n_seeds, 1))
    quanta = np.tile(np.asarray(s1.batteries, dtype=np.int64), (n_seeds, 1))
    models = np.zeros((n_seeds, m, d))
    recorded = horizon if record_models else 0

    rec = DflRun(
        horizon=horizon, m=m,
        wbar=np.zeros((n_seeds, horizon + 1, d)),
        consensus=np.zeros((n_seeds, horizon + 1)),
        grad_norm_sq=np.zeros((n_seeds, horizon)),
        global_loss=np.zeros((n_seeds, horizon + 1)),
        device_loss=np.zeros((n_seeds, horizon + 1)),
        opt_gap=np.zeros((n_seeds, horizon + 1)),
        energy_spent=np.zeros((n_seeds, horizon)),
        packets_sent=np.zeros((n_seeds, horizon), dtype=np.int64),
        packets_dropped=np.zeros((n_seeds, horizon), dtype=np.int64),
        beta=np.zeros((n_seeds, horizon, m), dtype=np.int64),
        per=np.zeros((n_seeds, horizon, m, m)),
        actions=np.zeros((n_seeds, horizon, m), dtype=np.int64),
        batteries=np.zeros((n_seeds, horizon + 1, m)),
        sup_grad_sq=np.zeros(n_seeds),
        final_models=models,
        models=np.zeros((n_seeds, recorded, m, d)),
        deltas=np.zeros((n_seeds, recorded, m, d)),
    )
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

        levels = rec.actions[:, t] = _draw(policy.rows(mdp, t + 1, np.hstack([gains, quanta])),
                                           pol_u[:, t], mdp.act_dims)
        powers = ladders[devs, levels]
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
        active = beta[:, pair_tx]
        n_active = active.sum(axis=1)
        u = [rng.random(n + n_links) for rng, n in zip(rng_chan, n_active.tolist())]
        offsets = np.cumsum([0] + [len(x) for x in u])[:-1, None]
        u = np.concatenate(u) if u else np.zeros(0)
        gain_mat = np.zeros((n_seeds, m, m))
        for e, (a, b) in enumerate(mdp.entities):
            gain_mat[:, a, b] = gain_mat[:, b, a] = mdp.chains[e].levels[gains[:, e]]
        q = np.full(active.shape, 0.0 if per_override is None else float(per_override))
        if per_override is None:
            for k, p in zip(*np.nonzero(active)):
                q[k, p] = packet_error_rate(powers[k], gain_mat[k], topo, radio,
                                            pair_rx[p], pair_tx[p])
        # an active link's uniform sits at its rank among the seed's active links
        ok = u[offsets + np.cumsum(active, axis=1) - 1] >= q
        rec.per[seed_rows, t, pair_rx, pair_tx] = np.where(active, q, 0.0)
        zeta = np.zeros((n_seeds, m, m))
        zeta[seed_rows, pair_rx, pair_tx] = active & ok
        rec.packets_sent[:, t] = n_active
        rec.packets_dropped[:, t] = (active & ~ok).sum(axis=1)

        models = apply_gossip(models, deltas, beta, zeta, topo.mixing, topo.neighbors)

        # Energy bookkeeping and exogenous processes.
        spend = draws[devs, levels]
        for i in range(m):
            rec.energy_spent[:, t] += spend[:, i] * energy.quantum
        if (spend > quanta).any():
            k, i = np.argwhere(spend > quanta)[0]
            raise CausalityViolation(f"seed {seeds[k]}: device {i} spends {spend[k, i]} "
                                     f"quanta from a battery of {quanta[k, i]}")
        quanta = np.minimum(quanta - spend + harvest[:, t], energy.n_levels - 1)
        gains = step_links(gains, mdp.chains, u[offsets + n_active[:, None]
                                                + np.arange(n_links)])

    rec.batteries[:, horizon] = quanta * energy.quantum
    log_point(horizon)
    rec.final_models = models
    return rec


@dataclass(frozen=True)
class Theorem1Bound:
    terms: tuple
    total: float
    eta: float


def convergence_bound(consts, lam: float, m: int, horizon: int, f_gap: float,
                      beta, per, mixing) -> Theorem1Bound:
    """Six-term rate certificate for the time-averaged squared gradient norm.

    f_gap is the initial optimality gap F(wbar_1) - F*. beta is (T, m) and per
    is (T, m, m) with per[t, i, j] the error probability on receiver i's link
    from transmitter j (rows for non-neighbors are ignored via mixing zeros).
    The last term runs over all ordered pairs i != j; for non-neighbors the
    mixing weight is zero, so each such pair contributes (1 - beta_j).
    """
    lip, k = consts.lipschitz, consts.k_steps
    g2 = consts.grad_bound ** 2
    c1 = consts.c1
    t_hor = float(horizon)
    beta = np.asarray(beta, dtype=float)
    per = np.asarray(per, dtype=float)

    term1 = 256.0 * lip * f_gap / np.sqrt(m * t_hor)
    term2 = np.sqrt(m) * c1 / (2.0 * k * np.sqrt(t_hor))
    term3 = m * c1 / (256.0 * k * t_hor)
    term4 = np.sqrt(m) * (c1 + 4.0 * k * g2) / (128.0 * (1.0 - lam) * k * t_hor ** 1.5)
    term5 = m * (c1 + 4.0 * k * g2) / (128.0 ** 2 * (1.0 - lam) * k * t_hor ** 2)

    acc = 0.0
    for t in range(int(t_hor)):
        for j in range(m):
            for i in range(m):
                if i == j:
                    continue
                acc += ((m - 1) * mixing[i, j] * per[t, i, j] - 1.0) * beta[t, j] + 1.0
    term6 = 4.0 * (k * lip + np.sqrt(k)) * g2 / ((m - 1) * k * t_hor) * acc

    terms = (float(term1), float(term2), float(term3), float(term4), float(term5),
             float(term6))
    return Theorem1Bound(terms=terms, total=float(sum(terms)), eta=consts.eta)
