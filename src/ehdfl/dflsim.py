"""Slot-level training simulator: local SGD plus lossy gossip over the radio model."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import packet_error_rate, step_links
from .energy import battery_step
from .mdp import GlobalMdp, GlobalState

# Sub-stream roles under the run seed; per-device streams spawn as (role, device).
_ROLE_POLICY = 0
_ROLE_CHANNEL = 1
_ROLE_HARVEST = 2


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def local_sgd(task, i: int, w, *, k_steps: int, eta: float):
    """Run K full-batch local steps from w; return (w_new, sup of squared grad norms)."""
    w = np.array(w, dtype=float, copy=True)
    sup_sq = 0.0
    for _ in range(k_steps):
        g = task.local_grad(i, w)
        sup_sq = max(sup_sq, float(g @ g))
        w -= eta * g
    return w, sup_sq


def apply_gossip(models, deltas, beta, zeta, mixing, neighbors):
    """One aggregation slot; returns the new model list.

    Device i adds a_ij * zeta_ij * delta_j for every transmitting neighbor and
    a_ii * delta_i for itself. Contributions accumulate in ascending j order
    (self included at its sorted position) so a reference recursion written
    the same way matches bit for bit.
    """
    m = len(models)
    out = []
    for i in range(m):
        acc = models[i].copy()
        for j in sorted(set(neighbors[i]) | {i}):
            if not beta[j]:
                continue
            gate = 1.0 if j == i else float(zeta[i][j])
            if gate == 0.0:
                continue
            acc += (mixing[i, j] * gate) * deltas[j]
        out.append(acc)
    return out


METRICS_HEADER = ("slot", "grad_norm_sq_avg_model", "consensus", "global_loss",
                  "device_loss", "opt_gap", "energy_spent_total", "packets_sent",
                  "packets_dropped")


@dataclass
class DflRun:
    """Trajectory record; arrays are indexed by slot (1-based slots map to row t-1)."""

    horizon: int
    m: int
    wbar: np.ndarray           # (T+1, d) average model at slot starts, then final
    consensus: np.ndarray      # (T+1,) sum_i ||w_i - wbar||^2
    grad_norm_sq: np.ndarray   # (T,) ||grad F(wbar_t)||^2 at slot starts
    global_loss: np.ndarray    # (T+1,)
    device_loss: np.ndarray    # (T+1,) mean_i F(w_i); carries the consensus penalty
    opt_gap: np.ndarray        # (T+1,) F(wbar) - F*
    energy_spent: np.ndarray   # (T,) joules summed over devices
    packets_sent: np.ndarray   # (T,) int
    packets_dropped: np.ndarray  # (T,) int
    beta: np.ndarray           # (T, m) participation indicators
    per: np.ndarray            # (T, m, m) q for receiver i <- transmitter j, 0 elsewhere
    actions: np.ndarray        # (T, m) chosen level indices
    batteries: np.ndarray      # (T+1, m) joules at slot starts
    sup_grad_sq: float         # max squared stochastic-gradient norm seen
    final_models: list = field(default_factory=list)
    models: list = field(default_factory=list)    # per-slot snapshots if recorded
    deltas: list = field(default_factory=list)    # per-slot local updates if recorded

    def time_avg_grad_sq(self) -> float:
        return float(np.mean(self.grad_norm_sq))

    def csv_rows(self):
        """Yield (header, rows) for the per-slot metrics file."""
        header = list(METRICS_HEADER)
        rows = []
        for t in range(self.horizon):
            rows.append([t + 1, self.grad_norm_sq[t], self.consensus[t],
                         self.global_loss[t], self.device_loss[t], self.opt_gap[t],
                         self.energy_spent[t], int(self.packets_sent[t]),
                         int(self.packets_dropped[t])])
        return header, rows


def run_training(mdp: GlobalMdp, task, policy, *, seed: int, eta: float,
                 horizon: int | None = None, per_override: float | None = None,
                 s1: GlobalState | None = None, record_models: bool = False) -> DflRun:
    """Co-simulate the radio process and decentralized training for T slots.

    Every device starts from the zero model and takes full-batch local steps.
    per_override, when given, replaces every link's packet-error probability
    with a constant (0.0 forces lossless delivery); the channel process still
    advances so trajectories stay comparable across override settings.
    """
    topo, radio, energy, draw_quanta = mdp.topo, mdp.radio, mdp.energy, mdp.draw_quanta
    m = topo.m
    horizon = mdp.horizon if horizon is None else horizon
    if s1 is None:
        gains = tuple(int(np.argmax(c.steady)) for c in mdp.chains)
        bats = tuple(energy.n_levels - 1 for _ in range(m))
        s1 = GlobalState(gains=gains, batteries=bats)

    rng_pol = _stream(seed, _ROLE_POLICY)
    rng_chan = _stream(seed, _ROLE_CHANNEL)
    rng_harv = [_stream(seed, _ROLE_HARVEST, i) for i in range(m)]

    d = task.dim
    models = [np.zeros(d) for _ in range(m)]

    gains = np.asarray(s1.gains, dtype=np.int64)
    bats_j = np.array([b * energy.quantum for b in s1.batteries])

    rec = DflRun(
        horizon=horizon, m=m,
        wbar=np.zeros((horizon + 1, d)),
        consensus=np.zeros(horizon + 1),
        grad_norm_sq=np.zeros(horizon),
        global_loss=np.zeros(horizon + 1),
        device_loss=np.zeros(horizon + 1),
        opt_gap=np.zeros(horizon + 1),
        energy_spent=np.zeros(horizon),
        packets_sent=np.zeros(horizon, dtype=np.int64),
        packets_dropped=np.zeros(horizon, dtype=np.int64),
        beta=np.zeros((horizon, m), dtype=np.int64),
        per=np.zeros((horizon, m, m)),
        actions=np.zeros((horizon, m), dtype=np.int64),
        batteries=np.zeros((horizon + 1, m)),
        sup_grad_sq=0.0,
    )
    f_star = task.f_star

    def log_point(row: int) -> None:
        wbar = np.mean(models, axis=0)
        rec.wbar[row] = wbar
        rec.consensus[row] = float(sum(np.sum((w - wbar) ** 2) for w in models))
        rec.global_loss[row] = task.global_loss(wbar)
        rec.device_loss[row] = float(np.mean([task.global_loss(w) for w in models]))
        rec.opt_gap[row] = rec.global_loss[row] - f_star

    for t in range(horizon):
        rec.batteries[t] = bats_j
        log_point(t)
        rec.grad_norm_sq[t] = float(np.sum(task.global_grad(rec.wbar[t]) ** 2))

        state = GlobalState(gains=tuple(int(g) for g in gains),
                            batteries=tuple(energy.level_index(b) for b in bats_j))
        s_idx = mdp.state_index(state)
        levels = policy.act(mdp, s_idx, t + 1, rng_pol)
        rec.actions[t] = levels
        powers = mdp.powers_of(levels)
        beta = [1 if p > 0 else 0 for p in powers]
        rec.beta[t] = beta

        # Local SGD for participating devices.
        deltas = [np.zeros(d) for _ in range(m)]
        for i in range(m):
            if beta[i]:
                w_new, sup_sq = local_sgd(task, i, models[i], k_steps=energy.k_steps, eta=eta)
                deltas[i] = w_new - models[i]
                rec.sup_grad_sq = max(rec.sup_grad_sq, sup_sq)
        if record_models:
            rec.models.append([w.copy() for w in models])
            rec.deltas.append([dw.copy() for dw in deltas])

        # Packet outcomes: one PER draw per directed neighbor link with an
        # active transmitter, in ascending (receiver, transmitter) order.
        gain_mat = mdp.gain_matrix(gains)
        zeta = np.zeros((m, m))
        for i in range(m):
            for j in sorted(topo.neighbors[i]):
                if not beta[j]:
                    continue
                q = packet_error_rate(powers, gain_mat, topo, radio, i, j)
                if per_override is not None:
                    q = float(per_override)
                rec.per[t, i, j] = q
                ok = rng_chan.random() >= q
                zeta[i, j] = 1.0 if ok else 0.0
                rec.packets_sent[t] += 1
                rec.packets_dropped[t] += 0 if ok else 1

        models = apply_gossip(models, deltas, beta, zeta, topo.mixing, topo.neighbors)

        # Energy bookkeeping and exogenous processes.
        for i in range(m):
            e_i = int(draw_quanta[i][levels[i]]) * energy.quantum
            rec.energy_spent[t] += e_i
            u = mdp.harvests[i].sample(rng_harv[i])
            bats_j[i] = battery_step(bats_j[i], e_i, u, energy)
        gains = step_links(gains, mdp.chains, rng_chan)

    rec.batteries[horizon] = bats_j
    log_point(horizon)
    rec.final_models = [w.copy() for w in models]
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
