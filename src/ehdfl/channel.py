"""Finite-state Markov channels and the interference-limited packet error model.

Each D2D link gain is quantized to a finite ladder of levels and evolves as a
birth-death Markov chain whose transition probabilities come from level
crossing rates, so the configured steady-state distribution is preserved by
detailed balance. Packet errors follow an exponential waterfall in the
interference-plus-noise to received-power ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadioParams:
    """PER shape phi, per-device noise power sigma2 (scalar or length-m array), slot seconds tau."""

    phi: float
    sigma2: float | tuple[float, ...]
    tau: float

    def __post_init__(self):
        if not self.phi > 0:
            raise ValueError("phi must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        s = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        if not (s > 0).all():
            raise ValueError("sigma2 must be positive")

    def noise(self, i: int) -> float:
        s = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        return float(s[0]) if s.size == 1 else float(s[i])


@dataclass(frozen=True, eq=False)
class ChannelChain:
    """One link's gain ladder: levels (ascending), steady probs, transition matrix psi."""

    levels: np.ndarray
    steady: np.ndarray
    psi: np.ndarray

    @property
    def n(self) -> int:
        return len(self.levels)

    def validate(self) -> None:
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or len(lv) < 1:
            raise ValueError("levels must be a 1-D array")
        if (lv <= 0).any() or (np.diff(lv) <= 0).any():
            raise ValueError("levels must be positive and strictly ascending")
        st = np.asarray(self.steady, dtype=float)
        if st.shape != lv.shape or (st <= 0).any() or abs(st.sum() - 1.0) > 1e-9:
            raise ValueError("steady must be a positive distribution over levels")
        p = np.asarray(self.psi, dtype=float)
        if p.shape != (len(lv), len(lv)):
            raise ValueError("psi shape mismatch")
        if (p < 0).any() or (p > 1).any():
            raise ValueError("psi entries must be probabilities")
        if not np.allclose(p.sum(axis=1), 1.0, atol=1e-10):
            raise ValueError("psi rows must sum to 1")
        # birth-death structure: only the tridiagonal band may be nonzero
        band = np.triu(np.abs(p), 2) + np.tril(np.abs(p), -2)
        if band.max() > 0:
            raise ValueError("psi must be tridiagonal")
        if not np.allclose(st @ p, st, atol=1e-9):
            raise ValueError("steady distribution is not preserved by psi")


def build_chain_from_crossing(levels, steady, crossing, tau: float) -> ChannelChain:
    """Assemble a birth-death chain from boundary crossing rates.

    Args:
        levels: N ascending positive gain values (bin representatives).
        steady: N steady-state probabilities, positive, summing to 1.
        crossing: N-1 crossing rates (per second) of the interior boundaries,
            entry k for the boundary between bins k and k+1.
        tau: slot duration in seconds.

    Returns:
        ChannelChain with psi[k, k+1] = crossing[k] * tau / steady[k],
        psi[k, k-1] = crossing[k-1] * tau / steady[k], self-loops absorbing
        the remainder. Boundary rows simply lack the missing branch.

    Raises:
        ValueError: if any row would go negative (tau too large for the rates)
            or the inputs are malformed.
    """
    lv = np.asarray(levels, dtype=float)
    st = np.asarray(steady, dtype=float)
    cr = np.asarray(crossing, dtype=float)
    n = len(lv)
    if len(st) != n or len(cr) != n - 1:
        raise ValueError("levels, steady, crossing length mismatch")
    if (cr < 0).any():
        raise ValueError("crossing rates must be nonnegative")
    if not tau > 0:
        raise ValueError("tau must be positive")
    psi = np.zeros((n, n))
    for k in range(n):
        up = cr[k] * tau / st[k] if k + 1 < n else 0.0
        down = cr[k - 1] * tau / st[k] if k - 1 >= 0 else 0.0
        stay = 1.0 - up - down
        if stay < -1e-12:
            raise ValueError(
                f"tau={tau} too large: row {k} self-transition would be {stay:.3g}")
        psi[k, k] = max(stay, 0.0)
        if k + 1 < n:
            psi[k, k + 1] = up
        if k - 1 >= 0:
            psi[k, k - 1] = down
    chain = ChannelChain(levels=lv, steady=st, psi=psi)
    chain.validate()
    return chain


def identity_chain(levels) -> ChannelChain:
    """Frozen gains: psi = I. Steady is uniform by convention."""
    lv = np.asarray(levels, dtype=float)
    n = len(lv)
    return ChannelChain(levels=lv, steady=np.full(n, 1.0 / n), psi=np.eye(n))


def rayleigh_chain(n_levels: int, doppler_hz: float, tau: float,
                   mean_gain: float = 1.0) -> ChannelChain:
    """Equiprobable quantization of a Rayleigh-fading power gain.

    Bins are equiprobable under the exponential gain distribution with mean
    mean_gain; representative levels are the conditional bin means; boundary
    crossing rates use the classic level crossing formula
    Z(g) = sqrt(2 pi g / Omega) * f_d * exp(-g / Omega).
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if doppler_hz <= 0 or tau <= 0 or mean_gain <= 0:
        raise ValueError("doppler_hz, tau, mean_gain must be positive")
    omega = float(mean_gain)
    n = n_levels
    # thresholds g_0 = 0 < g_1 < ... < g_{n-1} < g_n = inf with equal mass 1/n
    thresholds = [-omega * math.log(1.0 - k / n) for k in range(n)]
    steady = np.full(n, 1.0 / n)
    levels = np.empty(n)
    for k in range(n):
        lo = thresholds[k]
        hi = thresholds[k + 1] if k + 1 < n else None
        # conditional mean of Exp(omega) on [lo, hi)
        elo = math.exp(-lo / omega)
        if hi is None:
            levels[k] = lo + omega
        else:
            ehi = math.exp(-hi / omega)
            levels[k] = omega * ((lo / omega + 1.0) * elo - (hi / omega + 1.0) * ehi) / (elo - ehi)
    crossing = np.empty(n - 1)
    for k in range(n - 1):
        g = thresholds[k + 1]
        crossing[k] = math.sqrt(2.0 * math.pi * g / omega) * doppler_hz * math.exp(-g / omega)
    return build_chain_from_crossing(levels, steady, crossing, tau)


def step_links(state: np.ndarray, chains, rng: np.random.Generator) -> np.ndarray:
    """Advance every link's gain index one slot.

    Args:
        state: integer array of current gain indices, one per link entity.
        chains: matching sequence of ChannelChain.
        rng: numpy Generator; one uniform draw is consumed per link, in link
            order, so trajectories are reproducible for a fixed stream.
    """
    state = np.asarray(state)
    out = np.empty_like(state)
    u = rng.random(len(state))
    for k, chain in enumerate(chains):
        row = chain.psi[state[k]]
        out[k] = int(np.searchsorted(np.cumsum(row), u[k], side="right"))
        if out[k] >= chain.n:  # guard against cumsum rounding at 1.0
            out[k] = chain.n - 1
    return out


def _gain(gains, i: int, j: int) -> float:
    if callable(gains):
        return float(gains(i, j))
    return float(gains[i, j])


def packet_error_rate(p, gains, topo, radio: RadioParams, i: int, j: int) -> float:
    """PER on the directed link j -> i under the exponential waterfall model.

    q = 1 - exp(-phi * (interference_at_i + sigma_i^2) / (p_j * h_ij)), where
    the interference sums p_k * h_ik over i's other neighbors k. A silent
    transmitter (p_j = 0) is a guaranteed loss, q = 1.

    Args:
        p: per-device power vector.
        gains: callable (i, j) -> gain, or 2-D array indexed [i, j].
        topo: Topology (interferers are i's one-hop neighbors except j).
        radio: RadioParams.
        i: receiver. j: transmitter.
    """
    pj = float(p[j])
    if pj <= 0.0:
        return 1.0
    h = _gain(gains, i, j)
    interf = 0.0
    for k in topo.neighbors[i]:
        if k != j:
            interf += float(p[k]) * _gain(gains, i, k)
    x = radio.phi * (interf + radio.noise(i)) / (pj * h)
    return 1.0 - math.exp(-x)

