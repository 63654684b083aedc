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
        object.__setattr__(self, "_noise", tuple(s.tolist()))

    def noise(self, i):
        """sigma_i^2 at device i; an array of them at an int array of devices."""
        if np.ndim(i):
            s = np.asarray(self._noise)
            return s[np.asarray(i)] if len(s) > 1 else np.full(np.shape(i), s[0])
        return self._noise[0] if len(self._noise) == 1 else self._noise[i]


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


def zero_padded(arrays) -> np.ndarray:
    """Arrays of one rank stacked on a new leading axis, zero-padded to the largest shape."""
    out = np.zeros((len(arrays),) + tuple(map(max, zip(*(a.shape for a in arrays)))))
    for k, a in enumerate(arrays):
        out[(k,) + tuple(map(slice, a.shape))] = a
    return out


def inverse_cdf(rows: np.ndarray, u: np.ndarray, widths) -> np.ndarray:
    """(n, k) indices by inverse CDF, the one sampler of gains, levels and batteries:
    rows is (k, n, W) probabilities, u is (n, k). Row j of item i holds widths[j]
    entries, zero-padded to W. Per row the count of cumsum(row) <= u, clipped to the
    last index, which is searchsorted(cumsum(row), u, side="right"); a padded entry
    can only count when u reaches the row's total, and then the clip discards it.
    """
    counts = (np.cumsum(rows, axis=2) <= u.T[:, :, None]).sum(axis=2)
    return np.minimum(counts.T, np.subtract(widths, 1))


def step_links(state: np.ndarray, psi: np.ndarray, widths, u: np.ndarray) -> np.ndarray:
    """Advance every link's gain index one slot.

    Args:
        state: integer array (..., n_links) of current gain indices, the last
            axis one per link entity; leading axes index independent runs.
        psi: (n_links, W, W) the links' transition matrices zero-padded to the
            widest, `zero_padded([c.psi for c in chains])`, built once per model
            (`GlobalMdp.psi_stack`).
        widths: each link's number of gain levels.
        u: uniforms in [0, 1) of the same shape, one per run and link.

    Each next index is `inverse_cdf` on the link's psi row at its gain index.
    """
    flat = np.reshape(state, (-1, len(psi)))
    rows = psi[np.arange(len(psi))[:, None], flat.T]
    return inverse_cdf(rows, np.reshape(u, flat.shape), widths).reshape(np.shape(state))


def waterfall(phi: float, acc, p_tx, h) -> np.ndarray:
    """The packet error rule, q = 1 - exp(-phi * acc / (p_tx * h)), 1 where p_tx == 0 (a
    silent transmitter always loses). acc is the receiver's noise plus each interferer's
    p_k * h_k, added in neighbor order; the operands broadcast."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 - np.exp(-phi * acc / (p_tx * h))
    return np.where(p_tx == 0.0, 1.0, q)


def packet_error_rate(p, gains, topo, radio: RadioParams, i, j) -> float | np.ndarray:
    """PER on the directed link j -> i, `waterfall` at i's noise and interference.

    Args:
        p: power vectors, (..., m).
        gains: per-edge gains, (..., E), one per undirected edge in `topo.edges` order.
        topo: Topology; its link table gives each link's edge and interfering neighbors.
        radio: RadioParams.
        i: receiver. j: transmitter. Ints for one link, or equal-length int
            sequences for one PER per link along a new last axis; a pair that is not
            a link of `topo` raises ValueError.

    Returns:
        One PER per leading index (and link), a float for one link at one sample,
        each the float the loss kernel (`mdp.link_loss_table`) prices that link at.
    """
    p, gains = np.asarray(p, dtype=float), np.asarray(gains, dtype=float)
    rx, tx, links = np.atleast_1d(i), np.atleast_1d(j), topo.links
    keys = links.tx * topo.m + links.rx  # transmitter-major, so ascending
    row = np.minimum(np.searchsorted(keys, tx * topo.m + rx), len(keys) - 1)
    bad = (links.rx[row] != rx) | (links.tx[row] != tx)  # also a device outside 0..m-1
    if bad.any():
        raise ValueError(f"{tx[bad][0]} -> {rx[bad][0]} is not a link")
    # a padded slot reads device m and edge E, both 0.0, and adding 0.0 leaves a sum's bits
    hits = _zero_padded_last(p)[..., links.others[row]] * _zero_padded_last(gains)[
        ..., links.other_edges[row]]
    acc = radio.noise(rx)
    for c in range(hits.shape[-1]):  # each link's interfering neighbors in order
        acc = acc + hits[..., c]
    q = waterfall(radio.phi, acc, p[..., tx], gains[..., links.edge[row]])
    if np.ndim(i) == 0:
        q = q[..., 0]
    return float(q) if q.ndim == 0 else q


def _zero_padded_last(a: np.ndarray) -> np.ndarray:
    """`a` with a 0.0 appended along its last axis."""
    return np.concatenate([a, np.zeros(a.shape[:-1] + (1,))], axis=-1)
