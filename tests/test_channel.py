"""Channel chains, the link step, and the packet error rule.

`former_packet_error_rate` is the one-link body the batched rule replaced, and
`former_step_links` the per-link loop `step_links` replaced; each is kept as
the reference its replacement must equal element for element.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehdfl.channel import (ChannelChain, RadioParams, build_chain_from_crossing,
                           identity_chain, packet_error_rate, rayleigh_chain,
                           step_links)
from ehdfl.topology import build_topology


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(-1.0, (0.1,), 1.0)
    with pytest.raises(ValueError):
        RadioParams(1.0, (0.0,), 1.0)
    rp = RadioParams(1.0, (0.1, 0.2), 1.0)
    assert rp.noise(1) == 0.2


def test_crossing_chain_preserves_steady():
    chain = build_chain_from_crossing([0.5, 1.0, 2.0], [0.2, 0.5, 0.3],
                                      [0.05, 0.04], tau=1.0)
    chain.validate()
    assert np.allclose(chain.steady @ chain.psi, chain.steady)


def test_crossing_chain_is_tridiagonal():
    chain = build_chain_from_crossing([0.5, 1.0, 2.0, 4.0], [0.25] * 4,
                                      [0.02, 0.03, 0.02], tau=1.0)
    psi = chain.psi
    for k in range(4):
        for l in range(4):
            if abs(k - l) > 1:
                assert psi[k, l] == 0.0


def test_crossing_too_fast_rejected():
    # Crossing rate so large the self-loop would go negative.
    with pytest.raises(ValueError):
        build_chain_from_crossing([0.5, 1.0], [0.5, 0.5], [0.8], tau=1.0)


def test_rayleigh_chain_valid():
    chain = rayleigh_chain(4, doppler_hz=10.0, tau=1e-3)
    chain.validate()
    assert chain.n == 4
    assert (np.diff(chain.levels) > 0).all()


def test_identity_chain_freezes_state():
    chain = identity_chain([0.4, 2.0])
    rng = np.random.default_rng(0)
    state = np.array([1])
    for _ in range(10):
        state = step_links(state, [chain], rng.random(1))
    assert state[0] == 1


def test_step_links_marginals_match_psi():
    chain = ChannelChain(levels=np.array([0.4, 2.0]),
                         steady=np.array([0.5, 0.5]),
                         psi=np.array([[0.7, 0.3], [0.3, 0.7]]))
    rng = np.random.default_rng(1)
    hits = 0
    n = 20000
    for _ in range(n):
        hits += step_links(np.array([0]), [chain], rng.random(1))[0]
    assert abs(hits / n - 0.3) < 0.01


def test_step_links_on_a_batch_is_each_run_stepped_alone():
    chains = [rayleigh_chain(4, doppler_hz=40.0, tau=1e-3), identity_chain([0.4, 2.0]),
              rayleigh_chain(3, doppler_hz=80.0, tau=1e-3)]
    rng = np.random.default_rng(2)
    state = np.stack([rng.integers(0, c.n, size=50) for c in chains], axis=1)
    u = rng.random(state.shape)
    u[:5] = [0.0, 0.0, np.nextafter(1.0, 0.0)]  # the edges of the inverse CDF
    batch = step_links(state, chains, u)
    for k in range(len(state)):
        assert np.array_equal(batch[k], step_links(state[k], chains, u[k]))
        for e, chain in enumerate(chains):
            want = np.searchsorted(np.cumsum(chain.psi[state[k, e]]), u[k, e], side="right")
            assert batch[k, e] == min(want, chain.n - 1)


def former_step_links(state, chains, u):
    """The former link step: one cumsum per link over its psi rows at the state."""
    state = np.asarray(state)
    out = np.empty_like(state)
    for k, chain in enumerate(chains):
        cdf = np.cumsum(chain.psi[state[..., k]], axis=-1)
        out[..., k] = np.minimum((cdf <= u[..., k, None]).sum(-1), chain.n - 1)
    return out


@st.composite
def link_steps(draw):
    """1 to 4 chains of 1 to 3 levels, Rayleigh or with rows of small integer weights
    (whose cumsums may end off 1.0), n states and uniforms, some of them on a CDF entry."""
    chains = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 3))
        if draw(st.booleans()):
            chains.append(rayleigh_chain(n, doppler_hz=draw(st.sampled_from([10.0, 40.0])),
                                         tau=1e-3))
            continue
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)),
                     dtype=float).reshape(n, n)
        w[w.sum(axis=1) == 0, 0] = 1.0
        chains.append(ChannelChain(levels=np.arange(1.0, n + 1), steady=np.full(n, 1.0 / n),
                                   psi=w / w.sum(axis=1, keepdims=True)))
    n = draw(st.integers(1, 6))
    state = np.array([[draw(st.integers(0, c.n - 1)) for c in chains] for _ in range(n)])
    u = np.empty(state.shape)
    for k, e in np.ndindex(state.shape):
        cdf = np.cumsum(chains[e].psi[state[k, e]])
        u[k, e] = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                 st.sampled_from([0.0, np.nextafter(1.0, 0.0)] + cdf.tolist())))
    return chains, state, np.minimum(u, np.nextafter(1.0, 0.0))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(link_steps())
def test_step_links_equals_the_former_per_link_loop_on_generated_chains(case):
    chains, state, u = case
    assert np.array_equal(step_links(state, chains, u), former_step_links(state, chains, u))
    assert np.array_equal(step_links(state[0], chains, u[0]),
                          former_step_links(state[0], chains, u[0]))


def _pair_setup():
    topo = build_topology("line", 3)
    radio = RadioParams(1.0, (0.5, 0.5, 0.5), 1.0)
    gains = np.full((3, 3), 1.0)
    return topo, radio, gains


def test_per_zero_power_is_certain_loss():
    topo, radio, gains = _pair_setup()
    q = packet_error_rate(np.array([0.0, 1.0, 0.0]), gains, topo, radio, 1, 0)
    assert q == 1.0


def test_per_decreases_in_own_power():
    topo, radio, gains = _pair_setup()
    qs = [packet_error_rate(np.array([p, 0.0, 0.0]), gains, topo, radio, 1, 0)
          for p in (0.5, 1.0, 2.0)]
    assert qs[0] > qs[1] > qs[2]


def test_per_increases_with_interference():
    topo, radio, gains = _pair_setup()
    quiet = packet_error_rate(np.array([1.0, 0.0, 0.0]), gains, topo, radio, 1, 0)
    loud = packet_error_rate(np.array([1.0, 0.0, 1.0]), gains, topo, radio, 1, 0)
    assert loud > quiet


def test_per_bounds():
    topo, radio, gains = _pair_setup()
    for p0 in (0.0, 0.5, 3.0):
        for p2 in (0.0, 2.0):
            q = packet_error_rate(np.array([p0, 0.0, p2]), gains, topo, radio, 1, 0)
            assert 0.0 <= q <= 1.0


def test_per_closed_form_no_interference():
    # Single active transmitter: q = 1 - exp(-phi * sigma^2 / (p * g)).
    topo, radio, gains = _pair_setup()
    p, g, phi, sig = 2.0, 1.0, 1.0, 0.5
    q = packet_error_rate(np.array([p, 0.0, 0.0]), gains, topo, radio, 1, 0)
    assert np.isclose(q, 1.0 - np.exp(-phi * sig / (p * g)), atol=1e-12)


def former_packet_error_rate(p, gains, topo, radio, i, j):
    """The former scalar PER of link j -> i, in Python floats."""
    pj = float(p[j])
    if pj <= 0.0:
        return 1.0
    h = float(gains[i, j])
    interf = 0.0
    for k in topo.neighbors[i]:
        if k != j:
            interf += float(p[k]) * float(gains[i, k])
    x = radio.phi * (interf + radio.noise(i)) / (pj * h)
    return 1.0 - math.exp(-x)


POSITIVE = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def per_cases(draw):
    """A topology, a radio with per-device noise, and n power vectors and gain arrays."""
    kind, m = draw(st.sampled_from([("line", 2), ("line", 4), ("ring", 3), ("ring", 5),
                                    ("complete", 3), ("complete", 4)]))
    topo = build_topology(kind, m)
    sigma2 = draw(st.one_of(POSITIVE, st.tuples(*[POSITIVE] * m)))  # shared or per device
    radio = RadioParams(draw(POSITIVE), sigma2, 1.0)
    n = draw(st.integers(1, 6))
    powers = draw(st.lists(st.one_of(st.just(0.0), POSITIVE), min_size=n * m,
                           max_size=n * m))  # silent transmitters included
    gains = draw(st.lists(POSITIVE, min_size=n * m * m, max_size=n * m * m))
    return topo, radio, np.reshape(powers, (n, m)), np.reshape(gains, (n, m, m))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(per_cases())
def test_batched_per_equals_the_former_scalar_rule_element_for_element(case):
    topo, radio, p, g = case
    for i in range(topo.m):
        for j in topo.neighbors[i]:
            batch = packet_error_rate(p, g, topo, radio, i, j)
            assert batch.shape == (len(p),)
            for k in range(len(p)):
                want = former_packet_error_rate(p[k], g[k], topo, radio, i, j)
                one = packet_error_rate(p[k], g[k], topo, radio, i, j)
                assert type(one) is float
                assert batch[k] == want and one == want
            if len(p) > 1:  # and over more than one leading axis
                q2 = packet_error_rate(p[None, :2], g[None, :2], topo, radio, i, j)
                assert q2.shape == (1, 2) and np.array_equal(q2[0], batch[:2])
    rx, tx = np.array([(i, j) for i in range(topo.m) for j in topo.neighbors[i]]).T
    links = packet_error_rate(p, g, topo, radio, rx, tx)  # every link in one call
    assert links.shape == (len(p), len(rx))
    for c, (i, j) in enumerate(zip(rx.tolist(), tx.tolist())):
        want = [former_packet_error_rate(p[k], g[k], topo, radio, i, j) for k in range(len(p))]
        assert np.array_equal(links[:, c], want)
    assert np.array_equal(packet_error_rate(p[0], g[0], topo, radio, rx, tx), links[0])
