"""Channel chains, the link step, and the packet error rule.

`reference_packet_error_rate` is the one-link rule in the loss kernel's float
steps, on the former dense (m, m) gain layout that `dense_gains` builds from
per-edge gains, `former_step_links` the per-link loop `step_links` replaced, and
`padded_step_links` the step that zero-padded the psi stack on every call; each
is kept as the reference its replacement must equal element for element.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehdfl.channel import (ChannelChain, RadioParams, build_chain_from_crossing,
                           identity_chain, inverse_cdf, packet_error_rate, rayleigh_chain,
                           step_links, zero_padded)
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.mdp import build_mdp, sample_costs
from ehdfl.topology import build_topology

from test_energy import shipped_models


def step(state, chains, u):
    """step_links on a psi stack built for this call."""
    return step_links(state, zero_padded([c.psi for c in chains]), [c.n for c in chains], u)


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
        state = step(state, [chain], rng.random(1))
    assert state[0] == 1


def test_step_links_marginals_match_psi():
    chain = ChannelChain(levels=np.array([0.4, 2.0]),
                         steady=np.array([0.5, 0.5]),
                         psi=np.array([[0.7, 0.3], [0.3, 0.7]]))
    rng = np.random.default_rng(1)
    hits = 0
    n = 20000
    for _ in range(n):
        hits += step(np.array([0]), [chain], rng.random(1))[0]
    assert abs(hits / n - 0.3) < 0.01


def test_step_links_on_a_batch_is_each_run_stepped_alone():
    chains = [rayleigh_chain(4, doppler_hz=40.0, tau=1e-3), identity_chain([0.4, 2.0]),
              rayleigh_chain(3, doppler_hz=80.0, tau=1e-3)]
    rng = np.random.default_rng(2)
    state = np.stack([rng.integers(0, c.n, size=50) for c in chains], axis=1)
    u = rng.random(state.shape)
    u[:5] = [0.0, 0.0, np.nextafter(1.0, 0.0)]  # the edges of the inverse CDF
    batch = step(state, chains, u)
    for k in range(len(state)):
        assert np.array_equal(batch[k], step(state[k], chains, u[k]))
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


def padded_step_links(state, chains, u):
    """The former link step, which zero-padded the chains' psi stack on every call."""
    flat = np.reshape(state, (-1, len(chains)))
    rows = zero_padded([c.psi for c in chains])[np.arange(len(chains))[:, None], flat.T]
    out = inverse_cdf(rows, np.reshape(u, flat.shape), [c.n for c in chains])
    return out.reshape(np.shape(state))


def test_step_links_on_the_model_stack_equals_the_per_call_padding_on_shipped_chains():
    rng = np.random.default_rng(7)
    for mdp in shipped_models():
        assert mdp.psi_stack is mdp.psi_stack  # built once per model
        state = np.stack([rng.integers(0, c.n, size=200) for c in mdp.chains], axis=1)
        u = rng.random(state.shape)
        u[:3] = [[0.0], [np.nextafter(1.0, 0.0)], [0.5]]  # the edges of the inverse CDF
        for s, v in ((state, u), (state[0], u[0])):
            assert np.array_equal(step_links(s, mdp.psi_stack, mdp.link_dims, v),
                                  padded_step_links(s, mdp.chains, v))


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
    assert np.array_equal(step(state, chains, u), former_step_links(state, chains, u))
    assert np.array_equal(step(state[0], chains, u[0]), former_step_links(state[0], chains, u[0]))


def _pair_setup():
    topo = build_topology("line", 3)
    radio = RadioParams(1.0, (0.5, 0.5, 0.5), 1.0)
    gains = np.ones(len(topo.edges))
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


def reference_packet_error_rate(p, gains, topo, radio, i, j):
    """The PER of link j -> i one Python float at a time, on (m, m) gains indexed
    [receiver, transmitter], in the loss kernel's steps: i's noise, plus each other
    neighbor's p_k * h_ik in order, then `np.exp` of -phi * acc / (p_j * h_ij)."""
    pj = float(p[j])
    if pj == 0.0:
        return 1.0
    acc = radio.noise(i)
    for k in topo.neighbors[i]:
        if k != j:
            acc = acc + float(p[k]) * float(gains[i, k])
    return float(1.0 - np.exp(-radio.phi * acc / (pj * float(gains[i, j]))))


def dense_gains(topo, gains):
    """Per-edge gains (..., E) in the former (..., m, m) layout: symmetric, 0 off the links."""
    gains = np.asarray(gains, dtype=float)
    a, b = np.array(topo.edges, dtype=np.int64).reshape(-1, 2).T
    mat = np.zeros(gains.shape[:-1] + (topo.m, topo.m))
    mat[..., a, b] = mat[..., b, a] = gains
    return mat


POSITIVE = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, max_m=11):
    """A ring, line, complete or random geometric graph of 2 to max_m devices."""
    kind = draw(st.sampled_from(["ring", "line", "complete", "random_geometric"]))
    return build_topology(kind, draw(st.integers(2, max_m)), seed=draw(st.integers(0, 99)))


@st.composite
def per_cases(draw):
    """A graph, a radio with per-device noise, and n power vectors and per-edge gains."""
    topo = draw(graphs())
    m, n_edges = topo.m, len(topo.edges)
    sigma2 = draw(st.one_of(POSITIVE, st.tuples(*[POSITIVE] * m)))  # shared or per device
    radio = RadioParams(draw(POSITIVE), sigma2, 1.0)
    n = draw(st.integers(1, 4))
    powers = draw(st.lists(st.one_of(st.just(0.0), POSITIVE), min_size=n * m,
                           max_size=n * m))  # silent transmitters included
    gains = draw(st.lists(POSITIVE, min_size=n * n_edges, max_size=n * n_edges))
    links = [(i, j) for i in range(m) for j in topo.neighbors[i]]
    order = draw(st.permutations(range(len(links))))
    return topo, radio, np.reshape(powers, (n, m)), np.reshape(gains, (n, n_edges)), [
        links[c] for c in order]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(per_cases())
def test_batched_per_equals_the_former_scalar_rule_element_for_element(case):
    topo, radio, p, g, links = case
    dense = dense_gains(topo, g)
    want = np.array([[reference_packet_error_rate(p[k], dense[k], topo, radio, i, j)
                      for i, j in links] for k in range(len(p))])
    rx, tx = np.array(links).T
    batch = packet_error_rate(p, g, topo, radio, rx, tx)  # every link, in any order, in one call
    assert batch.shape == want.shape and np.array_equal(batch, want)
    assert np.array_equal(packet_error_rate(p[0], g[0], topo, radio, rx, tx), want[0])
    assert np.array_equal(packet_error_rate(p[None, :2], g[None, :2], topo, radio, rx, tx),
                          want[None, :2])  # over more than one leading axis
    for c, (i, j) in enumerate(links[:3]):
        one = packet_error_rate(p, g, topo, radio, i, j)
        assert one.shape == (len(p),) and np.array_equal(one, want[:, c])
        scalar = packet_error_rate(p[0], g[0], topo, radio, i, j)
        assert type(scalar) is float and scalar == want[0, c]


@st.composite
def ragged_samples(draw):
    """A model on a ring, line, complete or random geometric graph of 2 to 8 devices, each
    link's gain ladder 1-3 levels long and each device's power ladder 2-4 levels long, and
    n gain and level digit samples."""
    topo = draw(graphs(max_m=8))
    m, n = topo.m, draw(st.integers(1, 6))

    def ladder(lo, hi):
        return sorted(draw(st.sets(POSITIVE, min_size=lo, max_size=hi)))

    chains = [identity_chain(ladder(1, 3)) for _ in topo.edges]
    sigma2 = draw(st.one_of(POSITIVE, st.tuples(*[POSITIVE] * m)))
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=1.0, n_levels=2)
    mdp = build_mdp(topo, RadioParams(draw(POSITIVE), sigma2, 1.0), energy, chains,
                    HarvestModel(support=np.array([0.0]), probs=np.array([1.0])),
                    [[0.0] + ladder(1, 3) for _ in range(m)], 1)

    def digits(dims):
        return np.array([[draw(st.integers(0, k - 1)) for k in dims] for _ in range(n)])

    return mdp, digits(mdp.link_dims), digits(mdp.act_dims)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(ragged_samples())
def test_per_of_every_link_equals_the_loss_kernels_on_generated_models(case):
    # Training prices links through packet_error_rate, the cost paths through the loss
    # kernel; a model whose one ordered pair weighs 1.0 makes the kernel return that q.
    mdp, gains, levels = case
    lk = mdp.topo.links
    q = packet_error_rate(mdp.powers_of(levels), mdp.gains_of(gains), mdp.topo, mdp.radio,
                          lk.rx, lk.tx)
    assert q.shape == (len(gains), len(lk.rx))
    for c, (i, j, _, e, interf) in enumerate(mdp.ordered_pairs):
        one = copy.copy(mdp)
        vars(one)["ordered_pairs"] = [(i, j, 1.0, e, interf)]
        assert np.array_equal(sample_costs(one, gains, levels), q[:, c]), (i, j)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(graphs(), st.data())
def test_per_on_a_pair_that_is_not_a_link_raises(topo, data):
    pairs = [(i, j) for i in range(topo.m) for j in range(topo.m) if j not in topo.neighbors[i]]
    i, j = data.draw(st.sampled_from(pairs))  # i == j is never a link
    radio, p, g = RadioParams(1.0, 1.0, 1.0), np.ones(topo.m), np.ones(len(topo.edges))
    with pytest.raises(ValueError, match="not a link"):
        packet_error_rate(p, g, topo, radio, i, j)
    rx, tx = np.array([topo.neighbors[0][0], i]), np.array([0, j])  # one link, one not
    with pytest.raises(ValueError, match="not a link"):
        packet_error_rate(p, g, topo, radio, rx, tx)


def test_per_on_a_line_refuses_the_pair_past_the_middle_device():
    # A 3-device line has no link 0 -> 2; its former dense rule divided by that pair's
    # zero gain and returned 1.0. Receiver 3 is no device, though 0 * 3 + 3 is the key
    # of the link 1 -> 0.
    topo, radio, gains = _pair_setup()
    with pytest.raises(ValueError, match="0 -> 2 is not a link"):
        packet_error_rate(np.ones(3), gains, topo, radio, 2, 0)
    with pytest.raises(ValueError, match="0 -> 3 is not a link"):
        packet_error_rate(np.ones(3), gains, topo, radio, [0, 3], [1, 0])
