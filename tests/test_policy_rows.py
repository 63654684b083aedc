"""The shared policy interface: rows at state digits, one `act` draw rule for all policies.

Each policy class used to carry its own `act`, and its `rows` used to take flat
state indices. Those bodies are kept here as references; the shared `act` must
pick the same levels at every state, the digit rows must equal the index rows
element for element, and the training co-simulation must stay bit-identical.
`FixedLevelsPolicy`, which only the tests use, lives here as well.
"""
import numpy as np
import pytest

from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.channel import ChannelChain, RadioParams
from ehdfl.dflsim import run_training
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.errors import CausalityViolation
from ehdfl.instances import capacity_family, oracle_instance
from ehdfl.learning import make_logistic_task, make_quadratic_task
from ehdfl.localized import synthesize
from ehdfl.mdp import GlobalState, backward_induction, build_mdp, sample_act
from ehdfl.topology import build_topology

from test_dflsim import assert_same_record, on_links, reference_training, with_horizon


class FixedLevelsPolicy:
    """Every device holds one level index each slot."""

    stationary = True

    def __init__(self, levels):
        self.levels = tuple(levels)

    def rows(self, mdp, t, digits):
        rows = np.zeros((mdp.m, len(digits), max(mdp.act_dims)))
        rows[np.arange(mdp.m), :, self.levels] = 1.0
        return rows

    def conditionals(self, mdp, t):
        """Rows that read no state: length 1 on every state axis."""
        return self.rows(mdp, t, [0]).reshape((mdp.m,) + (1,) * len(mdp.state_shape) + (-1,))

    act = sample_act


def state_digits(mdp, s_idx=None):
    """(n, L + m) state digits of flat state indices, every state by default."""
    s_idx = np.arange(mdp.n_states) if s_idx is None else np.asarray(s_idx)
    return np.stack(np.unravel_index(s_idx, mdp.link_dims + mdp.bat_dims), axis=-1)


def former_state_shape(mdp):
    """The former canonical layout: every link flattened into one channel axis, then one
    axis per battery. It ravels to the same flat state index as `state_shape`."""
    return (mdp.n_channel_cfgs,) + tuple(mdp.bat_dims)


# Former index-based `rows` bodies: (policy, mdp, t, flat state indices) -> (m, n, W).

def centralized_rows(pol, mdp, t, s_idx):
    return mdp.action_one_hot.take(pol.tables[t - 1][s_idx], axis=1)


def myopic_rows(pol, mdp, t, s_idx):
    return mdp.action_one_hot.take(pol.table(mdp)[s_idx], axis=1)


def greedy_rows(pol, mdp, t, s_idx):
    """Device d's battery digit found at its C-order stride of the state index."""
    nb = mdp.energy.n_levels
    top = [[np.nonzero(feas[:, b])[0].max() for b in range(nb)]
           for feas in mdp.feasible_level_masks]
    strides = nb ** np.arange(mdp.m - 1, -1, -1)[:, None]
    return np.eye(max(mdp.act_dims))[top][np.arange(mdp.m)[:, None], s_idx // strides % nb]


def fixed_rows(pol, mdp, t, s_idx):
    rows = np.zeros((mdp.m, len(s_idx), max(mdp.act_dims)))
    rows[np.arange(mdp.m), :, pol.levels] = 1.0
    return rows


def former_local_index(pol, mdp):
    """Per device: its local state index on the former layout, by np.ravel_multi_index."""
    m, nb = mdp.m, mdp.energy.n_levels
    gains = np.unravel_index(np.arange(mdp.n_channel_cfgs), mdp.link_dims)
    out = []
    for cov in pol.covers:
        coords = [gains[e].reshape((-1,) + (1,) * m) for e in cov.links]
        coords += [np.arange(nb).reshape((1,) * (d + 1) + (nb,) + (1,) * (m - 1 - d))
                   for d in cov.devs]
        out.append(np.ravel_multi_index(coords, cov.state_dims))
    return out


def former_conditionals(pol, mdp, t):
    """The former gather: device i's rows over its cover on the former layout,
    (n_channel_cfgs, nb on cover devices, W)."""
    out = []
    for tbl, idx in zip(pol.tables, former_local_index(pol, mdp)):
        rows = np.zeros(idx.shape + (max(mdp.act_dims),))
        rows[..., :tbl[t - 1].shape[1]] = tbl[t - 1][idx]
        out.append(rows)
    return out


def localized_rows(pol, mdp, t, s_idx):
    digits = np.unravel_index(s_idx, former_state_shape(mdp))
    out = np.zeros((mdp.m, len(s_idx), max(mdp.act_dims)))
    for i, (tbl, idx) in enumerate(zip(pol.tables, former_local_index(pol, mdp))):
        local = idx[tuple(dg if n > 1 else 0 for dg, n in zip(digits, idx.shape))]
        out[i, :, :tbl[t - 1].shape[1]] = tbl[t - 1][local]
    return out


INDEX_ROWS = {"centralized": centralized_rows, "myopic": myopic_rows, "greedy": greedy_rows,
              "fixed": fixed_rows, "localized": localized_rows}


def check_digit_rows(mdp, pols):
    """Every policy's rows at every state's digits equal its former index rows, bit for bit."""
    s_idx = np.arange(mdp.n_states)
    digits = state_digits(mdp)
    for name, pol in pols.items():
        for t in range(1, mdp.horizon + 1):
            rows = pol.rows(mdp, t, digits)
            assert rows.dtype == np.float64, name
            assert np.array_equal(rows, INDEX_ROWS[name](pol, mdp, t, s_idx)), (name, t)


def centralized_act(pol, mdp, s_idx, t, rng=None):
    return mdp.action_decode(int(pol.tables[t - 1][s_idx]))


def fixed_act(pol, mdp, s_idx, t, rng=None):
    return pol.levels


def myopic_act(pol, mdp, s_idx, t, rng=None):
    return mdp.action_decode(int(pol.table(mdp)[s_idx]))


def greedy_act(pol, mdp, s_idx, t, rng=None):
    bats = np.unravel_index(s_idx, mdp.link_dims + mdp.bat_dims)[mdp.n_links:]
    return tuple(int(np.nonzero(mdp.feasible_level_masks[d][:, b])[0].max())
                 for d, b in enumerate(bats))


def projections(pol, mdp):
    """Per device: the local state index at every global state, from all state digits."""
    digits = np.unravel_index(np.arange(mdp.n_states), mdp.link_dims + mdp.bat_dims)
    return [np.ravel_multi_index([digits[e] for e in cov.links]
                                 + [digits[mdp.n_links + d] for d in cov.devs], cov.state_dims)
            for cov in pol.covers]


def localized_act(pol, mdp, s_idx, t, rng):
    proj = projections(pol, mdp)
    levels = []
    for i in range(mdp.m):
        row = pol.tables[i][t - 1][proj[i][s_idx]]
        u = rng.random()
        levels.append(int(np.searchsorted(np.cumsum(row), u, side="right").clip(0, len(row) - 1)))
    return tuple(levels)


class ReferenceAct:
    """A policy whose `act` is one of the former per-class bodies."""

    def __init__(self, pol, body):
        self.pol, self.body = pol, body

    def act(self, mdp, s_idx, t, rng=None):
        return self.body(self.pol, mdp, s_idx, t, rng)


def policies(mdp):
    return {
        "centralized": (backward_induction(mdp).as_policy(), centralized_act),
        "greedy": (GreedyPolicy(mdp), greedy_act),
        "myopic": (MyopicCentralPolicy(mdp), myopic_act),
        "fixed": (FixedLevelsPolicy((1,) + (0,) * (mdp.m - 1)), fixed_act),
        "localized": (synthesize(mdp, hops=1, gamma=1.0, rounds=2), localized_act),
    }


def ragged_line():
    """Three-device line whose ladders (2, 3, 2 levels) and chains (2, 3 states) differ.

    Every pinned instance has equal ladders and equal chains, so this is the
    model on which rows are zero-padded to the longest ladder and the Monte
    Carlo gain rows to the largest chain.
    """
    topo = build_topology("line", 3)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=2.0, n_levels=3)
    chains = [ChannelChain(levels=np.array([0.4, 2.2]), steady=np.array([0.5, 0.5]),
                           psi=np.array([[0.7, 0.3], [0.3, 0.7]])),
              ChannelChain(levels=np.array([0.5, 1.2, 3.0]),
                           steady=np.array([4.0, 6.0, 3.0]) / 13.0,
                           psi=np.array([[0.7, 0.3, 0.0], [0.2, 0.6, 0.2], [0.0, 0.4, 0.6]]))]
    harvest = HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.6, 0.4]))
    mdp = build_mdp(topo, RadioParams(1.8, (0.4, 0.4, 0.4), 1.0), energy, chains, harvest,
                    power_levels=[[0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0]], horizon=3)
    return mdp, GlobalState(gains=(1, 2), batteries=(2, 2, 2))


INSTANCES = {"pair": oracle_instance, "capacity-3": lambda: capacity_family(3),
             "ragged": ragged_line}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def case(request):
    mdp, s1 = INSTANCES[request.param]()
    return mdp, s1, policies(mdp)


def test_localized_policy_is_stochastic(case):
    mdp, _, pols = case
    rows = pols["localized"][0].rows(mdp, 1, state_digits(mdp))
    assert any(((r > 0.01) & (r < 0.99)).any() for r in rows)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_shared_act_matches_the_former_body_at_every_state(case, name):
    mdp, _, pols = case
    pol, body = pols[name]
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for t in range(1, mdp.horizon + 1):
        for s in range(mdp.n_states):
            assert pol.act(mdp, s, t, rng_new) == body(pol, mdp, s, t, rng_ref), (t, s)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed"])
def test_deterministic_act_needs_no_generator(case, name):
    mdp, _, pols = case
    pol, body = pols[name]
    for s in range(mdp.n_states):
        assert pol.act(mdp, s, 1) == body(pol, mdp, s, 1)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_rows_are_one_device_major_array_zero_beyond_each_ladder(case, name):
    mdp, _, pols = case
    pol = pols[name][0]
    for t in range(1, mdp.horizon + 1):
        rows = pol.rows(mdp, t, state_digits(mdp))
        assert rows.shape == (mdp.m, mdp.n_states, max(mdp.act_dims))
        for d, n_d in enumerate(mdp.act_dims):
            assert rows[d].flags.c_contiguous
            assert not rows[d, :, n_d:].any()
            np.testing.assert_allclose(rows[d].sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_rows_at_a_batch_are_the_conditionals_at_those_states(case, name):
    mdp, _, pols = case
    pol = pols[name][0]
    s_idx = np.random.default_rng(1).integers(0, mdp.n_states, size=17)
    at = np.unravel_index(s_idx, mdp.state_shape)
    for t in range(1, mdp.horizon + 1):
        conds = pol.conditionals(mdp, t)
        for rows, cond in zip(pol.rows(mdp, t, state_digits(mdp, s_idx)), conds):
            full = np.broadcast_to(cond, mdp.state_shape + cond.shape[-1:])
            assert np.array_equal(rows, full[at])


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_training_records_are_bit_identical_to_the_former_act(case, name):
    mdp, s1, pols = case
    pol, body = pols[name]
    task = make_quadratic_task(mdp.m, 4, 8, heterogeneity=1.0, seed=3)
    if name == "fixed":  # a fixed transmitter may run dry after slot 1
        mdp = with_horizon(mdp, 1)
    new = run_training(mdp, task, pol, seeds=range(5), eta=0.05, s1=s1)
    for seed in range(5):
        ref = reference_training(mdp, task, ReferenceAct(pol, body), seed=seed, eta=0.05,
                                 s1=s1)
        assert_same_record(new[seed], on_links(ref, mdp.topo))


@pytest.mark.parametrize("task_kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_lockstep_training_is_bit_identical_to_the_per_seed_reference(case, name, task_kind):
    """Every record field, models and deltas included, of every seed of one lockstep
    call against the former one-seed co-simulation; a seed list with a repeat, and
    one seed alone, at horizons 0, 1 and T, with and without a PER override."""
    mdp, s1, pols = case
    pol = pols[name][0]
    make = make_quadratic_task if task_kind == "quadratic" else make_logistic_task
    task = make(mdp.m, 4, 8, heterogeneity=1.0, seed=5)
    for seeds in ([3, 0, 7, 3, 12], [9]):
        for run_mdp in (with_horizon(mdp, 0), with_horizon(mdp, 1), mdp):
            for per_override in (None, 0.0):
                kw = dict(eta=0.3, s1=s1, per_override=per_override, record_models=True)
                refs = []
                for seed in seeds:
                    try:
                        refs.append(reference_training(run_mdp, task, pol, seed=seed, **kw))
                    except CausalityViolation:  # the fixed levels drain a battery
                        refs = None
                        break
                if refs is None:
                    with pytest.raises(CausalityViolation):
                        run_training(run_mdp, task, pol, seeds=seeds, **kw)
                    continue
                run = run_training(run_mdp, task, pol, seeds=seeds, **kw)
                for k, ref in enumerate(refs):
                    assert_same_record(run[k], on_links(ref, mdp.topo), with_models=True)
