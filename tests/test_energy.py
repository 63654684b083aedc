from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehdfl.channel import RadioParams, identity_chain, inverse_cdf
from ehdfl.config import load_config
from ehdfl.energy import (EnergyParams, HarvestModel, battery_step, point_harvest,
                          solar_harvest_support)
from ehdfl.errors import CausalityViolation
from ehdfl.instances import (capacity_family, capacity_pair, desk_scenario, fullinfo_instance,
                             oracle_instance, tiny_instances)
from ehdfl.mdp import build_mdp
from ehdfl.topology import build_topology

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _params(**kw):
    base = dict(k_steps=2, cpu_freq=1.0, cycles_per_sample=0.5, batch_size=4,
                tau=1.0, b_max=4.0, n_levels=5)
    base.update(kw)
    return EnergyParams(**base)


def _model(params, power_levels, harvest=point_harvest(0.0)):
    """Two-device line whose devices carry the energy model under test."""
    return build_mdp(build_topology("line", 2), RadioParams(1.0, 1.0, params.tau), params,
                     identity_chain([1.0]), harvest, power_levels=power_levels, horizon=1)


def test_quantum_and_levels():
    params = _params()
    assert params.quantum == 1.0
    assert np.allclose(params.levels, [0, 1, 2, 3, 4])


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        _params(n_levels=1)
    with pytest.raises(ValueError):
        _params(b_max=0.0)


def test_to_quanta_rounds_half_up():
    params = _params()
    assert params.to_quanta(0.49) == 0
    assert params.to_quanta(0.5) == 1
    assert params.to_quanta(1.49) == 1


def test_energy_consumed_components():
    params = _params()
    # Transmission tau*p plus computation kappa*C*K*batch, snapped to the grid;
    # idle devices pay nothing.
    assert params.slot_energy(0.0) == 0.0
    raw = 1.0 * 1.5 + params.compute_energy()
    e = params.to_quanta(params.slot_energy(1.5)) * params.quantum
    assert e == params.to_quanta(raw) * params.quantum
    assert params.compute_energy() > 0.0


def former_battery_step(b: float, e: float, u: float, params: EnergyParams) -> float:
    """The former joule battery rule: clamp(b - e + u) at capacity on the quanta grid.

    Raises CausalityViolation if e exceeds b (on the quanta grid).
    """
    bq, eq, uq = params.to_quanta(b), params.to_quanta(e), params.to_quanta(u)
    if eq > bq:
        raise CausalityViolation(f"spend {e} exceeds battery {b}")
    nq = min(bq - eq + uq, params.n_levels - 1)
    return nq * params.quantum


def test_battery_step_clips_at_capacity():
    params = _params()
    assert battery_step(3, 0, 5, params) == 4
    assert former_battery_step(3.0, 0.0, 5.0, params) == 4.0


def test_battery_step_never_negative():
    params = _params()
    assert battery_step(1, 1, 0, params) == 0
    assert former_battery_step(1.0, 1.0, 0.0, params) == 0.0


def test_causality_guard():
    params = _params()
    with pytest.raises(CausalityViolation):
        battery_step(0, 1, 0, params)
    with pytest.raises(CausalityViolation):
        former_battery_step(0.0, 1.0, 0.0, params)


def test_battery_step_names_the_first_index_that_overspends():
    params = _params()
    b = np.array([[4, 0, 2], [1, 0, 3]])
    spend = np.array([[1, 0, 3], [2, 1, 1]])
    with pytest.raises(CausalityViolation,
                       match=r"index \(0, 2\): spend of 3 quanta exceeds battery 2"):
        battery_step(b, spend, 0, params)
    ok = np.minimum(b, spend)
    assert np.array_equal(battery_step(b, ok, np.array([0, 1, 4]), params),
                          np.minimum(b - ok + [0, 1, 4], 4))


def test_feasible_actions_shrink_with_battery():
    params = _params(cycles_per_sample=0.0)
    mask = _model(params, [0.0, 1.0, 3.0]).feasible_level_masks[0]  # (levels, batteries)
    full = np.nonzero(mask[:, params.to_quanta(4.0)])[0]
    low = np.nonzero(mask[:, params.to_quanta(1.0)])[0]
    empty = np.nonzero(mask[:, params.to_quanta(0.0)])[0]
    assert full.tolist() == [0, 1, 2]
    assert low.tolist() == [0, 1]
    assert empty.tolist() == [0]


def test_harvest_model_validation():
    with pytest.raises(ValueError):
        HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        HarvestModel(support=np.array([-1.0]), probs=np.array([1.0]))


def test_harvest_off_grid_rejected():
    params = _params()
    hv = HarvestModel(support=np.array([0.0, 0.4]), probs=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        hv.quanta(params)


def harvest_index(hv, u):
    """Support indices at uniforms u, as the training co-simulation draws harvests:
    `inverse_cdf` on the law's probabilities."""
    return inverse_cdf(hv.probs[None, None], np.reshape(u, (-1, 1)), [len(hv.probs)])[:, 0]


def former_harvest_index(hv, u):
    """The former harvest draw: searchsorted, right side, on the CDF divided by its last
    entry, as `Generator.choice` draws."""
    cdf = hv.probs.cumsum()
    return (cdf / cdf[-1]).searchsorted(u, side="right")


def harvest_draws(hv, rng, size):
    """Harvest amounts at `size` uniforms, one each."""
    return hv.support[harvest_index(hv, rng.random(size))]


def shipped_models():
    """The models of the shipped configs and of the built-in instances."""
    mdps = [load_config(p).build_model() for p in sorted(CONFIGS.glob("*.json"))]
    mdps += [inst.mdp for inst in tiny_instances().values()]
    return mdps + [oracle_instance()[0], fullinfo_instance().mdp, desk_scenario(horizon=1).mdp,
                   capacity_family(2)[0], capacity_pair(3, horizon=1)[0]]


def shipped_harvest_laws():
    """Every harvest law of the shipped configs and of the built-in instances."""
    return list({id(hv): hv for mdp in shipped_models() for hv in mdp.harvests}.values())


def test_harvest_draws_equal_the_former_normalized_cdf_rule_on_every_shipped_law():
    for hv in shipped_harvest_laws():
        cdf = hv.probs.cumsum()
        edges = [np.nextafter(c, d) for c in cdf for d in (0.0, 2.0)] + cdf.tolist()
        u = np.unique(np.concatenate([np.linspace(0.0, 1.0, 1001)[:-1], edges]))
        u = u[u < 1.0]  # each CDF entry below 1, and the floats either side of it
        assert np.array_equal(harvest_index(hv, u), former_harvest_index(hv, u))


def test_point_harvest_mean_and_sample():
    hv = point_harvest(2.0)
    rng = np.random.default_rng(0)
    assert hv.mean() == 2.0
    assert (harvest_draws(hv, rng, size=10) == 2.0).all()


def test_harvest_sample_frequencies():
    hv = HarvestModel(support=np.array([0.0, 1.0, 2.0]),
                      probs=np.array([0.2, 0.5, 0.3]))
    rng = np.random.default_rng(7)
    draws = harvest_draws(hv, rng, size=100_000)
    for v, p in zip(hv.support, hv.probs):
        assert abs((draws == v).mean() - p) < 0.01


def test_battery_kernel_row_is_distribution():
    params = _params(cycles_per_sample=0.0)
    hv = HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.4, 0.6]))
    row = _model(params, [0.0, 1.0], hv).battery_kernels[0][1, params.to_quanta(2.0)]
    assert row.shape == (5,)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    # From 2 quanta, spend 1, harvest {0, 1}: mass sits on levels 1 and 2.
    assert row[1] == pytest.approx(0.4)
    assert row[2] == pytest.approx(0.6)


def test_battery_kernel_clips_at_cap():
    params = _params(cycles_per_sample=0.0)
    hv = HarvestModel(support=np.array([0.0, 2.0]), probs=np.array([0.5, 0.5]))
    row = _model(params, [0.0, 1.0], hv).battery_kernels[0][0, params.to_quanta(4.0)]
    assert row[4] == pytest.approx(1.0)


def test_solar_support_snaps_to_grid():
    params = _params()
    hv = solar_harvest_support([0.0, 200.0, 400.0], [0.3, 0.4, 0.3], params,
                               panel_cm2=100.0, efficiency=0.5)
    uq, pr = hv.quanta(params)
    assert (uq == np.round(uq)).all()
    assert pr.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the one battery rule against the former loops, on generated models
# ---------------------------------------------------------------------------

def former_battery_kernels(mdp):
    """The former kernel loop: per device (n_levels_d, nb, nb), identity filler where
    a level is not fundable, each fundable entry summed in harvest order."""
    nb = mdp.energy.n_levels
    out = []
    for d, draws in enumerate(mdp.draw_quanta):
        uq, pr = mdp.harvest_quanta[d], mdp.harvests[d].probs
        ks = np.zeros((len(draws), nb, nb))
        for l, eq in enumerate(draws):
            for b in range(nb):
                if eq > b:
                    ks[l, b, b] = 1.0
                    continue
                for amount, prob in zip(uq, pr):
                    ks[l, b, min(b - eq + amount, nb - 1)] += prob
        out.append(ks)
    return out


@st.composite
def battery_models(draw):
    """2 or 3 devices on a line, 2 to 6 battery levels of one joule each, ragged ladders
    with levels of zero quanta and levels past capacity, and harvests of up to three
    points, some past capacity."""
    m, nb = draw(st.integers(2, 3)), draw(st.integers(2, 6))
    params = _params(cycles_per_sample=draw(st.sampled_from([0.0, 0.5])), batch_size=1,
                     k_steps=1, b_max=float(nb - 1), n_levels=nb)
    powers = [0.4] + [float(k) for k in range(1, nb + 2)]
    ladders, harvests = [], []
    for _ in range(m):
        ladders.append([0.0] + sorted(draw(st.sets(st.sampled_from(powers), max_size=4))))
        support = sorted(draw(st.sets(st.integers(0, nb + 1), min_size=1, max_size=3)))
        weights = np.array(draw(st.lists(st.integers(1, 3), min_size=len(support),
                                         max_size=len(support))), dtype=float)
        harvests.append(HarvestModel(support=np.array(support, dtype=float),
                                     probs=weights / weights.sum()))
    return build_mdp(build_topology("line", m), RadioParams(1.0, 1.0, 1.0), params,
                     identity_chain([1.0]), harvests, power_levels=ladders, horizon=1)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(battery_models())
def test_battery_kernels_and_top_levels_equal_the_former_loops_on_generated_models(mdp):
    for got, want in zip(mdp.battery_kernels, former_battery_kernels(mdp), strict=True):
        assert np.array_equal(got, want)
    tops = [[np.nonzero(feas[:, b])[0].max() for b in range(mdp.energy.n_levels)]
            for feas in mdp.feasible_level_masks]
    assert np.array_equal(mdp.top_levels, tops)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 6), st.data())
def test_battery_step_is_the_former_joule_rule_on_the_quanta_grid(nb, data):
    params = _params(b_max=float(nb - 1), n_levels=nb)
    b, e, u = np.meshgrid(np.arange(nb), np.arange(nb + 2), np.arange(nb + 2), indexing="ij")
    fundable = e <= b
    got = battery_step(b[fundable], e[fundable], u[fundable], params)
    want = [former_battery_step(*map(float, x), params) / params.quantum
            for x in zip(b[fundable], e[fundable], u[fundable])]
    assert np.array_equal(got, want)
    k = data.draw(st.integers(0, int((~fundable).sum()) - 1))
    bad = tuple(x[~fundable][k] for x in (b, e, u))
    with pytest.raises(CausalityViolation):
        former_battery_step(*map(float, bad), params)
    with pytest.raises(CausalityViolation, match=r"index \(0,\)"):
        battery_step(*(np.array([x]) for x in bad), params)
