import numpy as np
import pytest

from ehdfl.channel import RadioParams, identity_chain
from ehdfl.energy import (EnergyParams, HarvestModel, battery_step, point_harvest,
                          solar_harvest_support)
from ehdfl.errors import CausalityViolation
from ehdfl.mdp import build_mdp
from ehdfl.topology import build_topology


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


def test_battery_step_clips_at_capacity():
    params = _params()
    b = battery_step(3.0, 0.0, 5.0, params)
    assert b == 4.0


def test_battery_step_never_negative():
    params = _params()
    b = battery_step(1.0, 1.0, 0.0, params)
    assert b == 0.0


def test_causality_guard():
    params = _params()
    with pytest.raises(CausalityViolation):
        battery_step(0.0, 1.0, 0.0, params)


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


def harvest_draws(hv, rng, size):
    """Harvest amounts drawn by inverse CDF on `hv.cdf`, one uniform each, as the
    training co-simulation draws them."""
    return hv.support[hv.cdf.searchsorted(rng.random(size), side="right")]


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
