"""Gap curves, geometric rate fits, and the certified contraction ceiling."""
import json
from pathlib import Path

import numpy as np
import pytest

from ehdfl.boundlab import (ContractionReport, InsufficientData,
                            contraction_coefficient, contraction_study,
                            fit_rate, gap_curve, temperature_cap)
from ehdfl.instances import fullinfo_instance, oracle_instance, tiny_instances

TINY_ROUNDS = Path(__file__).resolve().parents[1] / "configs" / "tiny_rounds.json"


def test_fit_rate_recovers_exact_geometric_series():
    gaps = 3.0 * 0.5 ** np.arange(8)
    fit = fit_rate(gaps)
    assert fit.d_hat == pytest.approx(0.5, rel=1e-12)
    assert fit.c == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points == 8


def test_fit_rate_uses_longest_positive_prefix():
    gaps = np.array([1.0, 0.5, 0.25, 0.125, 0.0, 0.9])
    fit = fit_rate(gaps)
    assert fit.points == 4
    assert fit.d_hat == pytest.approx(0.5, rel=1e-12)


def test_fit_rate_rejects_short_series():
    with pytest.raises(InsufficientData):
        fit_rate([1.0, 0.5, 0.0, 0.0])
    with pytest.raises(InsufficientData):
        fit_rate([0.0])


def test_fit_rate_constant_series_is_flat_and_exact():
    fit = fit_rate(np.full(6, 0.7))
    assert fit.d_hat == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == 1.0


def test_temperature_cap_inverts_the_coefficient():
    m, lip, g, na = 3, 1.0, 0.02, 16
    cap = temperature_cap(m, lip, g, na)
    assert contraction_coefficient(cap, m, lip, g, na) == pytest.approx(1.0, rel=1e-12)
    assert contraction_coefficient(0.5 * cap, m, lip, g, na) == pytest.approx(0.5, rel=1e-12)


def test_temperature_cap_is_the_former_closed_form_bit_for_bit():
    # The cap is 1 / D at gamma = 1; 32.0 * 1.0 is exact, so the bits match the former
    # expression, which parse_config's temperature-ceiling warning compared against.
    def former(m, lip, g, na):
        return 1.0 / (32.0 * m * (lip + 1.0) * g ** 2 * na ** 2)

    pinned = [(inst.mdp.m, inst.declared_lipschitz, inst.declared_grad_bound,
               inst.n_joint_actions) for inst in [*tiny_instances().values(), fullinfo_instance()]]
    raw = json.loads(TINY_ROUNDS.read_text())
    pinned.append((raw["topology"]["m"], raw["declared"]["lipschitz"],
                   raw["declared"]["grad_bound"], len(raw["power_levels"]) ** raw["topology"]["m"]))
    rng = np.random.default_rng(0)
    drawn = [(int(rng.integers(2, 65)), float(rng.uniform(0.0, 10.0)),
              float(np.exp(rng.uniform(-12.0, 3.0))), 2 ** int(rng.integers(1, 41)))
             for _ in range(10_000)]
    for args in pinned + drawn:
        assert temperature_cap(*args) == former(*args), args


def test_declared_constants_hit_the_tuned_temperature():
    for inst in tiny_instances().values():
        cap = temperature_cap(inst.mdp.m, inst.declared_lipschitz,
                              inst.declared_grad_bound, inst.n_joint_actions)
        assert cap == pytest.approx(inst.gamma, rel=1e-9)


def test_gap_curve_is_nonnegative_and_anchored():
    mdp, s1 = oracle_instance()
    curve = gap_curve(mdp, hops=1, gamma=32.0, rounds=6, s1=s1)
    assert curve.gaps.shape == (7,)
    assert (curve.gaps >= -1e-12).all()
    np.testing.assert_allclose(curve.j_rounds, curve.gaps + curve.j_star,
                               atol=1e-12)


def test_contraction_study_bundles_certification():
    inst = tiny_instances()["tiny-a"]
    rep = contraction_study(inst.mdp, hops=inst.hops, gamma=inst.gamma,
                            rounds=10, s1=inst.s1,
                            declared=(inst.declared_lipschitz, inst.declared_grad_bound))
    assert isinstance(rep, ContractionReport)
    assert rep.certified
    assert rep.d_bound == pytest.approx(1.0, rel=1e-9)
    assert rep.fit.d_hat < 1.0
