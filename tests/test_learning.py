"""Synthetic tasks and certified constants: exactness and consistency checks."""
import dataclasses

import numpy as np
import pytest

from ehdfl.learning import (LearnConsts, LogisticTask, QuadraticTask,
                            certify_consts, hetero_const, make_logistic_task,
                            make_quadratic_task, prescribed_eta, probe_points)


@pytest.fixture(scope="module")
def quad():
    return make_quadratic_task(4, 6, 12, heterogeneity=1.5, seed=3)


def test_quadratic_optimum_is_stationary(quad):
    g = quad.global_grad(quad.w_star)
    assert np.linalg.norm(g) < 1e-10


def test_quadratic_f_star_is_a_minimum(quad):
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = quad.w_star + rng.normal(size=quad.dim)
        assert quad.global_loss(w) >= quad.f_star - 1e-12


def test_quadratic_lipschitz_is_max_hessian_eigenvalue(quad):
    expected = 0.0
    for i in range(quad.m):
        h = quad.a_mats[i].T @ quad.a_mats[i] / quad.samples(i)
        expected = max(expected, float(np.linalg.eigvalsh(h)[-1]))
    assert quad.lipschitz() == pytest.approx(expected, rel=1e-12)


def test_quadratic_gradient_matches_finite_differences(quad):
    rng = np.random.default_rng(1)
    w = rng.normal(size=quad.dim)
    g = quad.local_grad(0, w)
    eps = 1e-6
    for k in range(quad.dim):
        e = np.zeros(quad.dim)
        e[k] = eps
        fd = (quad.local_loss(0, w + e) - quad.local_loss(0, w - e)) / (2 * eps)
        assert g[k] == pytest.approx(fd, abs=1e-5)


def test_global_grad_is_average_of_locals(quad):
    rng = np.random.default_rng(2)
    w = rng.normal(size=quad.dim)
    avg = sum(quad.local_grad(i, w) for i in range(quad.m)) / quad.m
    np.testing.assert_allclose(quad.global_grad(w), avg, atol=1e-14)


def test_zero_heterogeneity_aligns_local_optima():
    # Identical targets mean every local gradient vanishes at the shared
    # optimum; the data matrices still differ, so gradients may disagree
    # elsewhere.
    task = make_quadratic_task(3, 4, 10, heterogeneity=0.0, seed=7)
    for i in range(task.m):
        gi = task.local_grad(i, task.w_star)
        assert np.linalg.norm(gi) < 1e-9
    assert hetero_const(task, [task.w_star]) < 1e-9


def test_hetero_const_grows_with_drift():
    lo = make_quadratic_task(3, 4, 10, heterogeneity=0.1, seed=7)
    hi = make_quadratic_task(3, 4, 10, heterogeneity=2.0, seed=7)
    pts = [np.zeros(4)]
    assert hetero_const(hi, pts) > hetero_const(lo, pts)


def test_logistic_gradient_matches_finite_differences():
    task = make_logistic_task(2, 5, 15, seed=4)
    rng = np.random.default_rng(5)
    w = rng.normal(size=task.dim)
    g = task.local_grad(0, w)
    eps = 1e-6
    for k in range(task.dim):
        e = np.zeros(task.dim)
        e[k] = eps
        fd = (task.local_loss(0, w + e) - task.local_loss(0, w - e)) / (2 * eps)
        assert g[k] == pytest.approx(fd, abs=1e-5)


def test_logistic_optimum_is_stationary():
    task = make_logistic_task(2, 4, 25, seed=4)
    assert np.linalg.norm(task.global_grad(task.w_star)) < 1e-5
    assert task.f_star <= task.global_loss(np.zeros(task.dim)) + 1e-12


def test_prescribed_eta_formula():
    assert prescribed_eta(2.0, 9, 4, 16) == pytest.approx(
        np.sqrt(9) / (64.0 * 2.0 * 4 * np.sqrt(16)), rel=1e-15)


def test_learn_consts_c1():
    c = LearnConsts(lipschitz=1.0, sigma_l=0.3, sigma_g=0.7, grad_bound=1.0,
                    eta=0.01, k_steps=3)
    assert c.c1 == pytest.approx(0.3 ** 2 + 4 * 3 * 0.7 ** 2, rel=1e-15)
    assert dataclasses.replace(c, sigma_l=0.0).c1 == pytest.approx(4 * 3 * 0.7 ** 2, rel=1e-15)


def test_certify_consts_covers_the_trajectory(quad):
    consts = certify_consts(quad, eta=0.05, k_steps=1, trajectory_sup_sq=9.0,
                            safety=2.0)
    assert consts.lipschitz == pytest.approx(quad.lipschitz(), rel=1e-12)
    assert consts.grad_bound ** 2 >= 2.0 * 9.0 - 1e-9
    assert consts.sigma_g >= hetero_const(quad, probe_points(quad, seed=0)) - 1e-12
    assert consts.eta == 0.05 and consts.k_steps == 1


def test_certify_consts_adds_noise_variance(quad):
    quiet = certify_consts(quad, eta=0.05, k_steps=1, trajectory_sup_sq=1.0)
    noisy = certify_consts(quad, eta=0.05, k_steps=1, trajectory_sup_sq=1.0,
                           sigma_l=0.5)
    assert noisy.grad_bound ** 2 == pytest.approx(quiet.grad_bound ** 2 + 0.25,
                                                  rel=1e-12)
    assert noisy.sigma_l == 0.5
