"""Synthetic learning tasks and certified smoothness/heterogeneity constants."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Task methods take models w of shape (..., d) and return one loss or gradient per
# leading index. Products are stacked np.matmul, which runs the same BLAS kernel per
# item as the 1-D product, so a batched value is bit-identical to the one-model value.


def _matvec(a, w):
    """a @ w over the leading axes of w."""
    return np.matmul(a, w[..., None])[..., 0]


def _sq_norm(v):
    """v . v over the leading axes of v."""
    return np.matmul(v[..., None, :], v[..., None])[..., 0, 0]


def _global_loss(task, w):
    """Mean of the device losses, summed in device order."""
    return sum(task.local_loss(i, w) for i in range(task.m)) / task.m


def _global_grad(task, w):
    g = np.zeros(np.shape(w))
    for i in range(task.m):
        g += task.local_grad(i, w)
    return g / task.m


@dataclass(eq=False)
class QuadraticTask:
    """Per-device least squares: F_i(w) = ||A_i w - b_i||^2 / (2 n_i)."""

    a_mats: list
    b_vecs: list

    @property
    def m(self) -> int:
        return len(self.a_mats)

    @property
    def dim(self) -> int:
        return self.a_mats[0].shape[1]

    def samples(self, i: int) -> int:
        return self.a_mats[i].shape[0]

    def local_loss(self, i, w):
        r = _matvec(self.a_mats[i], w) - self.b_vecs[i]
        return 0.5 * _sq_norm(r) / self.samples(i)

    def local_grad(self, i, w):
        a, b = self.a_mats[i], self.b_vecs[i]
        return _matvec(a.T, _matvec(a, w) - b) / a.shape[0]

    global_loss = _global_loss
    global_grad = _global_grad

    @functools.cached_property
    def w_star(self):
        h = np.zeros((self.dim, self.dim))
        c = np.zeros(self.dim)
        for i in range(self.m):
            h += self.a_mats[i].T @ self.a_mats[i] / self.samples(i)
            c += self.a_mats[i].T @ self.b_vecs[i] / self.samples(i)
        return np.linalg.solve(h / self.m, c / self.m)

    @property
    def f_star(self) -> float:
        return self.global_loss(self.w_star)

    def lipschitz(self) -> float:
        """Exact smoothness constant: max_i largest eigenvalue of A_i^T A_i / n_i."""
        out = 0.0
        for i in range(self.m):
            h = self.a_mats[i].T @ self.a_mats[i] / self.samples(i)
            out = max(out, float(np.linalg.eigvalsh(h)[-1]))
        return out


@dataclass(eq=False)
class LogisticTask:
    """Per-device l2-regularized logistic regression with labels in {-1, +1}."""

    x_mats: list
    y_vecs: list
    reg: float = 1e-2

    @property
    def m(self) -> int:
        return len(self.x_mats)

    @property
    def dim(self) -> int:
        return self.x_mats[0].shape[1]

    def samples(self, i: int) -> int:
        return self.x_mats[i].shape[0]

    def local_loss(self, i, w):
        z = self.y_vecs[i] * _matvec(self.x_mats[i], w)
        return np.mean(np.logaddexp(0.0, -z), axis=-1) + 0.5 * self.reg * _sq_norm(w)

    def local_grad(self, i, w):
        x, y = self.x_mats[i], self.y_vecs[i]
        z = y * _matvec(x, w)
        s = -y / (1.0 + np.exp(z))
        return _matvec(x.T, s) / x.shape[0] + self.reg * w

    global_loss = _global_loss
    global_grad = _global_grad

    @functools.cached_property
    def w_star(self):
        from scipy.optimize import minimize  # slower to import than all of ehdfl
        res = minimize(self.global_loss, np.zeros(self.dim), jac=self.global_grad,
                       method="L-BFGS-B", tol=1e-12)
        return res.x

    @property
    def f_star(self) -> float:
        return self.global_loss(self.w_star)

    def lipschitz(self) -> float:
        """Upper bound: max_i (0.25 lambda_max(X_i^T X_i / n_i) + reg)."""
        out = 0.0
        for i in range(self.m):
            h = self.x_mats[i].T @ self.x_mats[i] / self.samples(i)
            out = max(out, 0.25 * float(np.linalg.eigvalsh(h)[-1]) + self.reg)
        return out


def make_quadratic_task(m: int, dim: int, n_per: int, *, heterogeneity: float = 1.0,
                        seed: int = 0, scale: float = 1.0) -> QuadraticTask:
    """Random well-conditioned least-squares tasks with controllable drift.

    Device i's target is w_base + heterogeneity * delta_i, so heterogeneity=0
    gives identical optima and larger values pull the local minimizers apart.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    w_base = rng.normal(size=dim)
    a_mats, b_vecs = [], []
    for i in range(m):
        a = rng.normal(size=(n_per, dim)) * scale / np.sqrt(dim)
        target = w_base + heterogeneity * rng.normal(size=dim)
        a_mats.append(a)
        b_vecs.append(a @ target)
    return QuadraticTask(a_mats=a_mats, b_vecs=b_vecs)


def make_logistic_task(m: int, dim: int, n_per: int, *, heterogeneity: float = 1.0,
                       seed: int = 0, reg: float = 1e-2) -> LogisticTask:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(102,)))
    w_base = rng.normal(size=dim)
    x_mats, y_vecs = [], []
    for i in range(m):
        x = rng.normal(size=(n_per, dim)) / np.sqrt(dim)
        w_i = w_base + heterogeneity * rng.normal(size=dim)
        margin = x @ w_i
        y = np.where(margin + 0.3 * rng.normal(size=n_per) >= 0, 1.0, -1.0)
        x_mats.append(x)
        y_vecs.append(y)
    return LogisticTask(x_mats=x_mats, y_vecs=y_vecs, reg=reg)


@dataclass(frozen=True)
class LearnConsts:
    """Constants feeding the convergence bound; c1 = sigma_l^2 + 4 K sigma_g^2."""

    lipschitz: float
    sigma_l: float
    sigma_g: float
    grad_bound: float  # G
    eta: float
    k_steps: int

    @property
    def c1(self) -> float:
        return self.sigma_l ** 2 + 4.0 * self.k_steps * self.sigma_g ** 2


def prescribed_eta(lipschitz: float, m: int, k_steps: int, horizon: int) -> float:
    """Step size matching the convergence analysis: sqrt(m) / (64 L K sqrt(T))."""
    return float(np.sqrt(m) / (64.0 * lipschitz * k_steps * np.sqrt(horizon)))


def hetero_const(task, points) -> float:
    """sup over probe points of max_i ||grad F_i - grad F|| (certified on the grid)."""
    worst = 0.0
    for w in points:
        g = task.global_grad(w)
        for i in range(task.m):
            worst = max(worst, float(np.linalg.norm(task.local_grad(i, w) - g)))
    return worst


def probe_points(task, *, radius: float = 2.0, count: int = 32, seed: int = 0):
    """Probe grid around the global optimum plus random ball samples."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(103,)))
    pts = [task.w_star, np.zeros(task.dim)]
    for _ in range(count):
        pts.append(task.w_star + radius * rng.normal(size=task.dim) / np.sqrt(task.dim))
    return pts


def certify_consts(task, *, eta: float, k_steps: int, sigma_l: float = 0.0,
                   trajectory_sup_sq: float = 0.0, safety: float = 2.0,
                   seed: int = 0) -> LearnConsts:
    """Assemble certified constants: exact L, probe-grid sigma_g, trajectory G.

    trajectory_sup_sq is the largest squared gradient norm observed while
    training; G^2 takes that times a safety factor, plus sigma_l^2, the
    declared local gradient variance, so the bound's moment condition holds on
    everything the run actually visited.
    """
    lip = task.lipschitz()
    sg = hetero_const(task, probe_points(task, seed=seed))
    g2 = safety * max(trajectory_sup_sq, 1e-12) + sigma_l ** 2
    return LearnConsts(lipschitz=lip, sigma_l=sigma_l, sigma_g=safety * sg,
                       grad_bound=float(np.sqrt(g2)), eta=eta, k_steps=k_steps)
