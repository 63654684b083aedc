"""Battery accounting: the slot-energy rule, harvesting, quantized battery steps.

All energies live on a uniform grid of battery quanta (spacing = capacity
divided by level count minus one). Quantization is round-half-up, and battery
arithmetic is done on integer quanta, so the model's battery kernel rows
(`GlobalMdp.battery_kernels`) are exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CausalityViolation


@dataclass(frozen=True)
class EnergyParams:
    """Compute/transmit energy model plus the quantized battery grid.

    k_steps: local SGD steps per scheduled slot.
    cpu_freq: processor frequency (cycles per second).
    cycles_per_sample: cycles needed per training sample.
    batch_size: samples per local step.
    tau: slot duration in seconds.
    b_max: battery capacity (joules).
    n_levels: battery level count, >= 2; levels are linspace(0, b_max).
    """

    k_steps: int
    cpu_freq: float
    cycles_per_sample: float
    batch_size: int
    tau: float
    b_max: float
    n_levels: int

    def __post_init__(self):
        if self.k_steps < 1 or self.batch_size < 1:
            raise ValueError("k_steps and batch_size must be >= 1")
        if self.cpu_freq <= 0 or self.cycles_per_sample < 0:
            raise ValueError("cpu_freq must be positive, cycles_per_sample nonnegative")
        if self.tau <= 0 or self.b_max <= 0 or self.n_levels < 2:
            raise ValueError("tau, b_max must be positive and n_levels >= 2")

    @property
    def quantum(self) -> float:
        return self.b_max / (self.n_levels - 1)

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.n_levels) * self.quantum

    def compute_energy(self) -> float:
        """Raw (unquantized) energy of one scheduled slot's local training."""
        return self.k_steps * self.cpu_freq ** 2 * self.cycles_per_sample * self.batch_size

    def slot_energy(self, p: float) -> float:
        """Raw (unquantized) energy one slot at transmit power p draws.

        The energy-causality rule: a device that transmits (p > 0) also runs
        its local training; p = 0 means silent, costing nothing.
        """
        return (self.compute_energy() if p > 0 else 0.0) + p * self.tau

    def to_quanta(self, x: float) -> int:
        """Round-half-up quantization of an energy amount to integer quanta."""
        if x < 0:
            raise ValueError("energy amounts are nonnegative")
        return int(np.floor(x / self.quantum + 0.5))

    def level_index(self, b: float) -> int:
        k = self.to_quanta(b)
        if not 0 <= k < self.n_levels:
            raise ValueError(f"battery value {b} outside [0, {self.b_max}]")
        return k


def battery_step(b: float, e: float, u: float, params: EnergyParams) -> float:
    """Next battery level: clamp(b - e + u) at capacity.

    Raises CausalityViolation if e exceeds b (on the quanta grid).
    """
    bq, eq, uq = params.to_quanta(b), params.to_quanta(e), params.to_quanta(u)
    if eq > bq:
        raise CausalityViolation(f"spend {e} exceeds battery {b}")
    nq = min(bq - eq + uq, params.n_levels - 1)
    return nq * params.quantum


@dataclass(frozen=True, eq=False)
class HarvestModel:
    """Finite-support harvest distribution (amounts in joules)."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if s.ndim != 1 or s.shape != pr.shape or s.size == 0:
            raise ValueError("support and probs must be matching 1-D arrays")
        if (s < 0).any() or (np.diff(s) <= 0).any():
            raise ValueError("support must be nonnegative and strictly ascending")
        if (pr < 0).any() or abs(pr.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be a distribution")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", pr)

    def quanta(self, params: EnergyParams) -> tuple[np.ndarray, np.ndarray]:
        """Support snapped to quanta; rejects amounts that are not multiples."""
        q = np.array([params.to_quanta(x) for x in self.support], dtype=int)
        back = q * params.quantum
        if not np.allclose(back, self.support, atol=1e-9 * max(params.quantum, 1e-30)):
            raise ValueError("harvest support must be integer multiples of the battery quantum")
        return q, self.probs

    def sample(self, rng: np.random.Generator, size=None):
        idx = rng.choice(len(self.support), size=size, p=self.probs)
        return self.support[idx]

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))


def point_harvest(amount: float) -> HarvestModel:
    return HarvestModel(support=np.asarray([amount], dtype=float), probs=np.asarray([1.0]))


def solar_harvest_support(irradiance_w_m2, probs, params: EnergyParams, *,
                          panel_cm2: float = 25.0, efficiency: float = 0.2) -> HarvestModel:
    """Harvest distribution from irradiance levels via a small solar panel.

    Energy per slot = irradiance * panel area * conversion efficiency * tau,
    snapped to the battery grid (amounts must land on exact multiples after
    snapping; choose irradiance levels accordingly).
    """
    area_m2 = panel_cm2 * 1e-4
    amounts = [params.to_quanta(w * area_m2 * efficiency * params.tau) * params.quantum
               for w in irradiance_w_m2]
    return HarvestModel(support=np.asarray(amounts), probs=np.asarray(probs, dtype=float))
