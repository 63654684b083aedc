"""Pinned study instances.

Every instance here is hand-tuned and then frozen so that studies, docs, and
tests all talk about the same objects. Three families:

* ``tiny_instances``: three-device line networks small enough for exhaustive
  policy enumeration (frozen channels and sub-quantum transmit cost collapse
  the reachable state set to the start state), tuned so localized synthesis
  at the declared temperature ceiling contracts geometrically.
* ``fullinfo_instance``: a complete three-device network where the one-hop
  cover already sees everything; synthesis converges onto the exact optimum.
* ``desk_scenario``: the eight-device ring used for policy comparisons and
  co-simulated training, sized to solve exactly in seconds on one core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelChain, RadioParams
from .energy import EnergyParams, HarvestModel, point_harvest
from .mdp import GlobalMdp, GlobalState, build_mdp
from .topology import build_topology

# Solver budget that admits the eight-device ring (65536 states x 256 actions).
DESK_BUDGET = 20_000_000


def _chain(lo: float, hi: float, stay: float) -> ChannelChain:
    move = round(1.0 - stay, 12)  # the decimal a config writes, not 1 ulp off it
    psi = np.array([[stay, move], [move, stay]])
    return ChannelChain(levels=np.array([lo, hi]), steady=np.array([0.5, 0.5]), psi=psi)


def _frozen_chain(lo: float, hi: float) -> ChannelChain:
    # Identity transitions: the gain drawn at the start persists for the whole
    # horizon, which keeps the reachable state set minimal.
    return ChannelChain(levels=np.array([lo, hi]), steady=np.array([0.5, 0.5]),
                        psi=np.eye(2))


@dataclass(frozen=True)
class TunedInstance:
    """A frozen model plus the synthesis settings it was tuned for."""

    name: str
    mdp: GlobalMdp
    s1: GlobalState
    gamma: float
    hops: int
    rounds: int
    declared_lipschitz: float
    declared_grad_bound: float

    @property
    def n_joint_actions(self) -> int:
        return self.mdp.n_actions


def _tiny(name: str, hi0: float, hi1: float, phi: float, gamma: float) -> TunedInstance:
    topo = build_topology("line", 3)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=2.0, n_levels=2)
    radio = RadioParams(phi, (0.4, 0.4, 0.4), 1.0)
    # Transmit power 0.9 J rounds to zero quanta (quantum is 2 J), so batteries
    # never move and the instance stays a pure interference game.
    mdp = build_mdp(topo, radio, energy,
                    [_frozen_chain(0.4, hi0), _frozen_chain(0.4, hi1)],
                    point_harvest(0.0), power_levels=[0.0, 0.9], horizon=3)
    s1 = GlobalState(gains=(1, 1), batteries=(1, 1, 1))
    lip = 1.0
    # Back-scaled so the certified temperature ceiling for these constants
    # lands exactly at the tuned gamma.
    g2 = 1.0 / (32.0 * topo.m * (lip + 1.0) * mdp.n_actions ** 2 * gamma)
    return TunedInstance(name=name, mdp=mdp, s1=s1, gamma=gamma, hops=2,
                         rounds=14, declared_lipschitz=lip,
                         declared_grad_bound=float(np.sqrt(g2)))


def tiny_instances() -> dict[str, TunedInstance]:
    """Three-device instances for exact-oracle and contraction studies."""
    return {
        "tiny-a": _tiny("tiny-a", 3.0, 1.3, 2.3, 64.0),
        "tiny-b": _tiny("tiny-b", 3.0, 1.3, 2.8, 80.0),
        "tiny-c": _tiny("tiny-c", 2.2, 1.1, 1.8, 64.0),
    }


def oracle_instance() -> tuple[GlobalMdp, GlobalState]:
    """Two-device pair with moving gains and random harvests.

    The frozen tiny instances exercise the interference game but keep the
    dynamics trivial; this one branches on both the channel and the battery
    while staying small enough for exhaustive assignment enumeration.
    """
    topo = build_topology("line", 2)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=1.0, n_levels=2)
    radio = RadioParams(1.8, (0.4, 0.4), 1.0)
    harvest = HarvestModel(support=np.array([0.0, 1.0]),
                           probs=np.array([0.5, 0.5]))
    mdp = build_mdp(topo, radio, energy, [_chain(0.4, 2.2, 0.7)],
                    harvest, power_levels=[0.0, 1.0], horizon=2)
    return mdp, GlobalState(gains=(1,), batteries=(1, 1))


def fullinfo_instance() -> TunedInstance:
    """Complete three-device graph whose one-hop cover is full information."""
    topo = build_topology("complete", 3)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=2.0, n_levels=2)
    radio = RadioParams(0.4, (0.2, 0.2, 0.2), 1.0)
    mdp = build_mdp(topo, radio, energy, [_frozen_chain(0.4, 2.5)] * 3,
                    point_harvest(0.0), power_levels=[0.0, 0.9], horizon=3)
    s1 = GlobalState(gains=(1, 1, 1), batteries=(1, 1, 1))
    lip = 1.0
    g2 = 1.0 / (32.0 * topo.m * (lip + 1.0) * mdp.n_actions ** 2 * 256.0)
    return TunedInstance(name="fullinfo", mdp=mdp, s1=s1, gamma=256.0,
                         hops=topo.diameter, rounds=20, declared_lipschitz=lip,
                         declared_grad_bound=float(np.sqrt(g2)))


@dataclass(frozen=True)
class DeskScenario:
    """Eight-device ring bundle: model, synthesis settings, learning task."""

    mdp: GlobalMdp
    s1: GlobalState
    gamma: float
    hops: int
    rounds: int
    budget: int
    task_dim: int
    task_samples: int
    task_heterogeneity: float
    task_seed: int

    def build_task(self):
        from .learning import make_quadratic_task
        return make_quadratic_task(self.mdp.m, self.task_dim, self.task_samples,
                                   heterogeneity=self.task_heterogeneity,
                                   seed=self.task_seed)

    def step_size(self, task=None) -> float:
        task = self.build_task() if task is None else task
        return 0.3 / task.lipschitz()


def desk_scenario(horizon: int = 40) -> DeskScenario:
    """The shipped eight-device ring.

    Low gain 0.05 makes transmitting on a faded link nearly worthless while
    still tempting a one-step planner; the Bernoulli harvest keeps quanta
    scarce. Both together reward policies that hold fire until their links
    recover, which is the behavior the exact solver finds and the localized
    synthesis approximates.
    """
    topo = build_topology("ring", 8)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=1.0, n_levels=2)
    radio = RadioParams(0.5, tuple([0.3] * 8), 1.0)
    harvest = HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.65, 0.35]))
    mdp = build_mdp(topo, radio, energy, [_chain(0.05, 2.5, 0.8)] * 8,
                    [harvest] * 8, power_levels=[0.0, 1.0], horizon=horizon)
    s1 = GlobalState(gains=(1,) * 8, batteries=(1,) * 8)
    return DeskScenario(mdp=mdp, s1=s1, gamma=512.0, hops=2, rounds=10,
                        budget=DESK_BUDGET, task_dim=16, task_samples=32,
                        task_heterogeneity=2.5, task_seed=0)


def capacity_family(n_levels: int) -> tuple[GlobalMdp, GlobalState]:
    """Three-device instance with a fixed 1 J quantum and growing capacity.

    Members differ only in how many quanta the battery holds, so the optimal
    cost is non-increasing in capacity: any feasible spending plan for a small
    battery stays feasible for a larger one.
    """
    if n_levels < 2:
        raise ValueError("need at least two battery levels")
    topo = build_topology("line", 3)
    b_max = float(n_levels - 1)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=b_max, n_levels=n_levels)
    radio = RadioParams(2.3, (0.4, 0.4, 0.4), 1.0)
    mdp = build_mdp(topo, radio, energy,
                    [_chain(0.4, 3.0, 0.85), _chain(0.9, 1.3, 0.85)],
                    point_harvest(0.0), power_levels=[0.0, 1.0], horizon=3)
    s1 = GlobalState(gains=(1, 1), batteries=(n_levels - 1,) * 3)
    return mdp, s1


def capacity_pair(n_levels: int, horizon: int = 40) -> tuple[GlobalMdp, GlobalState]:
    """Six-device ring at desk settings for the capacity spot check."""
    if n_levels not in (2, 3):
        raise ValueError("spot check is sized for two or three levels")
    topo = build_topology("ring", 6)
    b_max = float(n_levels - 1)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=b_max, n_levels=n_levels)
    radio = RadioParams(0.5, tuple([0.3] * 6), 1.0)
    harvest = HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.65, 0.35]))
    mdp = build_mdp(topo, radio, energy, [_chain(0.05, 2.5, 0.8)] * 6,
                    [harvest] * 6, power_levels=[0.0, 1.0], horizon=horizon)
    s1 = GlobalState(gains=(1,) * 6, batteries=(n_levels - 1,) * 6)
    return mdp, s1
