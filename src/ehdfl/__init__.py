"""Transmission-policy synthesis and training co-simulation for
device-to-device federated learning on harvested energy.

The package splits into a model stack (topology, channel, energy, the global
constrained MDP), two policy routes (exact backward induction and localized
softmax improvement with bounded information exchange), baselines, a
learning co-simulator with a rate certificate, tooling for studying the
synthesis contraction, and an experiment harness with a JSON config front
end.
"""

from .baselines import GreedyPolicy, MyopicCentralPolicy
from .boundlab import (ContractionReport, GapCurve, InsufficientData, RateFit,
                       contraction_coefficient, contraction_study, fit_rate,
                       gap_curve, temperature_cap)
from .channel import (ChannelChain, RadioParams, build_chain_from_crossing,
                      identity_chain, packet_error_rate, rayleigh_chain)
from .config import ExperimentConfig, canonical_hash, load_config, parse_config
from .dflsim import (DflRun, Theorem1Bound, apply_gossip, convergence_bound,
                     gossip_passes, local_sgd, run_training)
from .energy import (EnergyParams, HarvestModel, battery_step, point_harvest,
                     solar_harvest_support)
from .errors import BudgetExceeded, CausalityViolation, ConfigError
from .harness import run_experiment, verify_suite
from .learning import (LearnConsts, certify_consts, hetero_const,
                       make_logistic_task, make_quadratic_task, prescribed_eta)
from .localized import (ExtensionDefaults, LocalizedPolicy, load_localized,
                        save_localized, synthesize)
from .mdp import (GlobalMdp, GlobalState, Solution, backward_induction,
                  build_mdp, evaluate_policy, load_solution, save_solution,
                  simulate_costs)
from .topology import Topology, build_topology

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CausalityViolation", "ChannelChain", "ConfigError",
    "ContractionReport", "DflRun", "EnergyParams", "ExperimentConfig",
    "ExtensionDefaults", "GapCurve", "GlobalMdp", "GlobalState",
    "GreedyPolicy", "HarvestModel", "InsufficientData", "LearnConsts",
    "LocalizedPolicy", "MyopicCentralPolicy", "RadioParams", "RateFit",
    "Solution", "Theorem1Bound", "Topology", "apply_gossip",
    "backward_induction", "battery_step", "build_chain_from_crossing",
    "build_mdp", "build_topology", "canonical_hash", "certify_consts",
    "contraction_coefficient", "contraction_study", "convergence_bound",
    "evaluate_policy", "fit_rate", "gap_curve", "gossip_passes",
    "hetero_const", "identity_chain", "load_config", "load_localized",
    "load_solution", "local_sgd", "make_logistic_task", "make_quadratic_task",
    "packet_error_rate", "parse_config", "point_harvest", "prescribed_eta",
    "rayleigh_chain", "run_experiment", "run_training", "save_localized",
    "save_solution", "simulate_costs", "solar_harvest_support", "synthesize",
    "temperature_cap", "verify_suite",
]
