"""Shared fixtures.

The eight-device scenario is expensive to solve and synthesize, so everything
derived from it is session-scoped and shared between the comparison tests and
the acceptance suite.
"""

import numpy as np
import pytest

from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.dflsim import run_training
from ehdfl.instances import desk_scenario
from ehdfl.localized import synthesize
from ehdfl.mdp import backward_induction, evaluate_policy

SEEDS = tuple(range(20))


@pytest.fixture(scope="session")
def desk():
    return desk_scenario()


@pytest.fixture(scope="session")
def desk_solution(desk):
    return backward_induction(desk.mdp, budget=desk.budget)


@pytest.fixture(scope="session")
def desk_policies(desk, desk_solution):
    pols = {
        "centralized_pi": desk_solution.as_policy(),
        "myopic_central": MyopicCentralPolicy(desk.mdp, budget=desk.budget),
        "greedy": GreedyPolicy(desk.mdp),
    }
    for k in (0, 1, 2):
        pols[f"dec{k}"] = synthesize(desk.mdp, hops=k, gamma=desk.gamma,
                                     rounds=desk.rounds,
                                     table_budget=desk.budget * 10)
    return pols


@pytest.fixture(scope="session")
def desk_exact_j(desk, desk_solution, desk_policies):
    j = {"centralized_pi": desk_solution.expected_cost(desk.s1)}
    for name in ("dec0", "dec1", "dec2", "myopic_central", "greedy"):
        j[name] = evaluate_policy(desk.mdp, desk_policies[name], desk.s1)
    return j


@pytest.fixture(scope="session")
def desk_runs(desk, desk_policies):
    task = desk.build_task()
    eta = desk.step_size(task)
    runs = {}
    for name, pol in desk_policies.items():
        run = run_training(desk.mdp, task, pol, seeds=SEEDS, eta=eta, s1=desk.s1)
        runs[name] = [run[k] for k in range(len(SEEDS))]
    return runs


@pytest.fixture(scope="session")
def desk_final_loss(desk_runs):
    """Mean over seeds of the final per-device loss, one entry per policy."""
    return {name: float(np.mean([r.device_loss[-1] for r in runs]))
            for name, runs in desk_runs.items()}


@pytest.fixture
def report(request):
    """Write a line through the terminal reporter so it survives capture."""
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(line: str) -> None:
        if tr is not None:
            tr.write_line(line)

    return _report
