"""Config validation, canonical hashing, and the command-line front end."""
import ast
import dataclasses
import json
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ehdfl import harness
from ehdfl import mdp as mdp_module
from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.config import _stationary, canonical_hash, load_config, parse_config
from ehdfl.errors import BudgetExceeded, ConfigError
from ehdfl.harness import _train_seeds, action_feasibility, exhaustive_minimum, run_experiment
from ehdfl.instances import oracle_instance
from ehdfl.localized import build_cover, synthesize
from ehdfl.mdp import backward_induction, build_mdp, evaluate_policy

DESK8 = Path(__file__).resolve().parents[1] / "configs" / "desk8.json"


def base_raw(out_dir="results", **over):
    raw = {
        "name": "pair-check",
        "topology": {"kind": "line", "m": 2},
        "channel": {"phi": 1.8, "sigma2": 0.4,
                    "chains": [{"levels": [0.4, 2.2],
                                "psi": [[0.7, 0.3], [0.3, 0.7]]}]},
        "energy": {"b_max": 1.0, "n_levels": 2,
                   "harvest": {"support": [0.0, 1.0], "probs": [0.5, 0.5]}},
        "power_levels": [0.0, 1.0],
        "horizon": 2,
        "policy": {"name": "greedy", "gamma": 32.0, "rounds": 4, "hops": 1},
        "task": {"kind": "quadratic", "dim": 4, "samples": 8},
        "seeds": [1],
        "out_dir": out_dir,
    }
    raw.update(over)
    return raw


# ---------------------------------------------------------------------------
# parsing and hashing
# ---------------------------------------------------------------------------

def test_parse_accepts_a_minimal_config():
    cfg = parse_config(base_raw())
    assert cfg.m == 2 and cfg.horizon == 2
    assert cfg.policy_name == "greedy"
    assert cfg.warnings == []
    assert len(cfg.hash) == 12 and int(cfg.hash, 16) >= 0


def test_hash_ignores_out_dir_but_not_content():
    a = canonical_hash(base_raw(out_dir="one"))
    b = canonical_hash(base_raw(out_dir="two"))
    c = canonical_hash(base_raw(horizon=3))
    assert a == b
    assert a != c
    assert parse_config(base_raw(out_dir="one")).hash == a


def test_all_problems_reported_at_once():
    raw = base_raw()
    raw["topology"] = {"kind": "star", "m": 1}
    raw["channel"] = {"chains": [{"levels": [0.4, 2.2],
                                  "psi": [[0.7, 0.3], [0.3, 0.7]]}]}
    raw["power_levels"] = [1.0, 0.5]
    raw["horizon"] = -2
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    text = "\n".join(exc.value.items)
    for frag in ("topology.kind", "topology.m", "channel.phi",
                 "power_levels", "horizon"):
        assert frag in text
    assert len(exc.value.items) >= 5


def test_sub_quantum_power_level_warns_about_snapping():
    cfg = parse_config(base_raw(power_levels=[0.0, 0.4]))
    assert any("snaps" in w for w in cfg.warnings)


def test_no_zero_cost_level_is_an_error():
    with pytest.raises(ConfigError) as exc:
        parse_config(base_raw(power_levels=[2.0, 3.0]))
    assert any("zero quantum cost" in it for it in exc.value.items)


def test_off_grid_harvest_is_an_error():
    raw = base_raw()
    raw["energy"]["harvest"] = {"support": [0.0, 0.4], "probs": [0.5, 0.5]}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert any(it.startswith("energy.harvest[0]") for it in exc.value.items)


def test_gamma_above_the_certified_ceiling_warns():
    raw = base_raw()
    raw["policy"] = {"name": "decentralized_pi", "gamma": 1e9, "rounds": 2,
                     "hops": 1}
    raw["declared"] = {"lipschitz": 1.0, "grad_bound": 0.5}
    cfg = parse_config(raw)
    assert any("temperature ceiling" in w for w in cfg.warnings)


def test_ceiling_check_counts_joint_actions_past_int64():
    # 2 ** 64 joint actions: a wrapped int64 product reads 0 and skips the check.
    raw = base_raw(topology={"kind": "ring", "m": 64})
    raw["policy"] = {"name": "decentralized_pi", "gamma": 1e9, "rounds": 2,
                     "hops": 1}
    raw["declared"] = {"lipschitz": 1.0, "grad_bound": 0.5}
    cfg = parse_config(raw)
    assert any("temperature ceiling" in w for w in cfg.warnings)


def test_sweep_section_is_validated():
    for sweep, frag in (
        ({"axis": "volume", "values": [1]}, "sweep.axis"),
        ({"axis": "capacity", "values": [1]}, "level counts"),
        ({"axis": "rounds", "values": [-1]}, "round counts"),
        ({"axis": "hops", "values": []}, "non-empty"),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config(base_raw(sweep=sweep))
        assert any(frag in it for it in exc.value.items)


def test_start_state_section_is_validated():
    with pytest.raises(ConfigError) as exc:
        parse_config(base_raw(s1={"gains": [1]}))
    assert any("s1" in it for it in exc.value.items)
    with pytest.raises(ConfigError) as exc:
        parse_config(base_raw(s1={"gains": [1], "batteries": [1, 1, 1]}))
    assert any("s1.batteries" in it for it in exc.value.items)


def test_build_model_and_start_state():
    cfg = parse_config(base_raw())
    mdp = cfg.build_model()
    assert mdp.m == 2 and mdp.n_states == 8 and mdp.n_actions == 4
    s1 = cfg.start_state(mdp)
    assert s1.batteries == (1, 1)  # default: full batteries

    cfg2 = parse_config(base_raw(s1={"gains": [1], "batteries": [0, 1]}))
    s2 = cfg2.start_state(mdp)
    assert s2.gains == (1,) and s2.batteries == (0, 1)


def test_steady_law_is_exact_by_detailed_balance():
    for p in (0.15, 0.2, 0.3):  # eig gives 0.5000000000000001 on one side for some of these
        assert _stationary(np.array([[1 - p, p], [p, 1 - p]])).tolist() == [0.5, 0.5]
    psi = np.array([[0.6, 0.4, 0.0], [0.3, 0.5, 0.2], [0.0, 0.7, 0.3]])
    vals, vecs = np.linalg.eig(psi.T)
    ref = np.abs(np.real(vecs[:, np.argmin(np.abs(vals - 1.0))]))
    np.testing.assert_allclose(_stationary(psi), ref / ref.sum(), rtol=0, atol=1e-12)


def test_build_policy_rejects_unknown_names():
    cfg = parse_config(base_raw())
    mdp = cfg.build_model()
    with pytest.raises(ConfigError):
        cfg.build_policy(mdp, name="thompson")


def test_load_config_reports_broken_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nonsense")
    with pytest.raises(ConfigError) as exc:
        load_config(bad)
    assert any("not valid JSON" in it for it in exc.value.items)


DESK8_CHAIN = json.loads(DESK8.read_text())["channel"]["chains"][0]
MALFORMED = [
    (("channel", "phi"), "x"), (("channel", "tau"), "x"), (("policy", "gamma"), "x"),
    (("channel", "sigma2"), "x"), (("power_levels",), [0.0, float("nan")]),
    (("power_levels",), [0.0, float("inf")]), (("power_levels",), ["a", 1.0]),
    (("topology",), []), (("energy",), []), (("task",), []), (("sweep",), []),
    (("energy", "n_levels"), 2.5), (("horizon",), True),
    (("power_levels",), [-1.0, 0.0]), (("energy", "k_steps"), 2.0), (("seeds",), [True]),
    (("energy", "harvest"), {"point": float("inf")}),
    (("declared",), {"lipschitz": 1.0, "grad_bound": 0.0}),
    (("channel", "chains"), [{"levels": [0.1, 0.2, 0.3],
                              "psi": [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]}]),
    (("channel", "chains"), [{"levels": [0.1, 0.2], "psi": [[1.0, 0.0], [0.0, 1.0]]}]),
    (("s1", "batteries"), 3), (("s1", "batteries"), [2] * 8), (("s1", "gains"), [9] * 8),
    (("s1", "gains"), [1] * 7), (("task", "dim"), "x"), (("task", "samples"), "x"),
    (("task", "seed"), "x"), (("task", "seed"), -1), (("mc_samples",), "x"),
    (("topology", "seed"), "x"), (("policy", "defaults", "gain"), "x"),
    (("policy", "defaults", "gain"), 7), (("policy", "defaults", "battery"), -1),
    (("policy", "defaults", "level"), 2), (("policy", "defaults"), []), (("task",), None),
    (("sweep", "values"), [True, 2]), (("sweep", "train"), "no"),
    (("channel", "chains"), [DESK8_CHAIN, DESK8_CHAIN]),
    (("power_levels",), [0.0, 0.0, 1.0]), (("power_levels",), [0.0, 1.0, 1.0]),
    (("power_levels",), [0.25, 1.0]), (("seeds",), [-1]),
]


@pytest.mark.parametrize("path,value", MALFORMED,
                         ids=[f"{'.'.join(p)}={v!r}" for p, v in MALFORMED])
def test_malformed_values_are_config_errors(path, value):
    raw = json.loads(DESK8.read_text())
    section = raw
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    with pytest.raises(ConfigError) as exc:
        cfg = parse_config(raw)
        cfg.start_state(cfg.build_model())  # whatever parsing lets through must build
    assert ".".join(path) in [it.split(":")[0].split("[")[0] for it in exc.value.items]


def test_zero_horizon_ring_of_20000_parses_in_linear_time_and_memory():
    # Parsing builds the topology but not its dense m x m products.
    raw = json.loads(DESK8.read_text())
    raw["topology"]["m"], raw["horizon"] = 20_000, 0
    del raw["s1"]
    t0 = time.perf_counter()
    parse_config(raw)
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    try:
        cfg = parse_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.m == 20_000 and len(cfg.chains) == 20_000
    assert seconds < 1.0
    assert peak < 50e6


def test_zero_horizon_random_geometric_config_of_2000_parses_in_linear_memory():
    # Edges are found one row of squared distances at a time, never an m x m array.
    raw = json.loads(DESK8.read_text())
    raw["topology"] = {"kind": "random_geometric", "m": 2_000, "seed": 3}
    raw["horizon"] = 0
    del raw["s1"]
    tracemalloc.start()
    try:
        cfg = parse_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.m == 2_000 and len(cfg.chains) == len(cfg.topo.edges)
    assert peak < 20e6


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _cli(*args):
    return subprocess.run([sys.executable, "-m", "ehdfl.cli", *args],
                          capture_output=True, text=True, timeout=300)


def _write(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def _csv_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(d).glob("*.csv"))}


def test_cli_import_leaves_scipy_and_process_pools_unloaded():
    # SciPy serves only the logistic task's optimum and a pool only --jobs > 1;
    # every command would pay for their import otherwise.
    code = ("import sys, ehdfl.cli; "
            "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_train_writes_metrics(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path, base_raw(out_dir=str(out)))
    res = _cli("train", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    assert "wrote" in res.stdout
    for name in ("metrics_seed1.csv", "summary.csv", "metric_vs_slots.csv"):
        assert (out / name).exists()


def test_cli_validation_failure_exits_2(tmp_path):
    raw = base_raw()
    raw["topology"]["m"] = 1
    cfg = _write(tmp_path, raw)
    res = _cli("train", "--config", str(cfg))
    assert res.returncode == 2
    assert "error:" in res.stderr

    res2 = _cli("sweep", "--config", str(_write(tmp_path, base_raw(), "ok.json")))
    assert res2.returncode == 2  # no sweep section
    assert "sweep" in res2.stderr


def test_cli_malformed_value_exits_2_without_traceback(tmp_path):
    # s1.gains needs the per-link chain sizes; the chain count needs the topology.
    for section, key, value in (("channel", "phi", "x"), ("s1", "gains", [9] * 8),
                                ("channel", "chains", [DESK8_CHAIN, DESK8_CHAIN])):
        raw = json.loads(DESK8.read_text())
        raw[section][key] = value
        res = _cli("solve", "--config", str(_write(tmp_path, raw)))
        assert res.returncode == 2
        assert f"{section}.{key}" in res.stderr and "Traceback" not in res.stderr


def test_cli_negative_seed_exits_2_without_traceback(tmp_path):
    cfg = _write(tmp_path, base_raw(out_dir=str(tmp_path / "out")))
    res = _cli("train", "--config", str(cfg), "--seed", "-3")
    assert res.returncode == 2
    assert "error: seeds:" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "out").exists()


def test_cli_budget_exceeded_exits_3(tmp_path):
    raw = base_raw(out_dir=str(tmp_path / "solve"), budget=10)
    raw["policy"] = {"name": "centralized_pi"}
    cfg = _write(tmp_path, raw)
    res = _cli("solve", "--config", str(cfg))
    assert res.returncode == 3
    assert "error:" in res.stderr and "10" in res.stderr
    assert not (tmp_path / "solve").exists()  # refused inside the runner, before a write


def test_refused_runs_leave_no_artifact_directory(tmp_path, capsys):
    from ehdfl.cli import main
    cfg = _write(tmp_path, base_raw(out_dir=str(tmp_path / "out")))
    assert main(["sweep", "--config", str(cfg)]) == 2  # no sweep section
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        run_experiment(load_config(cfg), "bogus")
    assert not (tmp_path / "out").exists()
    assert main(["verify", "--config", str(cfg)]) == 0  # made once there is a file to write
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["verify.csv"]


def test_cli_exact_evaluation_of_an_oversized_model_exits_3_before_building_rows(tmp_path):
    # 64 devices: 2^64 channel x 2^64 battery configurations. Greedy rows need no
    # table, so only the exact-evaluation budget stands between the run and a
    # full-size allocation.
    raw = json.loads(DESK8.read_text())
    raw["topology"]["m"] = 64
    raw["horizon"] = 1
    raw["out_dir"] = str(tmp_path / "out")
    del raw["s1"]
    cfg = _write(tmp_path, raw)
    start = time.perf_counter()
    res = _cli("evaluate", "--config", str(cfg), "--policy", "greedy")
    assert time.perf_counter() - start < 10.0
    assert res.returncode == 3, res.stderr
    assert "error:" in res.stderr and "Traceback" not in res.stderr


def test_cli_myopic_training_over_the_budget_exits_3_before_building_the_table(tmp_path):
    # 11 devices: 2^22 states x 2^11 joint actions, over the config's 20M budget.
    # The myopic table is one DP slot, so the DP's budget check refuses it at once.
    raw = json.loads(DESK8.read_text())
    raw["topology"]["m"] = 11
    raw["horizon"] = 2
    raw["out_dir"] = str(tmp_path / "out")
    del raw["s1"]
    cfg = _write(tmp_path, raw)
    start = time.perf_counter()
    res = _cli("train", "--config", str(cfg), "--policy", "myopic_central")
    assert time.perf_counter() - start < 2.0
    assert res.returncode == 3, res.stderr
    assert "error:" in res.stderr and "Traceback" not in res.stderr


def test_cli_zero_horizon_writes_headers_only(tmp_path):
    out = tmp_path / "empty"
    cfg = _write(tmp_path, base_raw(out_dir=str(out), horizon=0))
    res = _cli("train", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["metric_vs_slots.csv", "metrics_seed1.csv", "summary.csv"]
    for p in out.glob("*.csv"):
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("# config ")


@pytest.mark.parametrize("kind,sweep", [
    ("solve", None), ("evaluate", None), ("train", None),
    ("sweep", {"axis": "rounds", "values": [0, 1]}),
    ("sweep", {"axis": "capacity", "values": [2, 3], "train": True}),
    ("sweep", {"axis": "hops", "values": [0, 1]}),
])
def test_zero_horizon_headers_match_a_real_run(tmp_path, kind, sweep):
    headers = []
    for horizon in (0, 1):
        out = tmp_path / f"h{horizon}"
        raw = base_raw(out_dir=str(out), horizon=horizon, mc_samples=20)
        if sweep is not None:
            raw["sweep"] = sweep
        run_experiment(parse_config(raw), kind)
        headers.append({p.name: p.read_text().splitlines()[1] for p in out.glob("*.csv")})
    assert headers[0] == headers[1]
    assert headers[0]


def test_cli_verify_is_reproducible(tmp_path):
    out_a, out_b = tmp_path / "va", tmp_path / "vb"
    res_a = _cli("verify", "--out", str(out_a))
    res_b = _cli("verify", "--out", str(out_b))
    assert res_a.returncode == 0 and res_b.returncode == 0
    assert res_a.stdout == res_b.stdout
    assert "PASS" in res_a.stdout and "FAIL" not in res_a.stdout
    assert (out_a / "verify.csv").read_bytes() == (out_b / "verify.csv").read_bytes()


def test_cli_seed_and_out_overrides(tmp_path):
    out = tmp_path / "override"
    cfg = _write(tmp_path, base_raw(out_dir=str(tmp_path / "ignored")))
    res = _cli("train", "--config", str(cfg), "--seed", "7", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "metrics_seed7.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_overrides_parse_the_config_once_and_warn_once(tmp_path, capsys, monkeypatch):
    from ehdfl import cli
    calls = []

    def counted(raw, _fn=cli.parse_config):
        calls.append(raw)
        return _fn(raw)

    monkeypatch.setattr(cli, "parse_config", counted)
    out = tmp_path / "override"
    cfg = _write(tmp_path, base_raw(out_dir=str(tmp_path / "ignored"), power_levels=[0.0, 0.4]))
    assert cli.main(["train", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    assert len(calls) == 1 and calls[0]["seeds"] == [7] and calls[0]["out_dir"] == str(out)
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert warnings and len(warnings) == len(set(warnings)), warnings
    assert any("snaps" in w for w in warnings)
    assert (out / "metrics_seed7.csv").exists() and not (tmp_path / "ignored").exists()


def test_cli_runs_are_byte_identical_across_jobs(tmp_path):
    dirs = [tmp_path / f"d{k}" for k in range(3)]
    raw = base_raw(seeds=[1, 2, 3], horizon=6)
    cfg = _write(tmp_path, raw)
    for d, jobs in zip(dirs, ("1", "1", "4")):
        res = _cli("train", "--config", str(cfg), "--out", str(d),
                   "--jobs", jobs)
        assert res.returncode == 0, res.stderr
    first = _csv_bytes(dirs[0])
    assert set(first) == {"metrics_seed1.csv", "metrics_seed2.csv",
                          "metrics_seed3.csv", "summary.csv",
                          "metric_vs_slots.csv"}
    assert _csv_bytes(dirs[1]) == first  # same invocation repeated
    assert _csv_bytes(dirs[2]) == first  # parallel workers


@pytest.mark.parametrize("policy", ["greedy", "decentralized_pi"])
def test_train_seeds_are_identical_across_jobs(policy):
    # Two workers get contiguous chunks of 2 and 3 seeds; the repeated seed lands in both.
    seeds = [4, 1, 9, 1, 6]
    cfg = parse_config(base_raw(seeds=seeds, horizon=6,
                                policy={"name": policy, "gamma": 1.0, "rounds": 2,
                                        "hops": 1}))
    mdp = cfg.build_model()
    pol, s1 = cfg.build_policy(mdp), cfg.start_state(mdp)
    one, two = (_train_seeds(cfg, mdp, pol, s1, jobs) for jobs in (1, 2))
    assert one.global_loss.shape[0] == len(seeds)
    for f in dataclasses.fields(one)[1:]:
        a, b = getattr(one, f.name), getattr(two, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        assert np.array_equal(a[1], a[3]), f.name


def test_train_seeds_returns_the_one_chunk_record_itself(monkeypatch):
    made, original = [], harness.run_training

    def run_training(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    cfg = parse_config(base_raw(seeds=[3, 5], horizon=2))
    mdp = cfg.build_model()
    monkeypatch.setattr(harness, "run_training", run_training)
    run = _train_seeds(cfg, mdp, cfg.build_policy(mdp, "greedy"), cfg.start_state(mdp), 1)
    assert len(made) == 1 and run is made[0]


@pytest.mark.parametrize("policy", ["greedy", "decentralized_pi"])
def test_evaluate_csv_is_byte_identical_across_jobs(tmp_path, policy):
    csvs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        cfg = parse_config(base_raw(out_dir=str(out), seeds=[1, 2, 3], mc_samples=200,
                                    policy={"name": policy, "gamma": 1.0, "rounds": 2,
                                            "hops": 1}))
        run_experiment(cfg, "evaluate", jobs=jobs)
        csvs.append((out / "evaluate.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_size_ladder_exits_0_or_quickly_3_and_trains_a_64_device_ring(tmp_path):
    # Ring copies of desk8: m = 9 is the largest that exact evaluation admits, 11 and 16
    # are over every exact budget, and 64 rolls out only on state digits.
    from ehdfl.cli import main
    raw = json.loads(DESK8.read_text())
    del raw["s1"]
    raw.update(horizon=2, seeds=[0], mc_samples=50)
    codes = {}
    for m in (9, 11, 16, 64):
        raw["topology"] = {"kind": "ring", "m": m}
        cfg = _write(tmp_path, raw, f"ring{m}.json")
        for kind in ("solve", "evaluate", "train"):
            for name in ("centralized_pi", "decentralized_pi", "myopic_central", "greedy"):
                start = time.perf_counter()
                code = main([kind, "--config", str(cfg), "--policy", name,
                             "--out", str(tmp_path / f"{m}-{kind}-{name}")])
                assert code in (0, 3), (m, kind, name)
                assert code == 0 or time.perf_counter() - start < 2.0, (m, kind, name)
                codes[m, kind, name] = code
    assert codes[64, "train", "greedy"] == codes[64, "train", "decentralized_pi"] == 0
    assert codes[9, "evaluate", "greedy"] == 0


@pytest.mark.parametrize("kind", ["sweep", "train", "verify"])
def test_unknown_policy_override_exits_2_before_a_model_is_built(tmp_path, monkeypatch, capsys,
                                                                 kind):
    from ehdfl.cli import main
    from ehdfl.config import ExperimentConfig

    def no_model(*args, **kwargs):
        raise AssertionError("model built")

    monkeypatch.setattr(ExperimentConfig, "build_model", no_model)
    cfg = DESK8.parent / "tiny_rounds.json"
    assert main([kind, "--config", str(cfg), "--policy", "bogus",
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: --policy: 'bogus' not one of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_capacity_sweep_trains_the_policy_it_is_given(tmp_path, monkeypatch):
    from ehdfl.baselines import GreedyPolicy
    from ehdfl.cli import main
    trained, original = [], harness._train_seeds

    def record(config, mdp, policy, s1, jobs):
        trained.append(type(policy))
        return original(config, mdp, policy, s1, jobs)

    monkeypatch.setattr(harness, "_train_seeds", record)
    raw = json.loads((DESK8.parent / "capacity.json").read_text())
    assert raw["policy"]["name"] != "greedy"
    flag = tmp_path / "flag"
    assert main(["sweep", "--config", str(_write(tmp_path, raw)), "--policy", "greedy",
                 "--out", str(flag)]) == 0
    assert trained == [GreedyPolicy] * len(raw["sweep"]["values"])
    raw["policy"]["name"] = "greedy"  # the same sweep with greedy named in the config
    named = tmp_path / "named"
    assert main(["sweep", "--config", str(_write(tmp_path, raw)), "--out", str(named)]) == 0
    body = [(d / "final_vs_battery.csv").read_text().split("\n", 1)[1] for d in (flag, named)]
    assert body[0] == body[1]  # all but the config hash line


class RecordingPool:
    """A stand-in process pool that maps in this process and records its worker count."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("kind", ["evaluate", "train"])
def test_jobs_are_capped_at_the_usable_cpus(tmp_path, monkeypatch, kind):
    import concurrent.futures
    import os
    monkeypatch.setattr(RecordingPool, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    chunks, original = [], harness.run_training

    def run_training(*args, **kwargs):
        chunks.append(list(kwargs["seeds"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_training", run_training)
    outs = []
    for jobs in (500, 1):
        outs.append(tmp_path / f"jobs{jobs}")
        cfg = parse_config(base_raw(out_dir=str(outs[-1]), seeds=list(range(6)),
                                    mc_samples=20))
        run_experiment(cfg, kind, jobs=jobs)
    assert RecordingPool.workers == [2]
    if kind == "train":
        assert chunks == [[0, 1, 2], [3, 4, 5], list(range(6))]
    assert _csv_bytes(outs[0]) == _csv_bytes(outs[1])


@pytest.mark.parametrize("policy", ["greedy", "decentralized_pi"])
def test_oversized_training_record_exits_3_before_any_policy_is_built(tmp_path, monkeypatch,
                                                                       capsys, policy):
    # desk8's 20 seeds x 40 slots on a 4,000-device ring: 1.28e10 device-loss evaluations, and
    # a hops-2 synthesis on 4,000 devices before them, unless the training check refuses first.
    from ehdfl.cli import main
    from ehdfl.config import ExperimentConfig

    def no_policy(*args, **kwargs):
        raise AssertionError("policy built")

    monkeypatch.setattr(ExperimentConfig, "build_policy", no_policy)
    raw = json.loads(DESK8.read_text())
    del raw["s1"]
    raw["topology"] = {"kind": "ring", "m": 4_000}
    cfg = _write(tmp_path, raw)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["train", "--config", str(cfg), "--policy", policy,
                     "--out", str(tmp_path / "out")])
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "training needs 12800000000 device-loss evaluations" in capsys.readouterr().err
    assert seconds < 2.0
    assert peak < 100e6
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, kind, train", [("desk8.json", "train", True),
                                               ("desk8_hops.json", "sweep", True),
                                               ("capacity.json", "sweep", True),
                                               ("capacity.json", "sweep", False)])
def test_every_command_that_trains_checks_its_record_first(tmp_path, capsys, name, kind, train):
    # One entry under the training check's seeds x T x m^2: every exact size is over budget
    # too, so the check is seen only if it runs first, and only where the command trains.
    # At exactly the budget it passes (train then runs; each sweep stops at an exact size).
    from ehdfl.cli import main
    raw = json.loads((DESK8.parent / name).read_text())
    if "sweep" in raw:
        raw["sweep"]["train"] = train
    size = len(raw["seeds"]) * raw["horizon"] * raw["topology"]["m"] ** 2
    for budget, refused in ((size - 1, train), (size, False)):
        raw["budget"] = budget
        cfg = _write(tmp_path, raw, name)
        code = main([kind, "--config", str(cfg), "--policy", "greedy",
                     "--out", str(tmp_path / "out")])
        assert code == (0 if kind == "train" and budget == size else 3), budget
        assert ("training needs" in capsys.readouterr().err) == refused, budget


def test_budget_messages_past_the_int_digit_limit_exit_3_quickly(tmp_path, capsys):
    # 8^m state-action pairs and 4^m * 2m row entries: past Python's 4,300-digit
    # int-to-str limit from m of about 4,800 and 7,100.
    from ehdfl.cli import main
    raw = json.loads(DESK8.read_text())
    del raw["s1"]
    for m, args in ((5_000, ["solve", "--policy", "centralized_pi"]), (20_000, ["evaluate"])):
        raw["topology"] = {"kind": "ring", "m": m}
        cfg = _write(tmp_path, raw, f"ring{m}.json")
        start = time.perf_counter()
        assert main(args + ["--config", str(cfg), "--out", str(tmp_path / str(m))]) == 3
        assert time.perf_counter() - start < 2.0, m
        err = capsys.readouterr().err
        assert "2^" in err, err
        assert len(err) < 200, err


@pytest.mark.parametrize("kind,m", [("ring", 10 ** 7), ("ring", 10 ** 30), ("complete", 10 ** 4)])
def test_oversized_topology_exits_3_before_it_is_built(tmp_path, capsys, kind, m):
    # Building these ran out of memory or time (exit 1 after 28 s at a ring of 10^7); the
    # devices plus the edges the kind fixes are counted against the budget first, here
    # the default of 10^7 entries.
    from ehdfl.cli import main
    raw = json.loads(DESK8.read_text())
    del raw["s1"], raw["budget"]
    raw["topology"] = {"kind": kind, "m": m}
    cfg = _write(tmp_path, raw)
    start = time.perf_counter()
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 2.0
    assert "devices and edges, over the budget" in capsys.readouterr().err
    with pytest.raises(BudgetExceeded):
        parse_config(raw)
    assert not (tmp_path / "out").exists()


def test_oversized_exact_evaluation_is_refused_before_any_synthesis(tmp_path, monkeypatch):
    # Synthesis on a 64-device ring at T = 40 takes tens of seconds, and exact evaluation is
    # over budget anyway, so solve, evaluate and the hops sweep refuse before building.
    from ehdfl import localized
    from ehdfl.cli import main

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis started")

    monkeypatch.setattr(localized, "synthesize", no_synthesis)
    raw = json.loads(DESK8.read_text())
    del raw["s1"]
    raw.update(topology={"kind": "ring", "m": 64}, sweep={"axis": "hops", "values": [1, 2]})
    cfg = _write(tmp_path, raw)
    for kind in ("solve", "evaluate", "sweep"):
        start = time.perf_counter()
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / kind)]) == 3, kind
        assert time.perf_counter() - start < 2.0, kind


@pytest.mark.parametrize("heterogeneity, refused_by", [(1e308, "give non-finite task data"),
                                                        (1e150, "training wrote inf")])
def test_training_on_overflowing_task_data_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                       heterogeneity, refused_by):
    # 1e308 makes the task targets infinite, and build_task refuses them; 1e150 keeps the
    # data finite but squares past the float range in the seed statistics of summary.csv.
    from ehdfl.cli import main
    raw = json.loads(DESK8.read_text())
    raw.update(horizon=2, seeds=[0, 1])
    raw["task"]["heterogeneity"] = heterogeneity
    cfg = _write(tmp_path, raw)
    if heterogeneity == 1e308:
        with pytest.raises(ConfigError, match=refused_by):
            load_config(cfg).build_task()
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(cfg), "--policy", "greedy",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert refused_by in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_train_refused_for_non_finite_output_prints_only_its_error_line(tmp_path):
    # The seed statistics square past the float range; the refusal reports the value, so
    # numpy's overflow warning from the standard deviation is not printed before it.
    raw = json.loads(DESK8.read_text())
    raw.update(horizon=2, seeds=[0, 1])
    raw["task"]["heterogeneity"] = 1e150
    res = _cli("train", "--config", str(_write(tmp_path, raw)), "--policy", "greedy",
               "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "error: task: training wrote inf to summary.csv, column stderr; "
        "the task data are too large for floats"]


def test_seed_statistics_of_finite_values_are_the_plain_formula():
    vals = np.random.default_rng(0).normal(size=7) * 1e3
    with np.errstate(all="raise"):
        mean, se = harness._mean_stderr(vals)
    assert (mean, se) == (float(vals.mean()), float(vals.std(ddof=0) / np.sqrt(7)))
    assert harness._mean_stderr([2.5]) == (2.5, 0.0)


def test_build_task_refuses_overflowing_scale_and_keeps_finite_tasks():
    with pytest.raises(ConfigError, match="scale 1e\\+200"):
        parse_config(base_raw(task={"kind": "quadratic", "scale": 1e200})).build_task()
    for kind in ("quadratic", "logistic"):
        task = parse_config(base_raw(task={"kind": kind, "heterogeneity": 1e150})).build_task()
        assert np.isfinite(task.f_star)


# ---------------------------------------------------------------------------
# the one refusal rule: every size guard is mdp.check_size
# ---------------------------------------------------------------------------

REFUSAL = re.compile(r"(?P<what>.+) needs (?P<size>\d+|at least 2\^\d+) [^,]+, "
                     r"over the budget (?P<limit>\d+|at least 2\^\d+)")


def _refusal(call, what):
    """Run `call`, which must refuse with BudgetExceeded in the one message form."""
    with pytest.raises(BudgetExceeded) as exc:
        call()
    found = REFUSAL.fullmatch(str(exc.value))
    assert found and found["what"] == what, str(exc.value)
    return found


def _budget_guard(name, tmp_path):
    """(what, size, call) for a guard that takes a budget; call(budget) runs it."""
    mdp, s1 = oracle_instance()
    dp_size = mdp.n_states * mdp.n_actions
    if name == "topology":  # a line of 2 devices and 1 edge
        return "topology", 3, lambda b: parse_config(base_raw(budget=b))
    if name == "dp":
        return "backward induction", dp_size, lambda b: backward_induction(mdp, budget=b)
    if name == "myopic":
        return "backward induction", dp_size, lambda b: MyopicCentralPolicy(mdp, budget=b)
    if name == "exact evaluation":
        return (name, mdp.n_states * mdp.m * max(mdp.act_dims),
                lambda b: evaluate_policy(mdp, GreedyPolicy(mdp), s1, budget=b))
    if name == "cover":
        sizes = [c.n_states * c.n_actions for c in (build_cover(mdp, i, 1) for i in range(mdp.m))]
        return (f"cover of device {int(np.argmax(sizes))}", max(sizes),
                lambda b: synthesize(mdp, hops=1, gamma=32.0, rounds=1, table_budget=b))
    assert name == "training"  # 1 seed x 2 slots x 2^2 devices
    return "training", 8, lambda b: run_experiment(
        parse_config(base_raw(out_dir=str(tmp_path / str(b)), budget=b)), "train")


@pytest.mark.parametrize("name", ["topology", "dp", "myopic", "exact evaluation", "cover",
                                  "training"])
def test_each_budget_guard_passes_at_its_budget_and_refuses_one_below(tmp_path, name):
    what, size, call = _budget_guard(name, tmp_path)
    call(size)
    found = _refusal(lambda: call(size - 1), what)
    assert (found["size"], found["limit"]) == (str(size), str(size - 1))


def test_transition_support_guard_passes_at_its_limit_and_refuses_one_below(monkeypatch):
    mdp, s1 = oracle_instance()
    size = len(mdp.transition(s1, mdp.n_actions - 1))  # each branch combination is one state
    monkeypatch.setattr(mdp_module, "TRANSITION_SUPPORT", size)
    mdp.transition(s1, mdp.n_actions - 1)
    monkeypatch.setattr(mdp_module, "TRANSITION_SUPPORT", size - 1)
    found = _refusal(lambda: mdp.transition(s1, mdp.n_actions - 1), "transition")
    assert (found["size"], found["limit"]) == (str(size), str(size - 1))


def test_exhaustive_enumeration_refuses_in_the_one_form():
    # T = 4 on the oracle pair: 2^26 assignments over reachable slots, past 400,000.
    small, s1 = oracle_instance()
    mdp = build_mdp(small.topo, small.radio, small.energy, small.chains, small.harvests,
                    small.power_levels, horizon=4)
    found = _refusal(lambda: exhaustive_minimum(mdp, s1), "exhaustive enumeration")
    assert (found["size"], found["limit"]) == (str(2 ** 26), "400000")


def test_exhaustive_enumeration_refuses_the_desk_ring_before_building_transitions():
    # T = 2 on desk: the first slot's 256 transitions would build 1,679,616 next-state
    # entries, each up to 65,536 states; they are counted from the row supports first.
    from ehdfl.instances import desk_scenario
    scenario = desk_scenario(horizon=2)
    start = time.perf_counter()
    found = _refusal(lambda: exhaustive_minimum(scenario.mdp, scenario.s1),
                     "exhaustive enumeration")
    assert time.perf_counter() - start < 2.0
    assert (found["size"], found["limit"]) == ("1679616", str(mdp_module.TRANSITION_SUPPORT))
    assert "next-state entries" in found.string


def test_exhaustive_enumeration_counts_the_entries_transition_builds(monkeypatch):
    # The guard's count is exact: on the oracle pair, a limit of one entry less than
    # the first slot's transitions build refuses, with the entries they build.
    mdp, s1 = oracle_instance()
    s0 = mdp.state_index(s1)
    feas = action_feasibility(mdp)[:, s0 % mdp.n_battery_cfgs]
    entries = sum(len(mdp.transition(s0, int(a))) for a in np.nonzero(feas)[0])
    monkeypatch.setattr(harness, "TRANSITION_SUPPORT", entries - 1)
    found = _refusal(lambda: exhaustive_minimum(mdp, s1), "exhaustive enumeration")
    assert found["size"] == str(entries)


def test_oracle_and_feasibility_refuse_a_15000_device_ring_in_a_short_message():
    # 2^15000 joint actions x 2^15000 battery configurations: printing that count raised
    # ValueError (past Python's int-to-str digit limit) instead of refusing.
    raw = json.loads(DESK8.read_text())
    del raw["s1"]
    raw["topology"] = {"kind": "ring", "m": 15_000}
    cfg = parse_config(raw)
    mdp = cfg.build_model()
    s1 = cfg.start_state(mdp)
    for call in (lambda: action_feasibility(mdp), lambda: exhaustive_minimum(mdp, s1)):
        start = time.perf_counter()
        found = _refusal(call, "action feasibility")
        assert time.perf_counter() - start < 1.0
        assert found["size"].startswith("at least 2^") and len(found.string) < 200, found.string


def test_check_size_is_the_only_place_src_raises_budget_exceeded():
    raisers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ehdfl").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (ast.walk visits outer ones first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        raisers += [(path.name, owner.get(node)) for node in ast.walk(tree)
                    if isinstance(node, ast.Raise) and "BudgetExceeded" in ast.unparse(node)]
    assert raisers == [("mdp.py", "check_size")]
