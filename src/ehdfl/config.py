"""Experiment configuration: JSON loading, validation, canonical hashing.

A config file is one JSON object. ``load_config`` validates it and reports
every problem at once (``ConfigError.items``), so a bad file needs one
round-trip to fix, not ten. Builders turn a validated config into the model,
task, and policy objects the harness runs.

The slot length ``tau`` appears once, under ``channel``, and feeds both the
radio and the energy accounting; the two subsystems can never disagree on it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChannelChain, RadioParams
from .energy import EnergyParams, HarvestModel, point_harvest
from .errors import ConfigError
from .mdp import DEFAULT_BUDGET, GlobalMdp, GlobalState, build_mdp
from .topology import build_topology

TOPOLOGY_KINDS = ("line", "ring", "complete", "random_geometric")
POLICY_NAMES = ("centralized_pi", "decentralized_pi", "myopic_central", "greedy")
TASK_KINDS = ("quadratic", "logistic")
SWEEP_AXES = ("rounds", "capacity", "hops")
# energy section key -> (default, integer); a None default marks a required key
ENERGY_KEYS = {"b_max": (None, False), "n_levels": (None, True), "k_steps": (1, True),
               "cpu_freq": (1.0, False), "cycles_per_sample": (0.0, False),
               "batch_size": (1, True)}


def canonical_hash(raw: dict) -> str:
    """Order-independent 12-hex digest of a config dictionary.

    out_dir is excluded: the hash identifies the experiment, and the same
    experiment written to two directories must produce identical files.
    """
    scrubbed = {k: v for k, v in raw.items() if k != "out_dir"}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ExperimentConfig:
    """Validated experiment description plus the hash of its source dict."""

    raw: dict
    hash: str
    name: str
    topology_kind: str
    m: int
    topology_seed: int | None
    phi: float
    sigma2: list[float] | float
    tau: float
    chain_specs: list[dict]
    energy_raw: dict
    harvest_raw: dict | list[dict]
    power_levels: list[float]
    horizon: int
    policy_name: str
    gamma: float
    rounds: int
    hops: int
    defaults_raw: dict
    task_raw: dict
    seeds: list[int]
    out_dir: str
    budget: int
    s1_raw: dict | None
    sweep_raw: dict | None
    declared_raw: dict | None
    warnings: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def build_model(self) -> GlobalMdp:
        topo = build_topology(self.topology_kind, self.m, seed=self.topology_seed)
        radio = RadioParams(self.phi, _sigma_tuple(self.sigma2), self.tau)
        energy = _energy_params(self.energy_raw, self.tau)
        chains = [_chain_from(spec) for spec in self.chain_specs]
        if len(chains) == 1:
            chains = chains * len(topo.edges)
        harvest = self._harvests()
        return build_mdp(topo, radio, energy, chains, harvest,
                         power_levels=list(self.power_levels), horizon=self.horizon)

    def _harvests(self):
        specs = self.harvest_raw
        if isinstance(specs, dict):
            return _harvest_from(specs)
        return [_harvest_from(h) for h in specs]

    def start_state(self, mdp: GlobalMdp) -> GlobalState:
        if self.s1_raw is None:
            gains = tuple(int(np.argmax(c.steady)) for c in mdp.chains)
            bats = tuple(mdp.energy.n_levels - 1 for _ in range(mdp.m))
            return GlobalState(gains=gains, batteries=bats)
        gains = tuple(self.s1_raw["gains"])
        sizes = [c.n for c in mdp.chains]
        if len(gains) != len(sizes) or any(g >= n for g, n in zip(gains, sizes)):
            raise ConfigError([f"s1.gains: need one digit per link below its chain's level "
                               f"count {sizes}, got {list(gains)}"])
        return GlobalState(gains=gains, batteries=tuple(self.s1_raw["batteries"]))

    def build_task(self):
        from .learning import make_logistic_task, make_quadratic_task
        t = self.task_raw
        kind = t.get("kind", "quadratic")
        if kind == "quadratic":
            return make_quadratic_task(self.m, int(t.get("dim", 16)),
                                       int(t.get("samples", 32)),
                                       heterogeneity=float(t.get("heterogeneity", 1.0)),
                                       seed=int(t.get("seed", 0)),
                                       scale=float(t.get("scale", 1.0)))
        return make_logistic_task(self.m, int(t.get("dim", 16)),
                                  int(t.get("samples", 32)),
                                  heterogeneity=float(t.get("heterogeneity", 1.0)),
                                  seed=int(t.get("seed", 0)))

    def step_size(self, task) -> float:
        eta = self.task_raw.get("eta")
        if eta is not None:
            return float(eta)
        return 0.3 / task.lipschitz()

    def extension_defaults(self):
        from .localized import ExtensionDefaults
        d = self.defaults_raw
        return ExtensionDefaults(gain=int(d.get("gain", 0)),
                                 battery=int(d.get("battery", 0)),
                                 level=int(d.get("level", 0)))

    def build_policy(self, mdp: GlobalMdp, name: str | None = None,
                     hops: int | None = None):
        from .baselines import GreedyPolicy, MyopicCentralPolicy
        from .localized import synthesize
        from .mdp import backward_induction
        name = self.policy_name if name is None else name
        if name == "centralized_pi":
            return backward_induction(mdp, budget=self.budget).as_policy()
        if name == "decentralized_pi":
            return synthesize(mdp, hops=self.hops if hops is None else hops,
                              gamma=self.gamma, rounds=self.rounds,
                              defaults=self.extension_defaults(),
                              table_budget=self.budget * 10)
        if name == "myopic_central":
            return MyopicCentralPolicy(mdp)
        if name == "greedy":
            return GreedyPolicy(mdp)
        raise ConfigError([f"policy: unknown name {name!r}"])


def _energy_params(e: dict, tau: float) -> EnergyParams:
    """EnergyParams of an energy section, with the ENERGY_KEYS defaults."""
    return EnergyParams(tau=float(tau), **{key: (int if integer else float)(e.get(key, default))
                                           for key, (default, integer) in ENERGY_KEYS.items()})


def _is_number(val, integer=False) -> bool:
    """A JSON number that is finite, and an int when integer; a bool is neither."""
    if isinstance(val, bool):
        return False
    return isinstance(val, int) or (not integer and isinstance(val, float) and math.isfinite(val))


def _sigma_tuple(sig):
    if isinstance(sig, (int, float)):
        return float(sig)
    return tuple(float(x) for x in sig)


def _chain_from(spec: dict) -> ChannelChain:
    levels = np.asarray(spec["levels"], dtype=float)
    psi = np.asarray(spec["psi"], dtype=float)
    steady = spec.get("steady")
    if steady is None:
        steady = _stationary(psi)
    return ChannelChain(levels=levels, steady=np.asarray(steady, dtype=float), psi=psi)


def _stationary(psi: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(psi.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = np.abs(v)
    return v / v.sum()


def _harvest_from(spec: dict) -> HarvestModel:
    if "point" in spec:
        return point_harvest(float(spec["point"]))
    return HarvestModel(support=np.asarray(spec["support"], dtype=float),
                        probs=np.asarray(spec["probs"], dtype=float))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"file: not valid JSON ({exc})"]) from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    issues: list[str] = []
    warnings: list[str] = []

    if not isinstance(raw, dict):
        raise ConfigError(["file: top level must be a JSON object"])

    def section(key: str, default):
        val = raw.get(key, default)
        if isinstance(val, dict) or val is default:  # null only for optional sections
            return val
        issues.append(f"{key}: need an object, got {val!r}")
        return default

    def number(sec: dict, name: str, default=None, integer=False, ok=None, what=None):
        """sec[key], key the last part of the dotted name (default when absent), if
        it is a finite number, an int when integer, for which ok holds;
        otherwise report it under name and return None."""
        val = sec.get(name.rsplit(".", 1)[-1], default)
        if _is_number(val, integer) and (ok is None or ok(val)):
            return val
        what = what or ("an integer" if integer else "a number")
        issues.append(f"{name}: missing" if val is None else f"{name}: need {what}, got {val!r}")
        return None

    def digits(sec: dict, name: str, size=None, length=None):
        """Report sec[key] under name unless it is a list of integers in [0, size)
        (>= 0 when size is None), of the given length when that is not None."""
        val = sec.get(name.rsplit(".", 1)[-1])
        if not (isinstance(val, list) and all(_is_number(x, True) and 0 <= x < (size or math.inf)
                                              for x in val)):
            what = "integers >= 0" if size is None else f"integers in [0, {size})"
            issues.append(f"{name}: need a list of {what}, got {val!r}")
        elif length is not None and len(val) != length:
            issues.append(f"{name}: length {len(val)} != m={length}")

    nonneg_int = {"integer": True, "ok": lambda v: v >= 0, "what": "an integer >= 0"}
    topo = section("topology", {})
    kind = topo.get("kind", "ring")
    if kind not in TOPOLOGY_KINDS:
        issues.append(f"topology.kind: {kind!r} not one of {TOPOLOGY_KINDS}")
    m = number(topo, "topology.m", None, True, lambda v: v >= 2, "an integer >= 2") or 0
    if topo.get("seed") is not None:
        number(topo, "topology.seed", **nonneg_int)

    chan = section("channel", {})
    positive = {"ok": lambda v: v > 0, "what": "a positive number"}
    phi = number(chan, "channel.phi", **positive)
    tau = number(chan, "channel.tau", 1.0, **positive)
    sigma2 = chan.get("sigma2", 1.0)
    sig = sigma2 if isinstance(sigma2, list) else [sigma2]
    if not sig or not all(_is_number(x) and x > 0 for x in sig):
        issues.append(f"channel.sigma2: need a positive number or a list of them, got {sigma2!r}")
    elif len(sig) not in (1, m) and m >= 2:
        issues.append(f"channel.sigma2: length {len(sig)} is neither 1 nor m={m}")

    chain_specs = chan.get("chains", [])
    if isinstance(chain_specs, dict):
        chain_specs = [chain_specs]
    if not isinstance(chain_specs, list) or not chain_specs:
        issues.append("channel.chains: at least one chain spec required")
        chain_specs = []
    chain_sizes = []
    for k, spec in enumerate(chain_specs):
        try:
            chain = _chain_from(spec)
            chain.validate()
            chain_sizes.append(chain.n)
        except (KeyError, ValueError, TypeError) as exc:
            issues.append(f"channel.chains[{k}]: {exc}")

    en = section("energy", {})
    typed = [number(en, f"energy.{key}", default, integer) is not None
             for key, (default, integer) in ENERGY_KEYS.items()]
    energy = None
    if all(typed) and tau is not None:
        try:
            energy = _energy_params(en, tau)
        except ValueError as exc:
            issues.append(f"energy: {exc}")

    harvest_raw = en.get("harvest", {"point": 0.0})
    hs = [harvest_raw] if isinstance(harvest_raw, dict) else harvest_raw
    if not isinstance(hs, list):
        issues.append(f"energy.harvest: need an object or a list, got {harvest_raw!r}")
        hs = []
    elif not isinstance(harvest_raw, dict) and len(hs) != m:
        issues.append(f"energy.harvest: list length {len(hs)} != m={m}")
    for k, spec in enumerate(hs):
        try:
            model = _harvest_from(spec)
            if energy is not None:
                model.quanta(energy)  # harvest amounts must sit on the battery grid
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            issues.append(f"energy.harvest[{k}]: {exc}")

    power_levels = raw.get("power_levels", [])
    problem = None
    if not isinstance(power_levels, list) or not power_levels:
        problem = "required, e.g. [0.0, 1.0]"
    elif not all(_is_number(p) for p in power_levels):
        problem = f"need finite numbers, got {power_levels!r}"
    elif sorted(power_levels) != power_levels:
        problem = "must be ascending"
    elif power_levels[0] < 0:
        problem = "must be nonnegative"
    if problem:
        issues.append(f"power_levels: {problem}")
        power_levels = []
    if energy is not None and power_levels:
        draws = [energy.slot_energy(p) for p in power_levels]
        costs = [energy.to_quanta(d) for d in draws]
        if min(costs) > 0:
            issues.append("power_levels: no level with zero quantum cost; "
                          "devices at an empty battery would have no feasible action")
        for p, d, c in zip(power_levels, draws, costs):
            if abs(d - c * energy.quantum) > 1e-12:
                warnings.append(f"power level {p}: consumption {d:.6g} J snaps to "
                                f"{c} quanta of {energy.quantum:.6g} J")

    horizon = number(raw, "horizon", -1, True, lambda v: v >= 0, "an integer >= 0")

    pol = section("policy", {})
    pol_name = pol.get("name", "decentralized_pi")
    if pol_name not in POLICY_NAMES:
        issues.append(f"policy.name: {pol_name!r} not one of {POLICY_NAMES}")
    gamma = number(pol, "policy.gamma", 1.0, **positive)
    rounds = number(pol, "policy.rounds", 10, True, lambda v: v >= 1, "an integer >= 1")
    hops = number(pol, "policy.hops", 2, **nonneg_int)

    task = section("task", {})
    task_kind = task.get("kind", "quadratic")
    if task_kind not in TASK_KINDS:
        issues.append(f"task.kind: {task_kind!r} not one of {TASK_KINDS}")
    for key, default in (("dim", 16), ("samples", 32)):
        number(task, f"task.{key}", default, True, lambda v: v >= 1, "an integer >= 1")
    number(task, "task.seed", 0, **nonneg_int)
    for key in ("heterogeneity", "scale"):
        number(task, f"task.{key}", 1.0)
    if task.get("eta") is not None:
        number(task, "task.eta", **positive)
    number(raw, "mc_samples", 1000, True, lambda v: v >= 1, "an integer >= 1")

    seeds = raw.get("seeds", [])
    if (not isinstance(seeds, list) or not seeds
            or not all(_is_number(s, True) for s in seeds)):
        issues.append("seeds: need a non-empty list of integers")

    budget = number(raw, "budget", DEFAULT_BUDGET, True, lambda v: v > 0, "a positive integer")

    n_levels = energy.n_levels if energy is not None else None
    s1_raw = section("s1", None)
    if s1_raw is not None:
        if "gains" not in s1_raw or "batteries" not in s1_raw:
            issues.append("s1: needs both 'gains' and 'batteries'")
        else:  # gain digits per link need the built model: start_state bounds them
            digits(s1_raw, "s1.gains")
            digits(s1_raw, "s1.batteries", n_levels, m if m >= 2 else None)

    sweep_raw = section("sweep", None)
    if sweep_raw is not None:
        axis = sweep_raw.get("axis")
        if axis not in SWEEP_AXES:
            issues.append(f"sweep.axis: {axis!r} not one of {SWEEP_AXES}")
        values = sweep_raw.get("values", [])
        if (not isinstance(values, list) or not values
                or not all(_is_number(v, True) for v in values)):
            issues.append("sweep.values: need a non-empty list of integers")
        elif axis == "capacity" and min(values) < 2:
            issues.append("sweep.values: capacity sweep takes level counts >= 2")
        elif axis == "hops" and min(values) < 0:
            issues.append("sweep.values: hop counts must be integers >= 0")
        elif axis == "rounds" and min(values) < 0:
            issues.append("sweep.values: round counts must be integers >= 0")
        elif axis == "capacity" and n_levels is not None:
            n_levels = min([n_levels] + values)
        if not isinstance(sweep_raw.get("train", False), bool):
            issues.append(f"sweep.train: need true or false, got {sweep_raw['train']!r}")

    # extension digits index every neighbour table: below the smallest size they meet
    dflt = pol.get("defaults", {})
    if not isinstance(dflt, dict):
        issues.append(f"policy.defaults: need an object, got {dflt!r}")
        dflt = {}
    for key, size in (("gain", min(chain_sizes, default=None)), ("battery", n_levels),
                      ("level", len(power_levels) or None)):
        number(dflt, f"policy.defaults.{key}", 0, True,
               lambda v, n=size: 0 <= v < (n or math.inf),
               f"an integer in [0, {size})" if size else "an integer >= 0")

    declared = section("declared", None)
    if declared is not None and pol_name == "decentralized_pi":
        try:
            from .boundlab import temperature_cap
            lip = float(declared["lipschitz"])
            g = float(declared["grad_bound"])
            n_joint = len(power_levels) ** m if power_levels and m else 0
            if n_joint and gamma is not None:
                cap = temperature_cap(m, lip, g, n_joint)
                if gamma > cap * (1 + 1e-9):
                    warnings.append(f"policy.gamma {gamma:.6g} exceeds the certified "
                                    f"temperature ceiling {cap:.6g} for the declared "
                                    f"constants; the contraction guarantee does not apply")
        except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
            issues.append(f"declared: {exc}")

    if issues:
        raise ConfigError(issues)

    return ExperimentConfig(
        raw=raw, hash=canonical_hash(raw), name=raw.get("name", "experiment"),
        topology_kind=kind, m=m, topology_seed=topo.get("seed"),
        phi=float(phi), sigma2=sigma2, tau=float(tau), chain_specs=chain_specs,
        energy_raw=en, harvest_raw=harvest_raw,
        power_levels=[float(p) for p in power_levels], horizon=horizon,
        policy_name=pol_name, gamma=float(gamma), rounds=rounds, hops=hops,
        defaults_raw=dflt, task_raw=task, seeds=list(seeds),
        out_dir=raw.get("out_dir", "results"), budget=budget, s1_raw=s1_raw,
        sweep_raw=sweep_raw, declared_raw=declared, warnings=warnings)
