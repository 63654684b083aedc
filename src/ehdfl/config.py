"""Experiment configuration: JSON loading, validation, canonical hashing.

A config file is one JSON object, and ``parse_config`` is the only code that
reads it. Parsing builds the model parts once, through their own
constructors: the topology, the radio, one chain per link, the energy grid,
the harvests and the power ladder. Their rules (``link_chains`` and
``power_ladder`` are the ones ``GlobalMdp`` runs too) are reported under the
config key that broke them. Every other value is kept typed, with its default
applied. Every problem is reported at once (``ConfigError.items``), so a bad
file needs one round-trip to fix, not ten. ``build_model`` only assembles the
kept parts; the other builders turn them into the task and policy objects the
harness runs.

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

from .boundlab import temperature_cap
from .channel import ChannelChain, RadioParams
from .energy import EnergyParams, HarvestModel, point_harvest
from .errors import ConfigError
from .localized import ExtensionDefaults
from .mdp import (DEFAULT_BUDGET, GlobalMdp, GlobalState, build_mdp, link_chains,
                  power_ladder)
from .topology import Topology, build_topology

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
    """A parsed experiment: the model parts, built once, and every typed value."""

    raw: dict
    hash: str
    m: int
    topo: Topology
    radio: RadioParams
    chains: list[ChannelChain]  # one per link
    energy: EnergyParams
    harvests: HarvestModel | list[HarvestModel]  # one for every device, or one each
    power_levels: np.ndarray  # the ladder every device shares
    horizon: int
    policy_name: str
    gamma: float
    rounds: int
    hops: int
    extension_defaults: ExtensionDefaults
    task_kind: str
    task_args: dict  # keyword arguments of the task maker
    eta: float | None
    mc_samples: int
    seeds: list[int]
    out_dir: str
    budget: int
    s1: GlobalState | None
    sweep_raw: dict | None
    sweep_train: bool
    declared: tuple[float, float] | None  # (lipschitz, grad_bound)
    warnings: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def build_model(self) -> GlobalMdp:
        return build_mdp(self.topo, self.radio, self.energy, self.chains, self.harvests,
                         self.power_levels, self.horizon)

    def start_state(self, mdp: GlobalMdp) -> GlobalState:
        """The configured s1, else the model's default start."""
        return self.s1 if self.s1 is not None else mdp.default_start

    def build_task(self):
        from .learning import make_logistic_task, make_quadratic_task
        make = make_quadratic_task if self.task_kind == "quadratic" else make_logistic_task
        return make(self.m, **self.task_args)

    def step_size(self, task) -> float:
        return self.eta if self.eta is not None else 0.3 / task.lipschitz()

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
                              defaults=self.extension_defaults,
                              table_budget=self.budget * 10)
        if name == "myopic_central":
            return MyopicCentralPolicy(mdp)
        if name == "greedy":
            return GreedyPolicy(mdp)
        raise ConfigError([f"policy: unknown name {name!r}"])


def _is_number(val, integer=False) -> bool:
    """A JSON number that is finite, and an int when integer; a bool is neither."""
    if isinstance(val, bool):
        return False
    return isinstance(val, int) or (not integer and isinstance(val, float) and math.isfinite(val))


def _chain_from(spec: dict) -> ChannelChain:
    levels = np.asarray(spec["levels"], dtype=float)
    psi = np.asarray(spec["psi"], dtype=float)
    steady = spec.get("steady")
    steady = _stationary(psi) if steady is None else np.asarray(steady, dtype=float)
    chain = ChannelChain(levels=levels, steady=steady, psi=psi)
    chain.validate()
    return chain


def _stationary(psi: np.ndarray) -> np.ndarray:
    """Birth-death steady law by detailed balance, pi[k+1] psi[k+1, k] = pi[k] psi[k, k+1].

    As exact as the rates: a symmetric chain's levels tie exactly, so no
    eigensolver rounding decides `default_start`'s argmax.
    """
    up, down = np.diag(psi, 1), np.diag(psi, -1)
    if up.shape != down.shape or not ((up > 0) & (down > 0)).all():
        raise ValueError("psi: no unique positive steady law unless every rate between "
                         "neighbouring levels is positive; give 'steady' explicitly")
    w = np.cumprod(np.concatenate(([1.0], up / down)))
    return w / w.sum()


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
        """sec[key], key the last part of the dotted name (default when absent), cast to
        int when integer and to float otherwise, if it is a finite number (an int when
        integer) for which ok holds; otherwise report it under name and return None."""
        val = sec.get(name.rsplit(".", 1)[-1], default)
        if _is_number(val, integer) and (ok is None or ok(val)):
            return int(val) if integer else float(val)
        what = what or ("an integer" if integer else "a number")
        issues.append(f"{name}: missing" if val is None else f"{name}: need {what}, got {val!r}")
        return None

    def digits(sec: dict, name: str, bounds=None, what=None):
        """sec[key] as a tuple if it is a non-empty list of integers >= 0, one below each
        of bounds unless bounds is None; otherwise report it under name and return None."""
        val = sec.get(name.rsplit(".", 1)[-1])
        if (isinstance(val, list) and val and all(_is_number(x, True) and x >= 0 for x in val)
                and (bounds is None or (len(val) == len(bounds)
                                        and all(x < n for x, n in zip(val, bounds))))):
            return tuple(val)
        issues.append(f"{name}: need {what or 'a non-empty list of integers >= 0'}, got {val!r}")
        return None

    def make(key: str, build):
        """build(), or None with the error it raises reported under key."""
        try:
            return build()
        except (KeyError, ValueError, TypeError, ArithmeticError, RuntimeError) as exc:
            issues.append(f"{key}: {exc}")
            return None

    nonneg_int = {"integer": True, "ok": lambda v: v >= 0, "what": "an integer >= 0"}
    pos_int = {"integer": True, "ok": lambda v: v >= 1, "what": "an integer >= 1"}
    positive = {"ok": lambda v: v > 0, "what": "a positive number"}

    topo_sec = section("topology", {})
    before = len(issues)
    kind = topo_sec.get("kind", "ring")
    if kind not in TOPOLOGY_KINDS:
        issues.append(f"topology.kind: {kind!r} not one of {TOPOLOGY_KINDS}")
    m = number(topo_sec, "topology.m", None, True, lambda v: v >= 2, "an integer >= 2") or 0
    seed = topo_sec.get("seed")
    if seed is not None:
        seed = number(topo_sec, "topology.seed", **nonneg_int)
    topo = None
    if len(issues) == before:
        topo = make("topology", lambda: build_topology(kind, m, seed=seed))

    chan = section("channel", {})
    phi = number(chan, "channel.phi", **positive)
    tau = number(chan, "channel.tau", 1.0, **positive)
    sigma2 = chan.get("sigma2", 1.0)
    sig = sigma2 if isinstance(sigma2, list) else [sigma2]
    radio = None
    if not sig or not all(_is_number(x) and x > 0 for x in sig):
        issues.append(f"channel.sigma2: need a positive number or a list of them, got {sigma2!r}")
    elif len(sig) not in (1, m) and m >= 2:
        issues.append(f"channel.sigma2: length {len(sig)} is neither 1 nor m={m}")
    elif phi is not None and tau is not None:
        noise = tuple(float(x) for x in sig) if isinstance(sigma2, list) else float(sigma2)
        radio = RadioParams(phi, noise, tau)

    specs = chan.get("chains", [])
    if isinstance(specs, dict):
        specs = [specs]
    if not isinstance(specs, list) or not specs:
        issues.append("channel.chains: at least one chain spec required")
        specs = []
    built = [make(f"channel.chains[{k}]", lambda s=spec: _chain_from(s))
             for k, spec in enumerate(specs)]
    chains = None
    if topo is not None and built and None not in built:
        chains = make("channel.chains", lambda: link_chains(built, len(topo.edges)))

    en = section("energy", {})
    typed = {key: number(en, f"energy.{key}", default, integer)
             for key, (default, integer) in ENERGY_KEYS.items()}
    energy = None
    if None not in typed.values() and tau is not None:
        energy = make("energy", lambda: EnergyParams(tau=tau, **typed))

    def harvest(spec) -> HarvestModel:
        model = _harvest_from(spec)
        if energy is not None:
            model.quanta(energy)  # harvest amounts must sit on the battery grid
        return model

    harvest_raw = en.get("harvest", {"point": 0.0})
    hs = [harvest_raw] if isinstance(harvest_raw, dict) else harvest_raw
    if not isinstance(hs, list):
        issues.append(f"energy.harvest: need an object or a list, got {harvest_raw!r}")
        hs = []
    elif not isinstance(harvest_raw, dict) and len(hs) != m:
        issues.append(f"energy.harvest: list length {len(hs)} != m={m}")
    harvests = [make(f"energy.harvest[{k}]", lambda s=spec: harvest(s))
                for k, spec in enumerate(hs)]

    levels = raw.get("power_levels", [])
    ladder = None
    if not isinstance(levels, list) or not levels:
        issues.append("power_levels: required, e.g. [0.0, 1.0]")
    elif not all(_is_number(p) for p in levels):
        issues.append(f"power_levels: need finite numbers, got {levels!r}")
    else:
        ladder = make("power_levels", lambda: power_ladder(levels))
    if energy is not None and ladder is not None:
        draws = [energy.slot_energy(p) for p in levels]
        costs = make("power_levels", lambda: [energy.to_quanta(d) for d in draws]) or []
        for p, d, c in zip(levels, draws, costs):
            if abs(d - c * energy.quantum) > 1e-12:
                warnings.append(f"power level {p}: consumption {d:.6g} J snaps to "
                                f"{c} quanta of {energy.quantum:.6g} J")

    horizon = number(raw, "horizon", -1, True, lambda v: v >= 0, "an integer >= 0")

    pol = section("policy", {})
    pol_name = pol.get("name", "decentralized_pi")
    if pol_name not in POLICY_NAMES:
        issues.append(f"policy.name: {pol_name!r} not one of {POLICY_NAMES}")
    gamma = number(pol, "policy.gamma", 1.0, **positive)
    rounds = number(pol, "policy.rounds", 10, **pos_int)
    hops = number(pol, "policy.hops", 2, **nonneg_int)

    task = section("task", {})
    task_kind = task.get("kind", "quadratic")
    if task_kind not in TASK_KINDS:
        issues.append(f"task.kind: {task_kind!r} not one of {TASK_KINDS}")
    task_args = {"dim": number(task, "task.dim", 16, **pos_int),
                 "n_per": number(task, "task.samples", 32, **pos_int),
                 "heterogeneity": number(task, "task.heterogeneity", 1.0),
                 "seed": number(task, "task.seed", 0, **nonneg_int)}
    scale = number(task, "task.scale", 1.0)
    if task_kind == "quadratic":
        task_args["scale"] = scale
    eta = number(task, "task.eta", **positive) if task.get("eta") is not None else None
    mc_samples = number(raw, "mc_samples", 1000, **pos_int)

    seeds = digits(raw, "seeds")
    budget = number(raw, "budget", DEFAULT_BUDGET, True, lambda v: v > 0, "a positive integer")

    n_levels = energy.n_levels if energy is not None else None
    s1_raw = section("s1", None)
    s1 = None
    if s1_raw is not None:
        if "gains" not in s1_raw or "batteries" not in s1_raw:
            issues.append("s1: needs both 'gains' and 'batteries'")
        else:
            sizes = [c.n for c in chains] if chains else None
            gains = digits(s1_raw, "s1.gains", sizes,
                           f"one integer per link below its chain's level count {sizes}")
            bats = digits(s1_raw, "s1.batteries", [n_levels] * m if n_levels and m else None,
                          f"m={m} integers in [0, {n_levels})")
            s1 = GlobalState(gains=gains, batteries=bats)

    sweep_raw = section("sweep", None)
    sweep_train = False
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
        sweep_train = sweep_raw.get("train", False)
        if not isinstance(sweep_train, bool):
            issues.append(f"sweep.train: need true or false, got {sweep_train!r}")

    # extension digits index every neighbour table: below the smallest size they meet
    dflt = pol.get("defaults", {})
    if not isinstance(dflt, dict):
        issues.append(f"policy.defaults: need an object, got {dflt!r}")
        dflt = {}
    smallest_chain = min((c.n for c in built if c is not None), default=None)
    ext = {key: number(dflt, f"policy.defaults.{key}", 0, True,
                       lambda v, n=size: 0 <= v < (n or math.inf),
                       f"an integer in [0, {size})" if size else "an integer >= 0")
           for key, size in (("gain", smallest_chain), ("battery", n_levels),
                             ("level", None if ladder is None else len(ladder)))}

    declared_raw = section("declared", None)
    declared = None
    if declared_raw is not None:
        lip, g = declared_raw.get("lipschitz"), declared_raw.get("grad_bound")
        if _is_number(lip) and _is_number(g) and lip >= 0 and g > 0:
            declared = (float(lip), float(g))
        else:
            issues.append(f"declared: need numbers lipschitz >= 0 and grad_bound > 0, "
                          f"got {declared_raw!r}")
    if declared and pol_name == "decentralized_pi" and ladder is not None and m and gamma:
        cap = make("declared", lambda: temperature_cap(m, *declared, len(ladder) ** m))
        if cap is not None and gamma > cap * (1 + 1e-9):
            warnings.append(f"policy.gamma {gamma:.6g} exceeds the certified "
                            f"temperature ceiling {cap:.6g} for the declared "
                            f"constants; the contraction guarantee does not apply")

    if issues:
        raise ConfigError(issues)

    return ExperimentConfig(
        raw=raw, hash=canonical_hash(raw), m=m,
        topo=topo, radio=radio, chains=chains, energy=energy,
        harvests=harvests[0] if isinstance(harvest_raw, dict) else harvests,
        power_levels=ladder, horizon=horizon, policy_name=pol_name, gamma=gamma,
        rounds=rounds, hops=hops, extension_defaults=ExtensionDefaults(**ext),
        task_kind=task_kind, task_args=task_args, eta=eta, mc_samples=mc_samples,
        seeds=list(seeds), out_dir=raw.get("out_dir", "results"), budget=budget, s1=s1,
        sweep_raw=sweep_raw, sweep_train=sweep_train, declared=declared, warnings=warnings)
