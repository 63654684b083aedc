"""Span tracing of the ehdfl layers, installed from outside the package.

Every hooked public function is replaced, on every module attribute and class
attribute bound to it, by a wrapper that records a span (name, parent, start,
end) in memory.  A function imported by name into several modules (for
example ``step_links`` in both ``mdp`` and ``dflsim``) is therefore traced
wherever it is called.  Hot leaf functions whose cost is close to the cost of
a span are only counted.  A hooked name that no longer exists is reported in
``Tracer.missing`` and never fails the run.

Self time is measured by subtraction: a span's duration minus the durations
of its direct child spans.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _horizon(a, k):
    return k.get("horizon") or a[0].horizon


def _bi_result(tr, a, k, res):
    mdp = a[0]
    tr.counts["bi_slots"] += mdp.horizon
    tr.counts["state_action_slots"] += mdp.n_states * mdp.n_actions * mdp.horizon
    tr.counts["dp_bytes_per_slot"] = max(tr.counts["dp_bytes_per_slot"],
                                         8 * mdp.n_states * mdp.n_actions)


def _eval_tag(a, k):
    return "mdp.evaluate_exact" if k.get("mode", "exact") == "exact" else "mdp.evaluate_mc"


def _eval_result(tr, a, k, res):
    if k.get("mode", "exact") == "exact":
        tr.counts["eval_slots"] += _horizon(a, k)


def _mc_result(tr, a, k, res):
    tr.counts["mc_rollout_slots"] += k["n_samples"] * _horizon(a, k)


def _synth_result(tr, a, k, res):
    pol = next(iter(res.values())) if isinstance(res, dict) else res
    tr.counts["cover_entries"] += sum(c.n_states * c.n_actions for c in pol.covers)


def _train_result(tr, a, k, res):
    tr.counts["train_slots"] += res.horizon
    tr.counts["packets_sent"] += int(res.packets_sent.sum())
    tr.counts["packets_dropped"] += int(res.packets_dropped.sum())
    tr.counts["energy_j"] += float(res.energy_spent.sum())


def _csv_result(tr, a, k, res):
    tr.counts["csv_bytes"] += os.path.getsize(a[0])


@dataclass(frozen=True)
class Hook:
    """One traced callable: ``module`` inside ehdfl, ``attr`` may be Class.method."""

    name: str
    module: str
    attr: str
    tag: Callable | None = None        # (args, kwargs) -> span name
    on_result: Callable | None = None  # (tracer, args, kwargs, result) -> None
    count_only: bool = False


HOOKS = (
    # set-up
    Hook("config.load", "config", "load_config"),
    Hook("config.parse", "config", "parse_config"),
    Hook("config.build_model", "config", "ExperimentConfig.build_model"),
    Hook("config.build_policy", "config", "ExperimentConfig.build_policy"),
    Hook("topology.build", "topology", "build_topology"),
    Hook("cli.main", "cli", "main"),
    # exact model and solver
    Hook("mdp.cost_table", "mdp", "GlobalMdp.cost_table"),
    Hook("mdp.backward_induction", "mdp", "backward_induction", on_result=_bi_result),
    Hook("mdp.evaluate", "mdp", "evaluate_policy", tag=_eval_tag, on_result=_eval_result),
    Hook("mdp.expected_cost_rows", "mdp", "expected_cost_rows"),
    Hook("mdp.simulate_costs", "mdp", "simulate_costs", on_result=_mc_result),
    Hook("mdp.centralized_conditionals", "mdp", "CentralizedPolicy.conditionals"),
    Hook("mdp.centralized_act", "mdp", "CentralizedPolicy.act"),
    # baselines
    Hook("baselines.myopic_table", "baselines", "MyopicCentralPolicy.table"),
    Hook("baselines.act", "baselines", "MyopicCentralPolicy.act"),
    Hook("baselines.act", "baselines", "GreedyPolicy.act"),
    Hook("baselines.conditionals", "baselines", "MyopicCentralPolicy.conditionals"),
    Hook("baselines.conditionals", "baselines", "GreedyPolicy.conditionals"),
    # localized synthesis
    Hook("localized.synthesize", "localized", "synthesize", on_result=_synth_result),
    Hook("localized.backward_layer", "localized", "localized_backward_layer"),
    Hook("localized.cost_table", "localized", "localized_cost_table"),
    Hook("localized.extension_maps", "localized", "extension_state_map"),
    Hook("localized.extension_maps", "localized", "extension_action_map"),
    Hook("localized.masked_softmax", "localized", "masked_softmax"),
    Hook("localized.act", "localized", "LocalizedPolicy.act"),
    Hook("localized.conditionals", "localized", "LocalizedPolicy.conditionals"),
    # training co-simulation and its models
    Hook("dflsim.run_training", "dflsim", "run_training", on_result=_train_result),
    Hook("dflsim.local_sgd", "dflsim", "local_sgd"),
    Hook("dflsim.apply_gossip", "dflsim", "apply_gossip"),
    Hook("channel.step_links", "channel", "step_links"),
    Hook("channel.per", "channel", "packet_error_rate", count_only=True),
    Hook("energy.battery_step", "energy", "battery_step"),
    Hook("learning.make_task", "learning", "make_quadratic_task"),
    Hook("learning.make_task", "learning", "make_logistic_task"),
    # studies, harness, instances
    Hook("boundlab.gap_curve", "boundlab", "gap_curve"),
    Hook("harness.run_experiment", "harness", "run_experiment"),
    Hook("harness.verify_suite", "harness", "verify_suite"),
    Hook("harness.exhaustive_minimum", "harness", "exhaustive_minimum"),
    Hook("harness.write_csv", "harness", "write_csv", on_result=_csv_result,
         count_only=True),
    Hook("instances.build", "instances", "tiny_instances"),
    Hook("instances.build", "instances", "oracle_instance"),
    Hook("instances.build", "instances", "fullinfo_instance"),
    Hook("instances.build", "instances", "desk_scenario"),
    Hook("instances.build", "instances", "capacity_family"),
    Hook("instances.build", "instances", "capacity_pair"),
)


class Tracer:
    """In-memory span recorder; ``install`` patches the hooks, ``uninstall`` restores."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []   # (parent id, name, start ns, end ns); id = list index
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((self.stack[-1] if self.stack else -1, name, time.perf_counter_ns(), 0))
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        parent, name, start, _ = self.spans[sid]
        self.spans[sid] = (parent, name, start, time.perf_counter_ns())
        self.stack.pop()

    def _wrap(self, hook: Hook, fn):
        tracer = self
        if hook.count_only:
            key = hook.name + "_calls"

            @functools.wraps(fn)
            def counted(*a, **k):
                tracer.counts[key] += 1
                res = fn(*a, **k)
                if hook.on_result is not None:
                    hook.on_result(tracer, a, k, res)
                return res

            return counted

        @functools.wraps(fn)
        def traced(*a, **k):
            sid = tracer._open(hook.tag(a, k) if hook.tag else hook.name)
            try:
                res = fn(*a, **k)
            finally:
                tracer._close(sid)
            if hook.on_result is not None:
                hook.on_result(tracer, a, k, res)
            return res

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if (name == "ehdfl" or name.startswith("ehdfl.")) and mod is not None]
        self.missing = []
        for hook in self.hooks:
            mod = sys.modules.get(f"ehdfl.{hook.module}")
            owner_name, _, name = hook.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(name) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            wrapper = self._wrap(hook, fn)
            # a method lives on its class; a function on every module that imported it
            for holder in [owner] if owner_name else modules:
                for attr, val in list(vars(holder).items()):
                    if val is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches = []

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.counts = defaultdict(float)

    # -- aggregation -----------------------------------------------------

    def aggregate(self):
        """Per (top-level span name, span name): [calls, total s, self s].

        Totals count only outermost spans of a name, so recursion never counts
        twice; self time is the duration minus that of the direct children.
        """
        child_ns = defaultdict(int)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        roots: list[str] = []
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (parent, name, start, end) in enumerate(self.spans):
            roots.append(name if parent < 0 else roots[parent])
            dur = end - start
            st = stats[(roots[sid], name)]
            st[0] += 1
            st[2] += (dur - child_ns[sid]) * 1e-9
            p = parent
            while p >= 0 and self.spans[p][1] != name:
                p = self.spans[p][0]
            if p < 0:
                st[1] += dur * 1e-9
        return stats
