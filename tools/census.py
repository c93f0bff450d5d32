"""Surface census: who, outside ``tests/``, reaches each module, public name and knob of
``src/repro``.

A module that ``examples/`` + ``benchmarks/`` do not import (transitively), a public function,
class or method of any length that nothing outside ``tests/`` names, or a knob that nothing
outside ``tests/`` sets, is deleted with its tests -- unless ``KEEP``, the one exemption table,
gives it one reason: K1 safety code (outside input, durability, the reference a safety-net
test compares against), K2 transcribes a numbered paper artefact no benchmark reads yet
(ROADMAP item 5 (e)), K3 reserved by a named open ROADMAP item.  A ``KEEP`` entry covers the
name it spells and everything under it; one that covers nothing tests alone reach, set or run is
stale and fails the check too.  A reference is an identifier (``Name``, ``Attribute``, import
alias, string constant -- ``benchmarks/e2e/tracer.py`` wraps entry points by name -- but not a
string of a module's own ``__all__``) in another file, or in the defining file outside the
definition, so a same-named attribute elsewhere keeps
a name alive: the census under-reports, never accuses.
Package ``__init__`` files are neither importers nor references; their re-exports are followed
to the defining module.  Only absolute imports are followed (the repository has no other kind).
Each name has one import path, its module's: an import in a package ``__init__`` that no
definition in that file uses fails the check, unless ``benchmarks/e2e/`` imports the name
through the package (the ledger's workloads are edited only with the benchmark).

A knob is a defaulted public field or ``__init__`` keyword that a public dataclass or class
defines itself (a call to a subclass that inherits them is not followed; a ``_`` name is not a
knob).  A call sets it by keyword, by position, by a ``*`` / ``**`` spread (every field it can
reach) or through ``dataclasses.replace`` (of the type an annotation gives, else of every class
with such a knob); a call matches every class of the callee's name, so the knob census too
under-reports.  A value an ``__init__`` passes on from its own parameter sets the callee's knob
only where that parameter's knob is set.  Assigning or augmenting an attribute of the knob's
name (``x.f = ...``, ``x.f += ...``) sets it too, of every class, except ``self.f = ...`` in an
``__init__``, which only stores the parameter.

    python tools/census.py            # every module, public name and knob with its referrers
    python tools/census.py --check    # exit 1 on an unaccounted name, knob or re-export, or a
                                      # stale KEEP entry
    python tools/census.py --write    # regenerate DESIGN.md's inventory and knob tables
                                      # (they report; the check reads only ``KEEP``)
    python tools/census.py --reach    # run the examples, the smoke ledger and the benches
                                      # under a profile hook; rewrite tools/reach.txt

The dynamic half: ``--reach`` runs every example, ``benchmarks/e2e/run.py --smoke`` and the
benches (``*_SMOKE`` switches, ``--benchmark-disable``) with a profile hook in every process, and
lists in ``tools/reach.txt`` each non-stub def of ``src/repro`` that never ran (not one nested
in an unrun def).  ``--check`` reads the list: a listed def needs a ``KEEP`` entry, and an entry
that names no def means the list is stale.  DESIGN.md's census section has the details.
"""
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AREAS = ("src", "examples", "benchmarks", "tests")
SMOKES = ("FASTFIT", "FLEET", "MILLION_USERS", "OBS", "SCENARIO_FUZZ", "STREAMING")
PROBE = """\
import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen.add((code.co_filename, code.co_firstlineno, code.co_name))
@atexit.register
def _dump():
    sys.setprofile(None)
    with open(os.path.join(os.path.dirname(__file__), f"{os.getpid()}.ran"), "a") as out:
        out.writelines(f"{f}\\t{n}\\t{q}\\n" for f, n, q in _seen if f.startswith(%r))
sys.setprofile(_hook)
threading.setprofile(_hook)
"""
BEGIN, END = "<!-- census:begin -->", "<!-- census:end -->"
KNOBS_BEGIN, KNOBS_END = "<!-- knobs:begin -->", "<!-- knobs:end -->"
_ARTEFACT = "paper artefact no benchmark reads"
_CORPUS = "the committed regression corpus holds it, and `_build` rejects an unknown field"
_LEDGER = "ROADMAP item 1 (a): `benchmarks/e2e/workloads.py` reads it"
_HOP = "the general hop over rows after a breaker cut"
_UNRUN = "ROADMAP item 28 (d): a runner outside tests/ calls it, or it leaves with its tests"
KEEP = {
    "repro.scenarios.corpus": ("K1", "loads the regression corpus CI replays"),
    "repro.bifrost.journal.FileJournalStorage": ("K1", "the durable journal: fsync, torn tail"),
    "repro.bifrost.journal.snapshot_to_dict": ("K1", "persists an engine snapshot to storage"),
    "repro.bifrost.journal.snapshot_from_dict": ("K1", "validates a persisted snapshot on load"),
    "repro.bifrost.dsl.parse_file": ("K1", "reads a strategy file from disk, errors included"),
    "repro.fenrir.schedule.Schedule.group_usage": ("K1", "the ledger pack_repair's tests check"),
    "repro.microservices.resilience.ResilienceLayer.breaker_transitions": (
        "K1", "the transition log the scalar golden and batch equivalence tests compare"),
    **dict.fromkeys(("repro.traffic.workload.WorkloadGenerator.constant",
                     "repro.traffic.batch.BatchWorkloadGenerator.constant",
                     "repro.traffic.batch.BatchWorkloadGenerator._constant"),
                    ("K1", "the fixed workload the equivalence tests pin exact counts with")),
    **{f"repro.{name}": ("K1", why) for why, names in {
        "loads a persisted store; `test_telemetry.py::TestMetricStoreSnapshot` runs it":
            "telemetry.store.MetricStore.restore",
        "persists toggles; `test_toggles.py::TestToggleStoreSnapshot` runs it":
            "toggles.store.ToggleStore.snapshot toggles.store.ToggleStore.restore",
        "labels a lossy event stream; `test_obs_truncation.py` runs it":
            "obs.events.EventLog.truncation_sentinel obs.events.EventLog.first_retained_seq",
        "repairs a torn journal; `test_durability_e2e.py::TestCorruptJournalTail` runs it":
            "bifrost.journal.Journal.truncate_corrupt_tail",
        "a persisted snapshot's transitions; `test_durability_replay.py` runs it":
            "bifrost.journal._transition_to_dict bifrost.journal._transition_from_dict",
        "loads a corpus spec; CI's regression corpus replay runs it":
            "scenarios.spec.ScenarioSpec.from_dict scenarios.spec._build",
        "saves a corpus spec; `test_scenario_spec.py::TestSpecSerialization` runs it":
            "scenarios.spec.ScenarioSpec.to_dict",
        "parses a strategy file; `test_dsl_multifile.py::TestParseStrategies` runs it":
            "bifrost.dsl.parse_strategies",
        "a poisoned fleet without bulkheads; CI's regression corpus replay runs it":
            "fleet.orchestrator.FleetOrchestrator._abort_fleet",
        "sheds on a burnt error budget; `test_provenance_e2e.py::TestFleetBurnShedding` runs it":
            "fleet.orchestrator.FleetOrchestrator._burning_experiments",
        f"{_HOP}; CI's `TestHostileGuard` step runs it":
            "microservices.kernel.columns._run_rows microservices.kernel.core._VariantNodes "
            "microservices.kernel.core.RequestKernel._assign "
            "microservices.kernel.core.RequestKernel._matches",
        f"{_HOP}; `test_batch_equivalence.py::TestHostileEquivalence` runs it":
            "microservices.kernel.columns._admits",
        f"{_HOP}; `test_record_chain_equivalence.py::TestTapEqualsTraceWalkingTap` runs it":
            "traffic.users.ListedPopulation.user_at traffic.users.ListedPopulation.group_names "
            "exec.recording.RecordingTap.on_trace",
        "the row view `test_record_chain_equivalence.py` holds the columns equal to":
            "exec.recording.RecordedRequests.__eq__ exec.recording.RecordedRequests.__iter__ "
            "exec.recording.RecordedRequests.__getitem__ exec.recording.RecordedRequests._request",
        "`test_scenario_properties.py` holds two runs of one spec equal by it":
            "scenarios.runner.ScenarioResult.digest",
        "the scalar draw `test_batch_kernel.py::TestSliceBlockers` holds the kernel's sampler to":
            "simulation.latency.LoadSensitiveLatency.sample "
            "microservices.faults._ScaledLatency.sample",
        "the scalar draw `test_latency_tails.py` holds to the closed-form tail":
            "simulation.latency.ParetoLatency.sample",
    }.items() for name in names.split()},
    **dict.fromkeys((f"repro.scenarios.spec.{knob}" for knob in (
        "FaultSpec.endpoint", "FaultSpec.service_b", "ResilienceSpec.backoff_base_ms",
        "ResilienceSpec.breaker", "ResilienceSpec.breaker_failure_threshold",
        "ResilienceSpec.breaker_min_calls", "ResilienceSpec.breaker_open_seconds",
        "ResilienceSpec.breaker_window", "SloSpec.min_samples", "SloSpec.window_seconds")),
                    ("K1", _CORPUS)),
    "repro.fleet.watchdog.FleetWatchdog.health_of": (
        "K1", "its verdict enters the fleet WAL's slot records"),
    "repro.exec.live.LiveOptions.host": ("K1", "the live testbed's bind address"),
    "repro.study.interviews": ("K2", f"Table 2.1 -- {_ARTEFACT}"),
    "repro.study.comparison": ("K2", f"Table 2.5 -- {_ARTEFACT}"),
    "repro.study.data.published_table": ("K2", f"Tables 2.2-2.9 by number -- {_ARTEFACT}"),
    "repro.core.framework": ("K2", f"Chapter 1's framework -- {_ARTEFACT}"),
    "repro.core.lifecycle": ("K2", f"Chapter 1's life cycle -- {_ARTEFACT}"),
    "repro.core.experiment": ("K2", f"Chapter 1's experiment model -- {_ARTEFACT}"),
    "repro.core.advisor.PlatformContext": ("K2", f"Section 1.6.2's rule -- {_ARTEFACT}"),
    "repro.fenrir.fitness.FitnessWeights": (
        "K2", "Section 3.4.4's objective weights; the ledger calls "
              "`evaluate(schedule, FitnessWeights())`"),
    "repro.topology.visualize.diff_to_dot": ("K2", f"Fig 1.3 -- {_ARTEFACT}"),
    "repro.bifrost.state_machine.StateMachine.to_dot": ("K2", f"Fig 4.2 -- {_ARTEFACT}"),
    **dict.fromkeys(("repro.stats.abtest", "repro.stats.sequential", "repro.stats.hypothesis",
                     "repro.stats.power"),
                    ("K3", "ROADMAP items 6 (b) / 7 (d): `kind test` calls it or it is deleted")),
    "repro.routing.assignment.StickyAssigner.distinct_users": ("K3", "ROADMAP item 7 (b): SRM"),
    **dict.fromkeys((f"repro.simulation.batch.BatchRunResult.fallback_{name}"
                     for name in ("requests", "slices", "reasons")), ("K3", _LEDGER)),
    **dict.fromkeys((f"repro.tracing.collector.TraceCollector.{name}"
                     for name in ("record", "record_all")),
                    ("K3", "ROADMAP item 1 (a): `benchmarks/e2e/tracer.py` wraps it")),
    **dict.fromkeys(("repro.fenrir.fastfit.EvalStats.delta_evals",
                     "repro.fenrir.fastfit.EvalStats.cache_hits"), ("K3", _LEDGER)),
    "repro.fenrir.random_sampling.RandomSampling.packed": (
        "K3", "ROADMAP item 2 decides what `pack_repair` is for"),
    **dict.fromkeys((f"repro.{name}" for name in """
        bifrost.engine.BifrostEngine.outcomes bifrost.state_machine.StateMachine.state
        fenrir.model.SchedulingProblem.spec microservices.faults.FaultInjector.faults
        microservices.kernel.core._compile_sampler.sample
        microservices.service.DownstreamCall.target obs.alerts.AlertEngine.firing
        obs.events.EventLog.clear obs.events.EventLog.jsonl_lines
        obs.registry.MetricRegistry.__len__ obs.registry.MetricRegistry.value
        scenarios.fuzzer._shrink_candidates._clamp simulation.clock.SimulationClock.advance
        simulation.engine.ScheduledEvent.cancel simulation.engine.SimulationEngine.run
        simulation.executor.SimulatedExecutor.records
        simulation.rng.SeededRng.randrange stats.ranking.ndcg stats.timeseries.TimeSeries.last
        stats.timeseries.TimeSeries.summary telemetry.metrics.Gauge.add
        telemetry.metrics.Histogram.__len__ telemetry.metrics.Histogram.summary
        toggles.store.ToggleStore.__len__ toggles.store.ToggleStore.active_toggles
        topology.graph.InteractionGraph.roots topology.streaming.GraphWindowRing._expire
        topology.streaming.GraphWindowRing.window topology.streaming.HealthReport.describe
        topology.streaming.merge_graph_into tracing.collector.TraceCollector.__len__
        tracing.collector.TraceCollector.clear tracing.collector.TraceCollector.trace
        tracing.query.TraceQuery.count tracing.query.TraceQuery.entry
        tracing.trace.Trace.__len__ tracing.trace.Trace.children tracing.trace.Trace.duration_ms
        traffic.batch.BatchWorkloadGenerator.heavy_tail
        traffic.profile.TrafficProfile.group_volume
        traffic.profile.TrafficProfile.rate_per_second traffic.users.ListedPopulation.__len__
        traffic.users.UserPopulation.members traffic.users.UserPopulation.sample""".split()),
                    ("K3", _UNRUN)),
}


def _area(path):
    return path.relative_to(ROOT).parts[0]


def _ident(node):
    """The last name a callee or an annotation spells, if it is a name."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_stub(node):
    """A body of a docstring plus ``...``, ``pass`` or ``raise NotImplementedError``."""
    return all(isinstance(s, ast.Pass)
               or isinstance(s, ast.Expr) and getattr(s.value, "value", None) is ...
               or isinstance(s, ast.Raise)
               and _ident(getattr(s.exc, "func", s.exc)) == "NotImplementedError"
               for s in node.body[ast.get_docstring(node) is not None:])


def _defs(node, qual):
    """Each def under *node*, through classes and blocks but not into defs, with its name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, f"{qual}.{child.name}"
        else:
            yield from _defs(child, f"{qual}.{child.name}" if isinstance(child, ast.ClassDef)
                             else qual)


def _keep(qual):
    """The ``KEEP`` entry that covers *qual*, if any."""
    return next((k for k in KEEP if qual == k or qual.startswith(k + ".")), None)


def _is_dataclass(node):
    return any(_ident(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


class Census:
    def __init__(self):
        paths = [p for a in AREAS for p in sorted((ROOT / a).rglob("*.py"))]
        trees = {p: ast.parse(p.read_text()) for p in paths}
        self.modules, self.packages = {}, {}  # dotted name -> path; a package is its __init__
        for p in trees:
            if _area(p) == "src":
                dotted = ".".join(p.relative_to(ROOT / "src").with_suffix("").parts)
                table = self.packages if p.stem == "__init__" else self.modules
                table[dotted.removesuffix(".__init__")] = p
        self._trees, self._exports, self.defs = trees, {}, []  # defs: (name, lines, referrers)
        self._scans = scans = {p: self._scan(t) for p, t in trees.items() if p.stem != "__init__"}
        self.reachable, todo = set(), [p for p in scans if _area(p) in ("examples", "benchmarks")]
        while todo:
            for mod in scans[todo.pop()][0] - self.reachable:
                self.reachable.add(mod)
                todo.append(self.modules[mod])
        for mod, path in sorted(self.modules.items()):
            for node in trees[path].body:
                for sub in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.name[0] != "_":
                        refs = [p for p, (_, seen) in scans.items() if any(
                            p != path or not sub.lineno <= n <= sub.end_lineno
                            for n in seen.get(sub.name, ()))]
                        owner = mod if sub is node else f"{mod}.{node.name}"
                        lines = sub.end_lineno - sub.lineno + 1
                        self.defs.append((f"{owner}.{sub.name}", lines, refs))
        self.classes, self._quals = {}, {}  # class name -> [ClassDef]; ClassDef -> its name
        for mod, path in self.modules.items():
            for node in trees[path].body:
                if isinstance(node, ast.ClassDef) and node.name[0] != "_":
                    self.classes.setdefault(node.name, []).append(node)
                    self._quals[node] = f"{mod}.{node.name}"
        self._sigs, self._sets, self._forwards, self._assigned = {}, {}, [], {}
        for path, tree in trees.items():
            aliases = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                       for a in n.names if a.asname}
            self._visit(tree, path, aliases, None, None)
        for knob in self.knobs():  # an attribute assigned after construction is set
            self._sets.setdefault(knob, set()).update(
                self._assigned.get(knob.rpartition(".")[2], ()))
        changed = True
        while changed:  # a value an __init__ passes on is set where its own knob is set
            changed = False
            for knob, source, path in self._forwards:
                if path not in self._sets.setdefault(knob, set()) and self.knob_setters(source):
                    self._sets[knob].add(path)
                    changed = True

    def _origin(self, base, name):
        """The module that defines ``name`` as imported from ``base``."""
        direct = f"{base}.{name}"
        if direct in self.modules or base not in self.packages:
            return direct if direct in self.modules else base
        if base not in self._exports:
            table = self._exports[base] = {}
            for node in ast.walk(self._trees[self.packages[base]]):
                if isinstance(node, ast.ImportFrom):
                    for a in node.names:
                        table[a.asname or a.name] = self._origin(node.module, a.name)
        return self._exports[base].get(name, base)

    def _scan(self, tree):
        """Modules one file imports, and every identifier it mentions with its lines."""
        mods, seen = set(), {}
        listing = {id(n) for s in tree.body if isinstance(s, ast.Assign)  # its own ``__all__``
                   and any(getattr(t, "id", None) == "__all__" for t in s.targets)
                   for n in ast.walk(s.value)}
        for node in ast.walk(tree):
            found = ()
            if id(node) in listing:
                continue
            if isinstance(node, ast.ImportFrom):
                mods.update(self._origin(node.module, a.name) for a in node.names)
                found = [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                mods.update(a.name for a in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                found = [node.id if isinstance(node, ast.Name) else node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mods.add(node.value)
                found = [node.value]
            for ident in found:
                seen.setdefault(ident, []).append(node.lineno)
        return mods & self.modules.keys(), seen

    def _signature(self, node):
        """Class *node*'s init parameters, from its own ``__init__`` or dataclass fields, as
        (name, knob or None, positional): a knob is a parameter with a default."""
        if node not in self._sigs:
            init = next((n for n in node.body
                         if isinstance(n, ast.FunctionDef) and n.name == "__init__"), None)
            sig = []
            if init is not None:
                args = init.args
                pos = args.posonlyargs + args.args
                first = len(pos) - len(args.defaults)
                sig = [(a.arg, i >= first, True) for i, a in enumerate(pos) if i]
                sig += [(a.arg, d is not None, False)
                        for a, d in zip(args.kwonlyargs, args.kw_defaults)]
            elif _is_dataclass(node):
                for n in node.body:
                    if not isinstance(n, ast.AnnAssign):
                        continue
                    value = n.value
                    if isinstance(value, ast.Call) and _ident(value.func) == "field":
                        kw = {k.arg: k.value for k in value.keywords}
                        if getattr(kw.get("init"), "value", True) is False:
                            continue
                        value = kw.get("default", kw.get("default_factory"))
                    sig.append((n.target.id, value is not None, True))
            qual = self._quals[node]
            self._sigs[node] = [(n, f"{qual}.{n}" if d and n[0] != "_" else None, p)
                                for n, d, p in sig]
        return self._sigs[node]

    def _visit(self, node, path, aliases, cls, func):
        """Record the knobs each call under *node* sets (*cls* / *func*: the enclosing class
        and function)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, path, aliases, child, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit(child, path, aliases, cls, child)
                continue
            if isinstance(child, ast.Call):
                for node, args, keywords in self._targets(child, aliases, cls, func):
                    self._call(node, args, keywords, path, cls, func)
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                stores = getattr(child, "targets", None) or [child.target]
                init = getattr(func, "name", None) == "__init__"
                for target in (n for t in stores for n in ast.walk(t)):
                    if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store) \
                            and not (init and getattr(target.value, "id", None) == "self"):
                        self._assigned.setdefault(target.attr, set()).add(path)
            self._visit(child, path, aliases, cls, func)

    def _targets(self, call, aliases, cls, func):
        """(class, positional arguments, keywords) for each class *call* may construct, or
        copy with ``dataclasses.replace``: of the type an annotation gives, else of any."""
        callee, name = call.func, _ident(call.func)
        if name == "replace" and (isinstance(callee, ast.Name)
                                  or _ident(callee.value) == "dataclasses"):
            kind = self._type(call.args[0], cls, func) if call.args else None
            nodes = self.classes.get(kind) or [n for same in self.classes.values() for n in same]
            return [(node, [], call.keywords) for node in nodes]
        if name == "cls" and isinstance(callee, ast.Name):
            nodes = [cls] if cls in self._quals else []
        else:
            nodes = self.classes.get(aliases.get(name, name), [])
        return [(node, call.args, call.keywords) for node in nodes]

    def _type(self, expr, cls, func):
        """The class name *expr* has by annotation: ``self``, an annotated parameter of
        *func*, or an annotated field of one of those; None when unknown."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return getattr(cls, "name", None)
            args = func.args if func is not None else None
            return next((_ident(a.annotation) for a in (args.posonlyargs + args.args
                         + args.kwonlyargs if args else ()) if a.arg == expr.id and a.annotation),
                        None)
        if isinstance(expr, ast.Attribute):
            owner = self._type(expr.value, cls, func)
            for node in self.classes.get(owner, ())[:1]:
                return next((_ident(n.annotation) for n in node.body if isinstance(
                    n, ast.AnnAssign) and getattr(n.target, "id", None) == expr.attr), None)
        return None

    def _call(self, node, args, keywords, path, cls, func):
        """Record the knobs of class *node* that *args* and *keywords* set."""
        sig = self._signature(node)
        positional = [entry for entry in sig if entry[2]]
        for i, arg in enumerate(args):
            spread = isinstance(arg, ast.Starred)
            for _, knob, _ in positional[i:] if spread else positional[i:i + 1]:
                if knob:
                    self._set(knob, None if spread else arg, path, cls, func)
        for kw in keywords:
            for name, knob, _ in sig:
                if knob and kw.arg in (None, name):
                    self._set(knob, kw.value if kw.arg else None, path, cls, func)

    def _set(self, knob, value, path, cls, func):
        """*path* sets *knob* to *value*; an ``__init__`` that passes on its own knob's
        parameter sets it only where that knob is set."""
        if isinstance(value, ast.Name) and getattr(func, "name", None) == "__init__" \
                and cls in self._quals:
            source = {n: k for n, k, _ in self._signature(cls)}.get(value.id)
            if source:
                self._forwards.append((knob, source, path))
                return
        self._sets.setdefault(knob, set()).add(path)

    def knob_setters(self, knob):
        """Files outside ``tests/`` that set *knob*."""
        return sorted(p for p in self._sets.get(knob, ()) if _area(p) != "tests")

    def knobs(self):
        """Every knob of a public class in ``src/repro``, sorted."""
        return sorted({knob for same in self.classes.values() for node in same
                       for _, knob, _ in self._signature(node) if knob})

    def reexports(self):
        """``package.name`` for each import in a package ``__init__`` that no definition there
        uses and no file under ``benchmarks/e2e/`` imports through the package."""
        ledger = {(n.module, a.name) for p, tree in self._trees.items()
                  if p.is_relative_to(ROOT / "benchmarks" / "e2e")
                  for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        out = []
        for pkg, path in sorted(self.packages.items()):
            body = self._trees[path].body
            used = {n.id for d in body if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    for n in ast.walk(d) if isinstance(n, ast.Name)}
            imports = [n for n in body if isinstance(n, (ast.Import, ast.ImportFrom))]
            out += [f"{pkg}.{name}" for node in imports
                    for name in (a.asname or a.name.partition(".")[0] for a in node.names)
                    if name not in used and (pkg, name) not in ledger]
        return out

    def importers(self, mod):
        return [p for p, (mods, _) in self._scans.items() if mod in mods and p != self.modules[mod]]

    def problems(self):
        """Unaccounted modules, names and knobs (reached or set by tests alone, and not in
        ``KEEP``), ``KEEP`` entries that account for none of them, then re-exports."""
        found = [(m, f"module {m}: no example or benchmark reaches it")
                 for m in sorted(self.modules) if m not in self.reachable]
        for qual, lines, refs in self.defs:
            if all(_area(p) == "tests" for p in refs):
                where = ", ".join(sorted({p.name for p in refs})) or "nothing"
                found.append((qual, f"name {qual} ({lines} lines): referenced from {where} "
                                    "and nowhere else"))
        found += [(knob, f"knob {knob}: nothing outside tests/ sets it")
                  for knob in self.knobs() if not self.knob_setters(knob)]
        listed, stale = self.listed()
        found += [(qual, f"def {qual} ({lines} lines): nothing outside tests/ runs it")
                  for qual, lines in listed]
        out, used = [], set()
        for qual, problem in found:
            key = _keep(qual)
            if key is None:
                out.append(problem)
            used.add(key)
        out += [f"KEEP entry {key}: nothing it names is reached or set by tests alone"
                for key in KEEP if key not in used]
        out += [f"reach entry {qual}: names no def (run census.py --reach)" for qual in stale]
        return out + [f"re-export {name}: import it from its module" for name in self.reexports()]

    def functions(self):
        """(key, qualname, lines, stub, enclosing def's key) of each def in ``src/repro``, an
        enclosing def first; a key is (path under ``src/``, first line, name)."""
        def visit(node, qual, path, parent):
            for sub, name in _defs(node, qual):
                first = min([d.lineno for d in sub.decorator_list] + [sub.lineno])
                key = (path, first, sub.name)
                yield key, name, sub.end_lineno - first + 1, _is_stub(sub), parent
                yield from visit(sub, name, path, key)
        for mod, path in sorted((self.modules | self.packages).items()):
            rel = path.relative_to(ROOT / "src").as_posix()
            yield from visit(self._trees[path], mod, rel, None)

    def unrun(self, ran):
        """(qualname, lines) of each non-stub def whose key is not in *ran* and that no unrun
        def encloses."""
        dead, out = set(), []
        for key, qual, lines, stub, parent in self.functions():
            if key not in ran:
                dead.add(key)
                if parent not in dead and not stub:
                    out.append((qual, lines))
        return sorted(out)

    def listed(self):
        """``tools/reach.txt``'s (qualname, lines) that name a def, and the names that do
        not."""
        path = ROOT / "tools" / "reach.txt"
        text = path.read_text() if path.exists() else ""
        rows = [row.rsplit(" ", 1) for row in text.splitlines()]
        quals = {qual for _, qual, *_ in self.functions()}
        return ([(qual, int(n)) for qual, n in rows if qual in quals],
                [qual for qual, _ in rows if qual not in quals])

    def _row(self, knob, setters):
        where = ", ".join(f"`{p.relative_to(ROOT)}`" for p in setters) or "—"
        return f"| `{knob.removeprefix('repro.')}` | {where} |"

    def knob_table(self):
        """One DESIGN.md row per knob: the files outside ``tests/`` that set it."""
        knobs = self.knobs()
        rows = [self._row(knob, self.knob_setters(knob)) for knob in knobs]
        unset = sum(row.endswith("| — |") for row in rows)
        return "\n".join([f"{len(knobs)} settable values, {unset} set by nothing outside "
                          "`tests/`.", "", "| Knob | Set outside `tests/` in |", "|---|---|"]
                         + rows)

    def table(self):
        """One DESIGN.md row per package."""
        rows = ["| Package | Modules | Lines | Non-test importers | Kept though tests-only |"]
        rows.append("|---|---|---|---|---|")
        for pkg in sorted(k for k in self.packages if k.count(".") == 1):
            own = {m: p for m, p in (self.modules | self.packages).items()
                   if f"{m}.".startswith(f"{pkg}.")}
            lines = sum(len(p.read_text().splitlines()) for p in own.values())
            users = {p for m in own if m in self.modules for p in self.importers(m)
                     if _area(p) != "tests" and p not in own.values()}
            keeps = "; ".join(f"`{key.removeprefix(pkg + '.')}` **{code}** {why}"
                              for key, (code, why) in KEEP.items() if key.startswith(pkg + "."))
            modules = sum(m in self.modules for m in own)
            rows.append(f"| `{pkg}` | {modules} | {lines} | {len(users)} | {keeps or '—'} |")
        return "\n".join(rows)


def probe(commands):
    """The key of every ``src/repro`` code object that *commands* run under the profile hook,
    with every ``*_SMOKE`` switch set."""
    src = str(ROOT / "src") + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(PROBE % src)
        path = os.pathsep.join(filter(None, (tmp, src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0",
                   **{f"{s}_SMOKE": "1" for s in SMOKES})
        for command in commands:
            print("reach:", *command[1:], file=sys.stderr, flush=True)
            subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
        rows = [line.split("\t") for dump in Path(tmp).glob("*.ran")
                for line in dump.read_text().splitlines()]
    return {(file.removeprefix(src), int(first), name) for file, first, name in rows}


def runners():
    """Every example, the smoke ledger, and the benches outside ``benchmarks/e2e/``."""
    py = sys.executable
    return ([[py, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
            + [[py, "benchmarks/e2e/run.py", "--smoke"],
               [py, "-m", "pytest", "-q", "benchmarks", "--ignore=benchmarks/e2e",
                "--benchmark-disable"]])


def _splice(text, begin, end, table):
    head, rest = text.split(begin)
    return f"{head}{begin}\n{table}\n{end}{rest.split(end)[1]}"


def main(argv):
    census = Census()
    if argv == ["--reach"]:
        unrun = census.unrun(probe(runners()))
        (ROOT / "tools" / "reach.txt").write_text("".join(f"{q} {n}\n" for q, n in unrun))
        codes = [KEEP[_keep(q)][0] if _keep(q) else "no reason" for q, _ in unrun]
        print(*(f"{q} {n} lines: {code}" for (q, n), code in zip(unrun, codes)), sep="\n")
        for code in sorted(set(codes)):
            lines = [n for (_, n), c in zip(unrun, codes) if c == code]
            print(f"unrun, {code}: {len(lines)} defs, {sum(lines)} lines")
    problems = census.problems()
    if argv == ["--write"]:
        design = ROOT / "DESIGN.md"
        text = _splice(design.read_text(), BEGIN, END, census.table())
        design.write_text(_splice(text, KNOBS_BEGIN, KNOBS_END, census.knob_table()))
    if not argv:
        listing = [(m, "reached" if m in census.reachable else "UNREACHED", census.importers(m))
                   for m in sorted(census.modules)]
        listing += [(q, f"{n} lines", refs) for q, n, refs in census.defs]
        for what, note, refs in listing:
            print(what, note, *(f"{a}={sum(_area(p) == a for p in refs)}" for a in AREAS))
        for knob in census.knobs():
            setters = census._sets.get(knob, ())
            print(knob, "knob", *(f"{a}={sum(_area(p) == a for p in setters)}" for a in AREAS))
    print("\n".join(problems) or "census: every module, public name and knob is accounted for")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
