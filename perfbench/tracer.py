"""Outside-in layer tracer: wraps the public functions of each layer.

The tracer patches functions and methods of :mod:`repro` from the outside
(no span lives inside the program).  A module-level function is replaced
at *every* module attribute that holds it, so a ``from x import f`` alias
is traced exactly like the defining module's name — a missed alias would
read as 0 s, which looks like a 100 % speed-up of its layer.

Each wrapper records, per call:

* ``busy`` — wall time inside the call (outermost call of a recursion only);
* ``self`` — busy time minus the time spent in wrapped children on the
  same thread (span parents are tracked per thread, because window slides
  run on the scoring service's executor thread, not on the loop thread);
* the call count, per metric key and per patched alias site.

Accumulators are thread-local and merged when the run ends, so no lock
sits on the traced path.  :meth:`LayerTracer.uninstall` restores every
original and fails loudly if a wrapper survives anywhere.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

SERVE = "serve_bursty"
SLIDE = "slide_incremental"
FIG7 = "fig7_hybrid_cold"
ALL = frozenset({SERVE, SLIDE, FIG7})
DYNAMIC = frozenset({SERVE, SLIDE})


@dataclass(frozen=True)
class Target:
    """One traced layer function.

    Each of ``specs`` is ``"module:name"`` for a module-level function
    (patched at every module attribute that holds it) or
    ``"module:Class.method"`` for a method (patched on the class).
    ``hit_on`` names the workloads that must call it.  ``alias_sites``
    pairs a module that must hold a patched alias with the workloads that
    must call the function through that alias.
    """

    key: str
    specs: Tuple[str, ...]
    hit_on: FrozenSet[str]
    alias_sites: Tuple[Tuple[str, FrozenSet[str]], ...] = ()


NONE: FrozenSet[str] = frozenset()

#: The traced layer boundaries.  ``hit_on`` and ``alias_sites`` are the
#: coverage contract checked after every traced run.  Two targets are
#: reached by no workload: the count-min sketch and the global atomics run
#: only when a vertex's labels overflow its shared-memory hash table, which
#: the seeded program's few labels never do.  They are still wrapped (and
#: the check asserts so), and read 0.
TARGETS: Tuple[Target, ...] = (
    Target("serving.score_user", ("repro.serving.service:score_user",),
           frozenset({SERVE}), (("repro.serving.service", frozenset({SERVE})),)),
    Target("pipeline.stream_generate",
           ("repro.pipeline.transactions:TransactionStream._generate",), ALL),
    Target("pipeline.build_window_graph",
           ("repro.pipeline.window:build_window_graph",), frozenset({FIG7})),
    Target("pipeline.window_slide",
           ("repro.pipeline.incremental:IncrementalWindowBuilder.slide",),
           DYNAMIC),
    Target("pipeline.window_build",
           ("repro.pipeline.incremental:IncrementalWindowBuilder.build",),
           DYNAMIC),
    Target("pipeline.warm_start_seeds",
           ("repro.pipeline.incremental:warm_start_seeds",), DYNAMIC,
           (("repro.pipeline.incremental", DYNAMIC),)),
    Target("pipeline.window_seeds",
           ("repro.pipeline.seeds:SeedStore.window_seeds",), ALL),
    Target("pipeline.detect",
           ("repro.pipeline.detector:ClusterDetector.detect",), DYNAMIC),
    Target("pipeline.dynlp_plan", ("repro.pipeline.dynlp:plan_slide",),
           DYNAMIC, (("repro.pipeline.incremental", DYNAMIC),)),
    Target("pipeline.dynlp_affected",
           ("repro.pipeline.dynlp:affected_vertices",), DYNAMIC),
    Target("graph.from_edge_arrays", ("repro.graph.builder:from_edge_arrays",),
           ALL, (("repro.pipeline.incremental", DYNAMIC),
                 ("repro.pipeline.window", frozenset({FIG7})))),
    Target("core.engine_run",
           ("repro.core.framework:GLPEngine.run",
            "repro.core.hybrid:HybridEngine.run",
            "repro.core.multigpu:MultiGPUEngine.run"), ALL),
    Target("kernels.propagate_pass", ("repro.kernels.propagate:propagate_pass",),
           ALL, (("repro.core.framework", frozenset({SERVE})),
                 ("repro.core.hybrid", frozenset({FIG7})),
                 ("repro.core.multigpu", frozenset({SLIDE})))),
    Target("kernels.expand_frontier", ("repro.kernels.frontier:expand_frontier",),
           DYNAMIC),
    Target("kernels.compact_frontier",
           ("repro.kernels.frontier:compact_frontier",), DYNAMIC),
    Target("gpusim.count_sector_transactions",
           ("repro.gpusim.memory:count_sector_transactions",), ALL,
           (("repro.gpusim.memory", ALL), ("repro.gpusim.atomics", NONE))),
    Target("gpusim.match_any_sync", ("repro.gpusim.warp:match_any_sync",), ALL),
    Target("gpusim.popc", ("repro.gpusim.warp:popc",), ALL),
    Target("gpusim.serialization_cost",
           ("repro.gpusim.atomics:serialization_cost",), ALL),
    Target("gpusim.ballot_sync", ("repro.gpusim.warp:ballot_sync",), ALL),
    Target("sketch.countmin_add", ("repro.sketch.countmin:CountMinSketch.add",),
           NONE),
)


@dataclass
class Span:
    """Accumulated timings of one metric key on one thread."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0


@dataclass
class _ThreadState:
    #: Child-time accumulators of the open frames, innermost last.
    frames: List[List[float]] = field(default_factory=list)
    #: Open-frame depth per key (busy counts the outermost call only).
    depth: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, Span] = field(default_factory=dict)
    site_hits: Dict[Tuple[str, str], int] = field(default_factory=dict)


class TraceError(RuntimeError):
    """The tracer could not install, cover or restore its wrappers."""


def _resolve(spec: str):
    module_name, _, qualname = spec.partition(":")
    module = sys.modules.get(module_name) or __import__(
        module_name, fromlist=["_"]
    )
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


class LayerTracer:
    """Install, account and restore the layer wrappers.

    ``post_hooks`` maps a metric key to ``hook(result, args)``, called on
    the traced thread after each successful call (used to count work from
    return values, e.g. iterations of an engine run).
    """

    def __init__(
        self,
        targets: Tuple[Target, ...] = TARGETS,
        *,
        post_hooks: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.targets = targets
        self.post_hooks = dict(post_hooks or {})
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (owner, attribute, original, site label) of every patch.
        self._patches: List[Tuple[object, str, object, str]] = []
        self._patched_sites: set = set()
        self.installed = False

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, key: str, site: str):
        hook = self.post_hooks.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            frame = [0.0]
            state.frames.append(frame)
            outermost = state.depth.get(key, 0) == 0
            state.depth[key] = state.depth.get(key, 0) + 1
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                state.frames.pop()
                state.depth[key] -= 1
                if state.frames:
                    state.frames[-1][0] += elapsed
                span = state.spans.get(key)
                if span is None:
                    span = state.spans[key] = Span()
                span.calls += 1
                span.self_time += elapsed - frame[0]
                if outermost:
                    span.busy += elapsed
                hit = (key, site)
                state.site_hits[hit] = state.site_hits.get(hit, 0) + 1
            if hook is not None:
                hook(result, args)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target at its definition and at every alias."""
        if self.installed:
            raise TraceError("tracer already installed")
        try:
            for target in self.targets:
                for spec in target.specs:
                    self._install_one(target.key, spec)
        except Exception:
            self.uninstall()
            raise
        self.installed = True

    def _install_one(self, key: str, spec: str) -> None:
        module, owner, attr = _resolve(spec)
        if owner is module:
            original = getattr(module, attr)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        wrapper = self._wrap(original, key, name)
                        setattr(mod, alias, wrapper)
                        self._patches.append((mod, alias, original, name))
                        self._patched_sites.add((key, name))
        else:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, key, spec)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, spec))
            self._patched_sites.add((key, spec))

    def uninstall(self) -> None:
        """Restore every original; raise if any wrapper survives."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False
        leftovers = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if hasattr(value, "__perfbench_original__"):
                    leftovers.append(f"{name}.{alias}")
                if isinstance(value, type):
                    for attr, member in list(vars(value).items()):
                        if hasattr(member, "__perfbench_original__"):
                            leftovers.append(f"{name}.{alias}.{attr}")
        if leftovers:
            raise TraceError(f"wrappers not restored: {sorted(leftovers)}")

    # ------------------------------------------------------------------
    def spans(self) -> Dict[str, Span]:
        """Merged per-key spans across every thread that was traced."""
        merged: Dict[str, Span] = {t.key: Span() for t in self.targets}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, span in state.spans.items():
                total = merged.setdefault(key, Span())
                total.calls += span.calls
                total.busy += span.busy
                total.self_time += span.self_time
        return merged

    def site_hits(self) -> Dict[Tuple[str, str], int]:
        hits: Dict[Tuple[str, str], int] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for site, count in state.site_hits.items():
                hits[site] = hits.get(site, 0) + count
        return hits

    def coverage_errors(self, workload: str) -> List[str]:
        """Targets or alias sites ``workload`` should have hit but did not."""
        spans = self.spans()
        hits = self.site_hits()
        errors = []
        for target in self.targets:
            if workload in target.hit_on and spans[target.key].calls == 0:
                errors.append(f"{target.key} never called")
            for site, hit_on in target.alias_sites:
                if (target.key, site) not in self._patched_sites:
                    errors.append(f"{target.key} not wrapped at {site}")
                elif workload in hit_on and not hits.get((target.key, site)):
                    errors.append(f"{target.key} never called via {site}")
        return errors

