"""The bulk-synchronous driver shared by the device engines.

Every device engine runs the same loop (Figure 2): PickLabel →
LabelPropagation → UpdateVertex, one bulk-synchronous iteration at a
time.  GLP, hybrid and multi-GPU execution differ only in *where*
LabelPropagation runs, so — following Gunrock's enactor/problem split —
this module owns the loop and everything around it:

* the ``run()`` preamble: warm-label and initial-frontier coercion,
  program initialization and validation;
* resilience: the :class:`~repro.resilience.recovery.RecoveryContext`,
  the pre-run and top-of-iteration checkpoints, the attempt loop with its
  ``engine.attempt.*`` and ``recovery.restore`` journal events;
* per-iteration bookkeeping: ``on_iteration_end``, the changed count,
  convergence, history, metrics and the tracer's host events.

An engine binds ``run = driver.run`` in its class body and supplies:

``devices``
    The simulated devices whose clocks a run resets.
``carry_keys``
    The engine-state keys a checkpoint carries next to labels and
    program state.  The *last* key holds the coerced ``initial_frontier``
    before iteration 1; the others start as ``None``.
``_attempt(graph, program, state, residency) -> Attempt``
    Residency setup for one execution attempt, reading its carry from
    ``state`` and appending every device allocation to ``residency`` (the
    driver frees them when the attempt ends, faulted or not).  The
    returned :class:`Attempt` holds the engine's per-iteration step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Union

import numpy as np

from repro import obs
from repro.core.api import LPProgram, validate_program
from repro.core.instrument import observe_iteration, observe_run
from repro.core.results import IterationStats, LPResult
from repro.errors import (
    ConvergenceError,
    DeviceFault,
    ProgramError,
    ResilienceError,
)
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceArray
from repro.kernels.frontier import bitmap_unique, coerce_initial_frontier


def resolve_pinned(
    program: LPProgram, graph: CSRGraph
) -> Optional[np.ndarray]:
    """The program's pinned-vertex set as sorted unique int64 (or None).

    Deduplicated through a vertex bitmap rather than a sort: warm windows
    pin nearly every vertex.
    """
    pinned = program.pinned_vertices(graph)
    if pinned is None:
        return None
    pinned = np.asarray(pinned, dtype=np.int64).ravel()
    if pinned.size and (
        pinned.min() < 0 or pinned.max() >= graph.num_vertices
    ):
        raise ProgramError("pinned vertex ids out of range")
    return bitmap_unique(pinned, graph.num_vertices)


def coerce_warm_labels(
    warm_labels: np.ndarray, graph: CSRGraph, init_labels: np.ndarray
) -> np.ndarray:
    """Validate an engine's ``warm_labels=`` argument."""
    warm = np.asarray(warm_labels)
    if warm.shape != (graph.num_vertices,):
        raise ConvergenceError(
            f"warm_labels must carry one label per vertex "
            f"({graph.num_vertices}), got shape {warm.shape}"
        )
    return warm.astype(init_labels.dtype, copy=True)


class Step(NamedTuple):
    """What one engine iteration hands back to the driver."""

    new_labels: np.ndarray
    #: ``new_labels != labels`` (the engine needs it for its own frontier).
    changed_mask: np.ndarray
    #: :class:`IterationStats` fields except ``iteration``/``changed_vertices``.
    stats: Dict[str, object]
    #: Engine-specific args of the ``iteration N`` tracer event.
    trace_args: Dict[str, object]


@dataclass
class Attempt:
    """An engine's part of one execution attempt."""

    #: ``step(iteration, labels)``: pick, kernels, update, frontier advance.
    step: Callable[[int, np.ndarray], Step]
    #: ``carry(iteration)``: the engine state a checkpoint must hold.
    carry: Callable[[int], Dict[str, object]]
    #: ``finish(iterations)``: end-of-run extras; returns the residual
    #: frontier reported as ``LPResult.final_frontier``.
    finish: Callable[[List[IterationStats]], Optional[np.ndarray]]
    #: ``LPResult.engine`` when it differs from the engine's name.
    result_name: Optional[str] = None


def run(
    self,
    graph: CSRGraph,
    program: LPProgram,
    *,
    max_iterations: int = 20,
    record_history: bool = False,
    stop_on_convergence: bool = True,
    retry_policy: "Optional[object]" = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Union[object, str, None] = None,
    initial_frontier: Optional[np.ndarray] = None,
    warm_labels: Optional[np.ndarray] = None,
) -> LPResult:
    """Execute ``program`` on ``graph`` for up to ``max_iterations``.

    Incremental re-convergence (see ``docs/incremental_lp.md``):

    ``initial_frontier``
        Vertex ids iteration 1 processes *sparsely* instead of the
        mandatory dense pass — the affected set of a window slide.
        Requires frontier mode and a ``frontier_safe`` program; silently
        ignored otherwise (the dense run is a correct superset).  Only the
        frontier's edges are charged.  The hybrid engine sparsifies both
        execution shares; the multi-GPU engine splits the set across
        partitions by vertex ownership.
    ``warm_labels``
        Prior label state to resume from in place of
        ``program.init_labels``'s output (the program still initializes
        its own state and may pin seeds on top).

    Resilience (all off by default — the fault-free path is bitwise
    identical to an engine without the recovery layer):

    ``retry_policy``
        A :class:`~repro.resilience.RetryPolicy`; device faults are
        recovered by restoring the BSP-boundary checkpoint (labels,
        program state and the engine's ``carry_keys``) and re-running
        (bounded retries for transient faults, bounded resumes for fatal
        ones).  OOM always propagates — stepping down engines is
        ``run_auto``'s job.
    ``checkpoint_dir``
        Persist the per-iteration :class:`~repro.resilience.
        RunCheckpoint` here so a killed run can be resumed.
    ``resume_from``
        A ``RunCheckpoint``, a checkpoint file, or a directory to resume
        from; the resumed run's final labels are bitwise identical to an
        uninterrupted run's.
    """
    if max_iterations <= 0:
        raise ConvergenceError("max_iterations must be positive")
    from repro.resilience.recovery import RecoveryContext

    for device in self.devices:
        device.reset_timing()

    labels = program.init_labels(graph)
    if warm_labels is not None:
        labels = coerce_warm_labels(warm_labels, graph, labels)
    program.init_state(graph, labels)
    validate_program(program, graph, labels)

    initial = None
    if (
        initial_frontier is not None
        and self.frontier.enabled
        and program.frontier_safe
    ):
        initial = coerce_initial_frontier(initial_frontier, graph.num_vertices)
    keys = self.carry_keys
    carry = {**dict.fromkeys(keys), keys[-1]: initial}
    state: Dict[str, object] = {"labels": labels, "iteration": 1, **carry}
    recovery = RecoveryContext.for_run(
        self.name,
        retry_policy=retry_policy,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
    )
    iterations: List[IterationStats] = []
    history: Optional[list] = [] if record_history else None
    if recovery is not None:
        ckpt = recovery.resume_checkpoint(graph=graph, program=program)
        if ckpt is not None:
            _restore(state, keys, program, ckpt)
        else:
            # Cover faults during residency setup: the pre-run state is
            # itself a consistent BSP boundary.
            recovery.checkpoint(
                graph=graph,
                program=program,
                iteration=1,
                labels=labels,
                engine_state=carry,
            )
    attempts = 0
    while True:
        attempts += 1
        with obs.correlate(attempt_id=obs.mint_id("attempt")):
            obs.emit(
                "engine.attempt.start",
                engine=self.name,
                attempt=attempts,
                start_iteration=int(state["iteration"]),
            )
            try:
                result = _run_attempt(
                    self,
                    graph,
                    program,
                    state,
                    iterations,
                    history,
                    recovery,
                    max_iterations=max_iterations,
                    stop_on_convergence=stop_on_convergence,
                )
            except DeviceFault as fault:
                obs.emit(
                    "engine.attempt.fault",
                    engine=self.name,
                    attempt=attempts,
                    kind=fault.kind,
                    transient=fault.transient,
                    iteration=int(state["iteration"]),
                )
                if recovery is None:
                    raise
                ckpt = recovery.on_fault(fault)
                with recovery.recovery_span(fault, int(state["iteration"])):
                    _restore(state, keys, program, ckpt)
                obs.emit(
                    "recovery.restore",
                    engine=self.name,
                    iteration=int(ckpt.iteration),
                    kind=fault.kind,
                )
                continue
            obs.emit(
                "engine.attempt.end",
                engine=self.name,
                attempt=attempts,
                outcome="ok",
                iterations=result.num_iterations,
            )
            return result


def _restore(state: Dict[str, object], keys, program: LPProgram, ckpt) -> None:
    """Reset the mutable run state to a checkpoint."""
    ckpt.restore_program(program)
    engine_state = ckpt.restored_engine_state()
    state["labels"] = ckpt.restored_labels()
    state.update((key, engine_state.get(key)) for key in keys)
    state["iteration"] = ckpt.iteration


def _run_attempt(
    engine,
    graph: CSRGraph,
    program: LPProgram,
    state: Dict[str, object],
    iterations: List[IterationStats],
    history: Optional[list],
    recovery,
    *,
    max_iterations: int,
    stop_on_convergence: bool,
) -> LPResult:
    """One execution attempt from the current run state to the end."""
    labels = state["labels"]
    track_frontier = engine.frontier.enabled and program.frontier_safe
    start_iteration = int(state["iteration"])
    # Re-runs never duplicate a record: a fault restores the checkpoint
    # taken at the top of the faulted iteration, before its record was
    # appended, and a resume from disk starts with empty lists.
    if len(iterations) >= start_iteration or (
        history is not None and len(history) >= start_iteration
    ):
        raise ResilienceError(
            f"restore point iteration {start_iteration} precedes "
            f"{len(iterations)} recorded iterations"
        )
    converged = False
    active_tracer = obs.tracer()
    run_started = time.perf_counter() if active_tracer else 0.0
    # Owned here, not by the engine, so uploads made before a fault in
    # the residency setup itself are freed too.
    residency: List[DeviceArray] = []
    try:
        attempt = engine._attempt(graph, program, state, residency)
        for iteration in range(start_iteration, max_iterations + 1):
            state["iteration"] = iteration
            if recovery is not None:
                recovery.checkpoint(
                    graph=graph,
                    program=program,
                    iteration=iteration,
                    labels=labels,
                    engine_state=attempt.carry(iteration),
                )
            iter_started = time.perf_counter() if active_tracer else 0.0
            step = attempt.step(iteration, labels)
            program.on_iteration_end(graph, labels, step.new_labels, iteration)
            changed = int(np.count_nonzero(step.changed_mask))
            iteration_converged = program.converged(
                labels, step.new_labels, iteration
            )
            labels = step.new_labels
            if history is not None:
                history.append(labels.copy())
            stats = IterationStats(
                iteration=iteration, changed_vertices=changed, **step.stats
            )
            iterations.append(stats)
            observe_iteration(
                engine.name, stats, graph.num_vertices, track_frontier
            )
            if active_tracer is not None:
                active_tracer.host_event(
                    f"iteration {iteration}",
                    iter_started,
                    cat="engine",
                    args={
                        "modeled_seconds": stats.seconds,
                        "changed_vertices": changed,
                        **step.trace_args,
                    },
                )
            if iteration_converged and stop_on_convergence:
                converged = True
                break
    finally:
        for handle in residency:
            handle.device.free(handle)
        if active_tracer is not None:
            active_tracer.host_event(
                engine.run_event,
                run_started,
                cat="engine",
                args={
                    "engine": engine.name,
                    "graph": graph.name,
                    "program": program.name,
                },
            )

    result = LPResult(
        labels=program.final_labels(labels),
        iterations=iterations,
        converged=converged,
        engine=attempt.result_name or engine.name,
        history=history,
        final_frontier=attempt.finish(iterations),
    )
    observe_run(result.engine, result)
    return result
