"""CPU-GPU hybrid execution for graphs exceeding device memory.

Section 3.1: "In the case of large graphs that cannot fit into the GPU
memory, the CPUs can coordinate the CPU-GPU graph data movement as well as
handle PickLabel and UpdateVertex.  The heavy lifting of processing
LabelPropagation is then handled by one or multiple GPUs."

Design — persistent residency + CPU co-processing:

* The CSR is split into contiguous vertex chunks; as many as fit stay
  **resident** on the device for the whole run (the CSR is read-only, so
  they upload exactly once).
* The overflow chunks are **not** streamed every iteration — PCIe at
  12 GB/s can never keep up with HBM2 kernels, so re-shipping gigabytes per
  iteration would drown the GPU.  Instead the host CPU co-processes the
  overflow vertices with the same MFL semantics, in parallel with the GPU's
  kernels (the "CPU-GPU heterogeneous mode").
* For ``frontier_safe`` programs (classic and seeded LP) the CPU share is
  frontier-sparsified: an overflow vertex is recomputed only when one of
  its in-neighbors changed label, which after the first iterations shrinks
  the CPU share to a trickle.
* Per iteration only *label deltas* cross PCIe (changed ``(id, label)``
  pairs in both directions) — which is how the visible memory-transfer
  overhead stays below 10 % of elapsed time, the paper's Section 5.4 claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.baselines.cpumodel import CPUSpec, XEON_W2133
from repro.core import driver
from repro.core.api import LPProgram
from repro.core.results import IterationStats
from repro.errors import DeviceFault, OutOfDeviceMemoryError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPartition, partition_by_edge_count
from repro.gpusim import hooks
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.device import Device
from repro.kernels import mfl
from repro.kernels.base import ELEM_BYTES, GLP_DEFAULT, KernelContext, StrategyConfig
from repro.kernels.frontier import (
    FrontierConfig,
    bitmap_unique,
    prune_pinned,
    resolve_frontier,
    use_sparse_pass,
)
from repro.kernels.mfl import NO_SCORE
from repro.kernels.propagate import propagate_pass
from repro.kernels.scheduler import bin_vertices_by_degree
from repro.types import LABEL_DTYPE, WEIGHT_DTYPE

#: Fraction of device memory the hybrid residency planner may fill, and the
#: share ``run_auto``'s all-resident fit test allows before it picks hybrid.
MEMORY_SAFETY = 0.9


@dataclass(frozen=True)
class HybridStats:
    """Aggregate hybrid-mode measurements over a run.

    ``elapsed_seconds`` is the modeled wall clock: per iteration the GPU
    kernels and the CPU share run *concurrently*, so the iteration costs
    ``max(kernel, cpu) + transfer`` — summing the three shares would count
    overlapped work twice.
    """

    num_chunks: int
    num_resident_chunks: int
    resident_edge_fraction: float
    h2d_bytes: int
    visible_transfer_seconds: float
    kernel_seconds: float
    cpu_seconds: float
    elapsed_seconds: float = 0.0

    @property
    def transfer_fraction(self) -> float:
        """Visible transfer share of elapsed time (paper: < 10 %).

        The denominator is the modeled elapsed time (``max(kernel, cpu)
        + transfer`` per iteration), not ``kernel + cpu + transfer`` —
        the GPU and CPU shares overlap, so the serial sum overstates the
        run time and understated this fraction.
        """
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.visible_transfer_seconds / self.elapsed_seconds


class HybridEngine:
    """CPU-GPU hybrid GLP engine (resident chunks + CPU overflow).

    Parameters
    ----------
    device:
        Simulated GPU (fresh Titan V by default).  The graph is expected
        *not* to fit its memory — otherwise prefer
        :class:`~repro.core.framework.GLPEngine`.
    cpu_spec:
        The host CPU that co-processes overflow vertices.
    frontier:
        Frontier execution policy for the *GPU resident range* (the CPU
        overflow share is always frontier-sparsified for safe programs).
        The reversed CSR stays host-side — the CPU coordinates hybrid mode,
        so it computes the frontier and ships the resident slice's ids over
        PCIe each iteration (counted as transfer time).
    """

    name = "GLP-Hybrid"
    #: Accepts ``initial_frontier``/``warm_labels`` for incremental
    #: re-convergence (see ``docs/incremental_lp.md``).
    supports_incremental = True
    #: Accepts ``retry_policy``/``checkpoint_dir``/``resume_from``
    #: (see ``docs/resilience.md``); CPU baselines do not.
    supports_recovery = True

    def __init__(
        self,
        device: Optional[Device] = None,
        *,
        config: StrategyConfig = GLP_DEFAULT,
        spec: DeviceSpec = TITAN_V,
        cpu_spec: CPUSpec = XEON_W2133,
        frontier: "FrontierConfig | str" = "dense",
    ) -> None:
        self.device = device if device is not None else Device(spec)
        self.config = config
        self.cpu_spec = cpu_spec
        self.frontier = resolve_frontier(frontier)
        self.last_stats: Optional[HybridStats] = None

    # ------------------------------------------------------------------
    def _chunk_bytes(self, graph: CSRGraph, chunk: VertexPartition) -> int:
        per_edge = ELEM_BYTES * (2 if graph.weights is not None else 1)
        return chunk.num_edges * per_edge

    def _plan(self, graph: CSRGraph):
        """Split into chunks; the resident prefix fills the device."""
        label_bytes = (graph.num_vertices + 1) * ELEM_BYTES
        # offsets + labels + out + scores, plus a transient slot for the
        # per-iteration delta-label buffers.
        always_resident = 5 * label_bytes
        budget = (
            int(self.device.spec.global_mem_bytes * MEMORY_SAFETY)
            - always_resident
        )
        if budget <= 0:
            raise OutOfDeviceMemoryError(
                "device too small to hold even the label arrays"
            )
        per_edge = ELEM_BYTES * (2 if graph.weights is not None else 1)
        max_edges = max(1, budget // (64 * per_edge))
        chunks = partition_by_edge_count(graph, max_edges)

        resident: List[VertexPartition] = []
        overflow: List[VertexPartition] = []
        used = 0
        for chunk in chunks:
            nbytes = self._chunk_bytes(graph, chunk)
            if not overflow and used + nbytes <= budget:
                resident.append(chunk)
                used += nbytes
            else:
                overflow.append(chunk)
        return chunks, resident, overflow

    def _cpu_rate(self) -> float:
        """Host edge-processing rate for the co-processed share."""
        return (
            self.cpu_spec.edges_per_core_per_second
            * self.cpu_spec.num_cores
            * 1.3
        )

    @property
    def devices(self) -> List[Device]:
        """The devices a run resets: this engine's one GPU."""
        return [self.device]

    # ------------------------------------------------------------------
    run = driver.run
    run_event = "hybrid-run"
    carry_keys = ("prev_changed", "initial_frontier")

    def _attempt(
        self, graph: CSRGraph, program: LPProgram, state: dict, residency: list
    ) -> driver.Attempt:
        """Residency and per-iteration step for one attempt (see driver).

        With an ``initial_frontier``, iteration 1 runs sparse on *both*
        execution shares (the resident GPU slice and the CPU overflow
        slice).  The checkpoint carry is last round's changed set.
        """
        device = self.device
        labels = state["labels"]
        # Pinned vertices are pruned from every sparse worklist (their
        # update is a no-op); relevant whenever the program is
        # frontier-safe, since the CPU overflow share sparsifies even in
        # dense GPU mode.
        pinned = (
            driver.resolve_pinned(program, graph)
            if program.frontier_safe
            else None
        )
        chunks, resident, overflow = self._plan(graph)
        resident_edges = sum(c.num_edges for c in resident)
        overflow_start = overflow[0].start if overflow else graph.num_vertices

        track_frontier = self.frontier.enabled and program.frontier_safe
        resident_vertices = (
            np.arange(resident[0].start, resident[-1].stop, dtype=np.int64)
            if resident
            else np.empty(0, dtype=np.int64)
        )
        # Degrees are static: bin the resident range once for dense rounds.
        resident_bins = (
            bin_vertices_by_degree(
                graph,
                low_threshold=self.config.low_threshold,
                high_threshold=self.config.high_threshold,
                vertices=resident_vertices,
            )
            if resident_vertices.size
            else None
        )

        # One-time residency uploads (window setup, not per-iteration time).
        # The planner's own estimate — the always-resident label arrays
        # plus the chunk bytes it admitted — is noted to the memory
        # tracker so the watermark report can grade it against the
        # measured peak.
        tracker = hooks.memory()
        if tracker is not None:
            label_bytes = (graph.num_vertices + 1) * ELEM_BYTES
            tracker.note_prediction(
                self.name,
                device,
                5 * label_bytes
                + sum(self._chunk_bytes(graph, c) for c in resident),
                source="hybrid.plan",
            )
        with obs.alloc_scope("csr", "hybrid.residency"):
            residency.append(device.h2d(graph.offsets))
        with obs.alloc_scope("labels", "hybrid.residency"):
            residency.append(device.h2d(labels))
            residency.append(device.alloc(labels.shape, labels.dtype))
        with obs.alloc_scope("scratch", "hybrid.scores"):
            residency.append(device.alloc(labels.shape, np.float64))
        with obs.alloc_scope("csr", "hybrid.residency"):
            for chunk in resident:
                residency.append(
                    device.h2d(
                        graph.indices[chunk.edge_start : chunk.edge_stop]
                    )
                )
                if graph.weights is not None:
                    residency.append(
                        device.h2d(
                            graph.weights[chunk.edge_start : chunk.edge_stop]
                        )
                    )
        prev_changed: Optional[np.ndarray] = state["prev_changed"]
        # The affected set seeding a sparse iteration 1 (already coerced;
        # None past iteration 1 or for plain cold/warm-dense runs).
        initial: Optional[np.ndarray] = state["initial_frontier"]

        def step(iteration: int, labels: np.ndarray) -> driver.Step:
            nonlocal prev_changed
            kernel_before = device.kernel_seconds
            transfer_before = device.transfer_seconds
            counters_before = device.counters.copy()

            picked = program.pick_labels(graph, labels, iteration)

            # Host -> device: ship the labels that changed last round
            # ((id, label) int32 pairs — a stream, not an allocation).
            # An incremental start only ships the affected set's labels.
            if iteration == 1:
                up_count = (
                    int(initial.size)
                    if initial is not None
                    else graph.num_vertices
                )
            else:
                up_count = int(prev_changed.size)
            if up_count:
                with obs.alloc_scope("exchange", "hybrid.label-deltas"):
                    device.stream_to_device(2 * up_count * 4)

            best_labels = picked.astype(LABEL_DTYPE, copy=True)
            best_scores = np.full(
                graph.num_vertices, NO_SCORE, dtype=WEIGHT_DTYPE
            )

            # The active frontier (sorted unique out-neighbors of last
            # round's changed vertices — or the caller's affected set
            # at an incremental iteration 1), computed once per
            # iteration on the host and sliced by both execution shares.
            frontier_candidates = None
            incremental_start = initial is not None and iteration == 1
            if program.frontier_safe and iteration > 1:
                frontier_candidates = self._changed_out_neighbors(
                    graph, prev_changed
                )
            elif incremental_start:
                frontier_candidates = initial
            if frontier_candidates is not None:
                frontier_candidates = prune_pinned(
                    frontier_candidates, pinned
                )

            # GPU: resident vertex ranges through the normal kernels —
            # sparsified to the active frontier when tracking is on.
            processed_vertices = 0
            processed_edges = 0
            sparse = False
            if resident:
                vertices = resident_vertices
                if track_frontier and frontier_candidates is not None:
                    frontier_slice = self._resident_frontier(
                        frontier_candidates, resident_vertices
                    )
                    sparse = use_sparse_pass(
                        self.frontier,
                        frontier_slice.size,
                        resident_vertices.size,
                    )
                    if sparse:
                        vertices = frontier_slice
                        # The host computed the frontier; ship the ids
                        # of the resident slice to the device.
                        if vertices.size:
                            with obs.alloc_scope(
                                "exchange", "hybrid.frontier-ids"
                            ):
                                device.stream_to_device(vertices.size * 8)
                if vertices.size:
                    ctx = KernelContext(
                        device=device,
                        graph=graph,
                        current_labels=picked,
                        program=program,
                        config=self.config,
                    )
                    if sparse:
                        result = propagate_pass(ctx, vertices)
                    else:
                        result = propagate_pass(
                            ctx, vertices, bins=resident_bins
                        )
                    best_labels[result.vertices] = result.best_labels
                    best_scores[result.vertices] = result.best_scores
                    processed_vertices += int(result.vertices.size)
                    processed_edges += int(
                        graph.degrees[result.vertices].sum()
                    )

            # CPU: overflow ranges, frontier-sparsified when safe.
            cpu_seconds = 0.0
            if overflow:
                active = self._overflow_active(
                    graph,
                    program,
                    frontier_candidates,
                    overflow_start,
                    iteration,
                    incremental=incremental_start,
                )
                if active.size:
                    batch = mfl.expand_edges(graph, active)
                    groups = mfl.aggregate_label_frequencies(
                        program, batch, picked
                    )
                    o_labels, o_scores = mfl.select_best_labels(
                        program, groups, active, picked
                    )
                    best_labels[active] = o_labels
                    best_scores[active] = o_scores
                    cpu_seconds = (
                        batch.num_edges / self._cpu_rate()
                        + self.cpu_spec.sync_seconds
                    )
                    processed_vertices += int(active.size)
                    processed_edges += int(batch.num_edges)

            all_vertices = np.arange(graph.num_vertices, dtype=np.int64)
            new_labels = program.update_vertices(
                all_vertices, best_labels, best_scores, labels
            )
            changed_mask = new_labels != labels
            prev_changed = np.flatnonzero(changed_mask)

            # Device -> host: the winners that moved.
            if prev_changed.size:
                with obs.alloc_scope("exchange", "hybrid.label-deltas"):
                    device.stream_to_host(2 * prev_changed.size * 4)

            kernel_delta = device.kernel_seconds - kernel_before
            transfer_delta = device.transfer_seconds - transfer_before
            m = obs.metrics()
            if m is not None:
                m.observe("hybrid_cpu_seconds", cpu_seconds, engine=self.name)
            return driver.Step(
                new_labels,
                changed_mask,
                stats=dict(
                    # GPU and CPU shares run concurrently.
                    seconds=max(kernel_delta, cpu_seconds) + transfer_delta,
                    kernel_seconds=kernel_delta,
                    transfer_seconds=transfer_delta,
                    counters=device.counters.delta_since(counters_before),
                    kernel_stats={
                        "pass_mode": "sparse" if sparse else "dense",
                        # Kept per-iteration (not a running total) so a
                        # fault-retried iteration never double-counts.
                        "cpu_seconds": cpu_seconds,
                    },
                    frontier_size=processed_vertices,
                    processed_edges=processed_edges,
                ),
                trace_args={"cpu_seconds": cpu_seconds},
            )

        def finish(iterations: List[IterationStats]) -> Optional[np.ndarray]:
            self.last_stats = HybridStats(
                num_chunks=len(chunks),
                num_resident_chunks=len(resident),
                resident_edge_fraction=(
                    resident_edges / graph.num_edges
                    if graph.num_edges
                    else 1.0
                ),
                h2d_bytes=device.counters.h2d_bytes,
                visible_transfer_seconds=sum(
                    stats.transfer_seconds for stats in iterations
                ),
                kernel_seconds=sum(
                    stats.kernel_seconds for stats in iterations
                ),
                cpu_seconds=sum(
                    stats.kernel_stats.get("cpu_seconds", 0.0)
                    for stats in iterations
                ),
                elapsed_seconds=sum(stats.seconds for stats in iterations),
            )
            m = obs.metrics()
            if m is not None:
                m.set_gauge(
                    "hybrid_resident_edge_fraction",
                    self.last_stats.resident_edge_fraction,
                    engine=self.name,
                )
                m.set_gauge(
                    "hybrid_transfer_fraction",
                    self.last_stats.transfer_fraction,
                    engine=self.name,
                )
            # The residual frontier: out-neighbors of the final round's
            # changed vertices (host-side, like every hybrid frontier).
            if not track_frontier:
                return None
            return prune_pinned(
                self._changed_out_neighbors(graph, prev_changed), pinned
            )

        return driver.Attempt(
            step=step,
            carry=lambda iteration: {
                "prev_changed": prev_changed,
                "initial_frontier": initial if iteration == 1 else None,
            },
            finish=finish,
        )

    # ------------------------------------------------------------------
    def _overflow_active(
        self,
        graph: CSRGraph,
        program: LPProgram,
        frontier_candidates: Optional[np.ndarray],
        overflow_start: int,
        iteration: int,
        *,
        incremental: bool = False,
    ) -> np.ndarray:
        """Overflow vertices the CPU must recompute this iteration.

        ``incremental`` marks a seeded sparse iteration 1: the caller's
        affected set replaces the mandatory dense first pass, so the CPU
        share sparsifies from the start instead of sweeping the whole
        overflow range.
        """
        if (iteration == 1 and not incremental) or not program.frontier_safe:
            return np.arange(
                overflow_start, graph.num_vertices, dtype=np.int64
            )
        if frontier_candidates is None:
            return np.empty(0, dtype=np.int64)
        return frontier_candidates[frontier_candidates >= overflow_start]

    # ------------------------------------------------------------------
    @staticmethod
    def _changed_out_neighbors(
        graph: CSRGraph, changed: Optional[np.ndarray]
    ) -> np.ndarray:
        """Sorted unique out-neighbors of ``changed`` (the next frontier)."""
        if changed is None or changed.size == 0:
            return np.empty(0, dtype=np.int64)
        batch = mfl.expand_edges(graph.reversed(), changed)
        return bitmap_unique(batch.neighbor_ids, graph.num_vertices)

    @staticmethod
    def _resident_frontier(
        frontier_candidates: Optional[np.ndarray],
        resident_vertices: np.ndarray,
    ) -> np.ndarray:
        """Resident-range slice of the active frontier."""
        if frontier_candidates is None or frontier_candidates.size == 0:
            return np.empty(0, dtype=np.int64)
        lo = np.searchsorted(
            frontier_candidates, resident_vertices[0], side="left"
        )
        hi = np.searchsorted(
            frontier_candidates, resident_vertices[-1], side="right"
        )
        return frontier_candidates[lo:hi]


def device_footprint(
    graph: CSRGraph,
    program: Optional[LPProgram] = None,
    *,
    frontier: "FrontierConfig | str" = "dense",
) -> int:
    """Bytes :class:`GLPEngine` actually makes device-resident for ``graph``.

    Mirrors the engine's residency list: the CSR arrays plus *both*
    double-buffered label arrays, and — when frontier execution applies
    (mode enabled and the program ``frontier_safe``) — the reversed CSR
    and the one-byte-per-vertex frontier bitmap.
    """
    mode = resolve_frontier(frontier)
    needed = graph.nbytes + 2 * graph.num_vertices * ELEM_BYTES
    if mode.enabled and (program is None or program.frontier_safe):
        # The reversed CSR has the same offsets/indices volume as the
        # forward CSR (weights are not uploaded for it).
        needed += graph.offsets.nbytes + graph.indices.nbytes
        needed += graph.num_vertices  # uint8 frontier bitmap
    return needed


def _record_degradation(source: str, target: str, fault: Exception) -> None:
    kind = getattr(fault, "kind", "oom")
    m = obs.metrics()
    if m is not None:
        m.inc(
            "resilience_degradations_total",
            source=source,
            target=target,
            kind=kind,
        )
    obs.emit(
        "resilience.degradation",
        source=source,
        target=target,
        kind=kind,
        error=type(fault).__name__,
    )
    # A ladder step means the configured engine could not hold the run —
    # capture the post-mortem while the causal chain is still in the ring.
    obs.flight_dump("degradation", source=source, target=target, kind=kind)


#: run kwargs understood by the CPU engines (the resilience options and
#: anything device-specific are GPU-engine-only and must not be forwarded).
_CPU_RUN_KWARGS = ("max_iterations", "record_history", "stop_on_convergence")


def run_auto(
    graph: CSRGraph,
    program: LPProgram,
    *,
    spec: DeviceSpec = TITAN_V,
    config: StrategyConfig = GLP_DEFAULT,
    frontier: "FrontierConfig | str" = "dense",
    degrade: bool = True,
    **run_kwargs,
):
    """Pick an engine by device footprint, degrading on device failure.

    The ladder is GPU -> hybrid -> CPU: the all-resident
    :class:`~repro.core.framework.GLPEngine` is chosen when the graph's
    *actual* residency (see :func:`device_footprint`) fits, the
    :class:`HybridEngine` when it does not, and on device OOM or an
    unrecovered :class:`~repro.errors.DeviceFault` the run steps down to
    the next rung (ultimately ``baselines.cpu_serial.SerialEngine``,
    which needs no device at all).  Set ``degrade=False`` to restore the
    raise-on-failure behavior.

    Returns ``(result, engine)`` — the engine exposes mode-specific stats
    (e.g. ``HybridEngine.last_stats``).
    """
    from repro.baselines.cpu_serial import SerialEngine
    from repro.core.framework import GLPEngine

    needed = device_footprint(graph, program, frontier=frontier)
    if needed <= spec.global_mem_bytes * MEMORY_SAFETY:
        engine = GLPEngine(spec=spec, config=config, frontier=frontier)
        try:
            return engine.run(graph, program, **run_kwargs), engine
        except (OutOfDeviceMemoryError, DeviceFault) as fault:
            if not degrade:
                raise
            _record_degradation(engine.name, HybridEngine.name, fault)

    engine = HybridEngine(spec=spec, config=config, frontier=frontier)
    try:
        return engine.run(graph, program, **run_kwargs), engine
    except (OutOfDeviceMemoryError, DeviceFault) as fault:
        if not degrade:
            raise
        _record_degradation(engine.name, SerialEngine.name, fault)

    engine = SerialEngine()
    cpu_kwargs = {
        key: value
        for key, value in run_kwargs.items()
        if key in _CPU_RUN_KWARGS
    }
    return engine.run(graph, program, **cpu_kwargs), engine
