"""Multi-GPU execution (Section 5.4's two-GPU experiment).

Vertices are split into near-equal-edge contiguous ranges, one per device.
Each iteration every device runs the degree-binned kernels over its own
range in parallel; the iteration's kernel time is the *maximum* over
devices (bulk-synchronous).  Afterwards the devices exchange the labels
their partitions updated (peer-to-peer over PCIe), which is the scaling tax
that turns 2 GPUs into ~1.8x rather than 2x.

**Frontier execution.**  With ``frontier="frontier"``/``"auto"`` and a
``frontier_safe`` program, each device tracks its *own partition's* active
frontier: it expands its local changed vertices through the reversed CSR,
keeps the frontier candidates that fall inside its range, and ships the
remote candidates to the owning peers — that frontier exchange is counted
as inter-GPU traffic on top of the label exchange.  The direction-
optimizing switch is made globally (bulk-synchronous rounds must agree on
the pass shape), using the total frontier fraction.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.core import driver
from repro.core.api import LPProgram
from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.graph.partition import balanced_edge_partition
from repro.gpusim import hooks
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import Device
from repro.gpusim.timing import transfer_time
from repro.kernels.base import ELEM_BYTES, GLP_DEFAULT, KernelContext, StrategyConfig
from repro.kernels.frontier import (
    FrontierConfig,
    compact_frontier,
    expand_frontier,
    prune_pinned,
    resolve_frontier,
    use_sparse_pass,
)
from repro.kernels.mfl import NO_SCORE
from repro.kernels.propagate import propagate_pass
from repro.kernels.scheduler import bin_vertices_by_degree
from repro.types import LABEL_DTYPE, WEIGHT_DTYPE


class MultiGPUEngine:
    """Bulk-synchronous LP over several simulated GPUs."""

    #: Accepts ``initial_frontier=``/``warm_labels=`` for incremental
    #: window slides (see :mod:`repro.pipeline.dynlp`).
    supports_incremental = True
    #: Accepts ``retry_policy``/``checkpoint_dir``/``resume_from``
    #: (see ``docs/resilience.md``); CPU baselines do not.
    supports_recovery = True

    def __init__(
        self,
        num_gpus: int = 2,
        *,
        config: StrategyConfig = GLP_DEFAULT,
        spec: DeviceSpec = TITAN_V,
        frontier: "FrontierConfig | str" = "dense",
    ) -> None:
        if num_gpus <= 0:
            raise ConvergenceError("num_gpus must be positive")
        self.devices = [Device(spec, index=i) for i in range(num_gpus)]
        self.config = config
        self.frontier = resolve_frontier(frontier)
        self.name = f"GLP-{num_gpus}GPU"

    @property
    def num_gpus(self) -> int:
        return len(self.devices)

    # ------------------------------------------------------------------
    run = driver.run
    run_event = "multigpu-run"
    carry_keys = ("part_frontiers", "initial_frontier")

    def _attempt(
        self, graph: CSRGraph, program: LPProgram, state: dict, residency: list
    ) -> driver.Attempt:
        """Partitioning and per-iteration step for one attempt (see driver).

        The checkpoint carry is the per-partition frontier lists, so a
        resumed sparse round re-executes on every device exactly as the
        uninterrupted run would have.
        """
        parts = balanced_edge_partition(graph, self.num_gpus)
        track_frontier = self.frontier.enabled and program.frontier_safe
        reversed_graph = graph.reversed() if track_frontier else None
        # Pinned vertices never change; prune them from sparse frontiers.
        pinned = (
            driver.resolve_pinned(program, graph) if track_frontier else None
        )

        # Per-partition vertex ranges and their memoized degree bins
        # (degrees are static, so dense rounds never re-bin).
        part_vertices = [
            np.arange(part.start, part.stop, dtype=np.int64) for part in parts
        ]
        part_bins = [
            bin_vertices_by_degree(
                graph,
                low_threshold=self.config.low_threshold,
                high_threshold=self.config.high_threshold,
                vertices=vertices,
            )
            if vertices.size
            else None
            for vertices in part_vertices
        ]
        # Per-partition active frontier; None means "dense round".
        part_frontiers: Optional[List[np.ndarray]] = state["part_frontiers"]

        # Incremental start: split the caller's affected set by vertex
        # ownership so iteration 1 runs sparse on every device.  Once the
        # loop checkpoints, ``part_frontiers`` carries the split and a
        # restore re-seeds it without consulting ``initial_frontier``.
        initial: Optional[np.ndarray] = state["initial_frontier"]
        if (
            track_frontier
            and part_frontiers is None
            and initial is not None
            and int(state["iteration"]) == 1
        ):
            initial = prune_pinned(initial, pinned)
            part_frontiers = [
                initial[(initial >= part.start) & (initial < part.stop)]
                for part in parts
            ]

        def step(iteration: int, labels: np.ndarray) -> driver.Step:
            nonlocal part_frontiers
            picked = program.pick_labels(graph, labels, iteration)
            best_labels = picked.astype(LABEL_DTYPE, copy=True)
            best_scores = np.full(
                graph.num_vertices, NO_SCORE, dtype=WEIGHT_DTYPE
            )
            device_seconds = []
            counters_total = PerfCounters()

            sparse = (
                track_frontier
                and part_frontiers is not None
                and use_sparse_pass(
                    self.frontier,
                    sum(f.size for f in part_frontiers),
                    graph.num_vertices,
                )
            )

            processed_vertices = 0
            processed_edges = 0
            for i, (device, part) in enumerate(zip(self.devices, parts)):
                kernel_before = device.kernel_seconds
                counters_before = device.counters.copy()
                vertices = part_frontiers[i] if sparse else part_vertices[i]
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
                            ctx, vertices, bins=part_bins[i]
                        )
                    best_labels[result.vertices] = result.best_labels
                    best_scores[result.vertices] = result.best_scores
                    processed_vertices += int(result.vertices.size)
                    processed_edges += int(
                        graph.degrees[result.vertices].sum()
                    )
                device_seconds.append(device.kernel_seconds - kernel_before)
                counters_total.add(
                    device.counters.delta_since(counters_before)
                )

            processed = (
                np.concatenate(part_frontiers)
                if sparse
                else np.arange(graph.num_vertices, dtype=np.int64)
            )
            new_labels = program.update_vertices(
                processed,
                best_labels[processed],
                best_scores[processed],
                labels,
            )

            # Label exchange: each device broadcasts the *changed* labels
            # of its partition to the peers ((id, label) pairs over PCIe
            # peer copies; peers upload concurrently, so the per-iteration
            # cost is the busiest device's share).
            changed_mask = new_labels != labels
            exchange_seconds = 0.0
            exchange_bytes = 0
            if self.num_gpus > 1:
                per_part_changed = [
                    int(np.count_nonzero(changed_mask[part.start : part.stop]))
                    for part in parts
                ]
                max_changed = max(per_part_changed) if per_part_changed else 0
                exchange_seconds = transfer_time(
                    max_changed * 8, self.devices[0].spec
                ) * (self.num_gpus - 1)
                exchange_bytes += (
                    sum(per_part_changed) * 8 * (self.num_gpus - 1)
                )

            # Frontier advance: each device expands its own changed range
            # and ships remote frontier candidates to the owning peer —
            # counted as additional inter-GPU traffic.
            if track_frontier:
                part_frontiers = []
                remote_candidate_counts = []
                boundaries = np.array(
                    [part.start for part in parts] + [graph.num_vertices],
                    dtype=np.int64,
                )
                incoming: List[List[np.ndarray]] = [
                    [] for _ in range(self.num_gpus)
                ]
                for i, (device, part) in enumerate(zip(self.devices, parts)):
                    local_changed = np.flatnonzero(
                        changed_mask[part.start : part.stop]
                    ) + part.start
                    candidates = expand_frontier(
                        device, reversed_graph, local_changed
                    )
                    owners = (
                        np.searchsorted(boundaries, candidates, side="right")
                        - 1
                    )
                    remote = candidates[owners != i]
                    remote_candidate_counts.append(int(remote.size))
                    for j in range(self.num_gpus):
                        chunk = candidates[owners == j]
                        if chunk.size:
                            incoming[j].append(chunk)
                if self.num_gpus > 1 and remote_candidate_counts:
                    exchange_seconds += transfer_time(
                        max(remote_candidate_counts) * ELEM_BYTES,
                        self.devices[0].spec,
                    ) * (self.num_gpus - 1)
                    exchange_bytes += sum(remote_candidate_counts) * ELEM_BYTES
                for i, device in enumerate(self.devices):
                    merged = (
                        np.unique(np.concatenate(incoming[i]))
                        if incoming[i]
                        else np.empty(0, dtype=np.int64)
                    )
                    part_frontiers.append(
                        prune_pinned(
                            compact_frontier(
                                device, graph.num_vertices, merged
                            ),
                            pinned,
                        )
                    )

            # The exchange is modeled straight on the transfer clock (no
            # DeviceArray ever exists), so the memory tracker is told
            # about the traffic explicitly.
            tracker = hooks.memory()
            if tracker is not None and exchange_bytes:
                tracker.on_exchange(
                    self.devices[0], exchange_bytes, exchange_seconds
                )
            m = obs.metrics()
            if m is not None:
                m.inc(
                    "multigpu_exchange_bytes_total",
                    exchange_bytes,
                    engine=self.name,
                )
                m.observe(
                    "multigpu_exchange_seconds",
                    exchange_seconds,
                    engine=self.name,
                )
            return driver.Step(
                new_labels,
                changed_mask,
                stats=dict(
                    seconds=max(device_seconds) + exchange_seconds,
                    kernel_seconds=max(device_seconds),
                    transfer_seconds=exchange_seconds,
                    counters=counters_total,
                    kernel_stats={"pass_mode": "sparse" if sparse else "dense"},
                    frontier_size=processed_vertices,
                    processed_edges=processed_edges,
                ),
                trace_args={"exchange_bytes": exchange_bytes},
            )

        def finish(iterations) -> Optional[np.ndarray]:
            # Partition frontiers are disjoint (owner-assigned), so the
            # residual frontier is just their sorted union.
            if not track_frontier or part_frontiers is None:
                return None
            return np.unique(np.concatenate(part_frontiers))

        return driver.Attempt(
            step=step,
            carry=lambda iteration: {"part_frontiers": part_frontiers},
            finish=finish,
        )
