"""Incremental re-convergence across the three device engines.

The contract under test (see ``docs/incremental_lp.md``): every engine
that advertises ``supports_incremental`` accepts an
``initial_frontier`` — the affected vertex set of a window slide — and
re-converges to the *bitwise identical* labeling of the dense warm
recompute while charging only the frontier's edges.  Pinned seed
vertices are pruned from every sparse worklist.
"""

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, LayeredLP, SeededFraudLP
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.errors import ConvergenceError, KernelError
from repro.kernels.frontier import prune_pinned
from repro.pipeline.dynlp import plan_slide
from repro.pipeline.incremental import (
    IncrementalWindowBuilder,
    warm_start_seeds,
)
from repro.pipeline.seeds import SeedStore
from repro.resilience import FaultPlan, RetryPolicy, count_events, inject
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)

ENGINE_FACTORIES = {
    "glp": lambda: GLPEngine(frontier="auto"),
    "hybrid": lambda: HybridEngine(frontier="auto"),
    "multigpu": lambda: MultiGPUEngine(2, frontier="auto"),
}


@pytest.fixture(scope="module")
def stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=800,
            num_products=400,
            num_days=12,
            transactions_per_day=400,
            num_rings=3,
            ring_size=6,
            seed=33,
        )
    )


@pytest.fixture(scope="module")
def slide(stream):
    """One warm slide: previous/current windows, diff, and seed sets."""
    builder = IncrementalWindowBuilder(stream)
    for day in range(8):
        builder.add_day(day)
    previous = builder.build()
    diff = builder.slide()
    current = builder.build()
    store = SeedStore(stream.blacklist())
    return {
        "previous": previous,
        "diff": diff,
        "current": current,
        "prev_seeds": store.window_seeds(previous),
        "base_seeds": store.window_seeds(current),
    }


def total_processed_edges(result):
    return sum(s.processed_edges for s in result.iterations)


def warm_seeds_for(slide, prev_labels):
    return warm_start_seeds(
        slide["previous"],
        prev_labels,
        slide["current"],
        slide["base_seeds"],
        carry_products=True,
    )


class TestIncrementalVsFull:
    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_bitwise_identity_with_fewer_edges(self, name, slide):
        factory = ENGINE_FACTORIES[name]
        assert factory().supports_incremental

        prev = factory().run(
            slide["previous"].graph,
            SeededFraudLP(slide["prev_seeds"]),
            max_iterations=20,
        )
        assert prev.final_frontier is not None
        seeds = warm_seeds_for(slide, prev.labels)
        plan = plan_slide(
            slide["diff"],
            slide["previous"],
            slide["current"],
            residual_frontier=prev.final_frontier,
            seeds=seeds,
            cutover_ratio=1.0,
        )
        assert plan.incremental

        full = factory().run(
            slide["current"].graph,
            SeededFraudLP(seeds),
            max_iterations=20,
        )
        inc = factory().run(
            slide["current"].graph,
            SeededFraudLP(seeds),
            max_iterations=20,
            initial_frontier=plan.frontier,
        )
        assert inc.labels_hash() == full.labels_hash()
        assert inc.converged == full.converged
        assert total_processed_edges(inc) < total_processed_edges(full)

    def test_full_vertex_superset_is_identical(self, slide):
        # Any superset of the iteration-1 changers preserves identity;
        # the whole vertex set is the extreme case.
        graph = slide["current"].graph
        seeds = slide["base_seeds"]
        full = GLPEngine(frontier="auto").run(
            graph, SeededFraudLP(seeds), max_iterations=20
        )
        superset = GLPEngine(frontier="auto").run(
            graph,
            SeededFraudLP(seeds),
            max_iterations=20,
            initial_frontier=np.arange(graph.num_vertices, dtype=np.int64),
        )
        assert superset.labels_hash() == full.labels_hash()
        assert superset.num_iterations == full.num_iterations


@pytest.fixture(scope="module")
def incremental_starts(slide):
    """Per engine: the warm seeds, the slide plan and the clean
    incremental run (with history) that faulted runs must reproduce."""
    starts = {}
    for name, factory in ENGINE_FACTORIES.items():
        prev = factory().run(
            slide["previous"].graph,
            SeededFraudLP(slide["prev_seeds"]),
            max_iterations=20,
        )
        seeds = warm_seeds_for(slide, prev.labels)
        plan = plan_slide(
            slide["diff"],
            slide["previous"],
            slide["current"],
            residual_frontier=prev.final_frontier,
            seeds=seeds,
            cutover_ratio=1.0,
        )
        assert plan.incremental
        clean = factory().run(
            slide["current"].graph,
            SeededFraudLP(seeds),
            max_iterations=20,
            initial_frontier=plan.frontier,
            record_history=True,
        )
        starts[name] = (seeds, plan, clean)
    return starts


#: Device event stream each injected fault kind fires on.
FAULT_STREAMS = {"kernel": "launch", "transfer": "transfer", "ecc": "launch"}


def iteration1_fault_grid():
    for name in sorted(ENGINE_FACTORIES):
        for kind in sorted(FAULT_STREAMS):
            # Multi-GPU peer exchange is modeled, never a device copy.
            if not (name == "multigpu" and kind == "transfer"):
                yield name, kind


class TestIncrementalRecovery:
    @pytest.mark.parametrize("name,kind", list(iteration1_fault_grid()))
    def test_iteration1_fault_restores_sparse_start(
        self, name, kind, slide, incremental_starts
    ):
        """A fault at any of the first three events of the fault's stream
        (residency uploads or iteration-1 kernels) must restore the
        sparse start, not fall back to a dense iteration 1."""
        seeds, plan, clean = incremental_starts[name]
        run_kwargs = dict(
            max_iterations=20,
            initial_frontier=plan.frontier,
            record_history=True,
        )
        with count_events() as counter:
            ENGINE_FACTORIES[name]().run(
                slide["current"].graph, SeededFraudLP(seeds), **run_kwargs
            )
        total = counter.counts[FAULT_STREAMS[kind]]
        assert total >= 1
        for index in range(1, min(3, total) + 1):
            with inject(FaultPlan.parse(f"{kind}@{index}")) as injector:
                recovered = ENGINE_FACTORIES[name]().run(
                    slide["current"].graph,
                    SeededFraudLP(seeds),
                    retry_policy=RetryPolicy(),
                    **run_kwargs,
                )
            assert len(injector.events) == 1, index
            assert recovered.labels_hash() == clean.labels_hash(), index
            assert [
                (s.kernel_stats["pass_mode"], s.processed_edges)
                for s in recovered.iterations
            ] == [
                (s.kernel_stats["pass_mode"], s.processed_edges)
                for s in clean.iterations
            ], index
            # Each iteration's seconds is a difference of the device's
            # running totals, so a retried run may differ in the last ulp.
            assert [s.seconds for s in recovered.iterations] == pytest.approx(
                [s.seconds for s in clean.iterations], rel=1e-12
            ), index
            assert len(recovered.history) == len(clean.history), index
            assert np.array_equal(
                recovered.final_frontier, clean.final_frontier
            ), index


class TestRunArguments:
    def test_empty_initial_frontier_converges_immediately(self, slide):
        result = GLPEngine(frontier="auto").run(
            slide["current"].graph,
            SeededFraudLP(slide["base_seeds"]),
            max_iterations=20,
            initial_frontier=np.empty(0, dtype=np.int64),
        )
        assert result.converged
        assert result.num_iterations == 1

    def test_unsafe_program_ignores_initial_frontier(self, slide):
        # LayeredLP is not frontier_safe: the engine must run it dense
        # (the correct superset), not crash or mislabel.
        graph = slide["current"].graph
        reference = GLPEngine(frontier="auto").run(
            graph, LayeredLP(), max_iterations=8
        )
        seeded = GLPEngine(frontier="auto").run(
            graph,
            LayeredLP(),
            max_iterations=8,
            initial_frontier=np.array([0, 1], dtype=np.int64),
        )
        assert seeded.labels_hash() == reference.labels_hash()

    def test_out_of_range_initial_frontier_rejected(self, slide):
        graph = slide["current"].graph
        with pytest.raises(KernelError):
            GLPEngine(frontier="auto").run(
                graph,
                SeededFraudLP(slide["base_seeds"]),
                initial_frontier=np.array(
                    [graph.num_vertices + 5], dtype=np.int64
                ),
            )

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_warm_labels_shape_rejected(self, name, slide):
        graph = slide["current"].graph
        with pytest.raises(ConvergenceError):
            ENGINE_FACTORIES[name]().run(
                graph,
                SeededFraudLP(slide["base_seeds"]),
                warm_labels=np.zeros(graph.num_vertices - 1, dtype=np.int64),
            )

    def test_warm_labels_resume_from_fixpoint(self, slide):
        graph = slide["current"].graph
        seeds = slide["base_seeds"]
        reference = GLPEngine(frontier="auto").run(
            graph, SeededFraudLP(seeds), max_iterations=20
        )
        assert reference.converged
        resumed = GLPEngine(frontier="auto").run(
            graph,
            SeededFraudLP(seeds),
            max_iterations=20,
            warm_labels=reference.labels,
            initial_frontier=np.empty(0, dtype=np.int64),
        )
        assert resumed.converged
        assert np.array_equal(resumed.labels, reference.labels)


class TestFinalFrontier:
    def test_frontier_run_exposes_residual(self, slide):
        result = GLPEngine(frontier="auto").run(
            slide["current"].graph,
            SeededFraudLP(slide["base_seeds"]),
            max_iterations=20,
        )
        assert isinstance(result.final_frontier, np.ndarray)

    def test_dense_run_has_no_residual(self, slide):
        result = GLPEngine().run(
            slide["current"].graph,
            SeededFraudLP(slide["base_seeds"]),
            max_iterations=20,
        )
        assert result.final_frontier is None


class TestPinnedVertices:
    def test_default_program_pins_nothing(self, slide):
        assert ClassicLP().pinned_vertices(slide["current"].graph) is None

    def test_seeded_program_pins_its_seeds(self, slide):
        seeds = slide["base_seeds"]
        program = SeededFraudLP(seeds)
        # Engines resolve the pinned set after ``init_labels`` (which is
        # where the program materializes its seed arrays).
        program.init_labels(slide["current"].graph)
        pinned = program.pinned_vertices(slide["current"].graph)
        assert np.array_equal(
            pinned, np.unique(np.array(sorted(seeds), dtype=np.int64))
        )

    def test_prune_pinned_drops_only_pinned(self):
        frontier = np.array([1, 3, 5, 7], dtype=np.int64)
        pinned = np.array([3, 7, 9], dtype=np.int64)
        assert np.array_equal(
            prune_pinned(frontier, pinned), np.array([1, 5])
        )
        assert prune_pinned(frontier, None) is frontier
        assert prune_pinned(frontier, np.empty(0, dtype=np.int64)) is frontier

    def test_residual_frontier_excludes_pinned(self, slide):
        seeds = slide["base_seeds"]
        program = SeededFraudLP(seeds)
        result = GLPEngine(frontier="auto").run(
            slide["current"].graph, program, max_iterations=20
        )
        pinned = program.pinned_vertices(slide["current"].graph)
        assert np.intersect1d(result.final_frontier, pinned).size == 0
