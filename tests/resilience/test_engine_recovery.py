"""Resume-identity: recovered runs are bitwise identical.

These tests pin down the resilience tentpole's core guarantee — a run
that hit an injected device fault and recovered (in-place retry or
checkpoint resume) finishes with exactly the labels an uninterrupted run
produces, across classic/seeded programs, dense/frontier execution and
all three device engines.  The engines share one driver
(``repro.core.driver``); each test walks every engine in turn, so one
test ID covers all three.
"""

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, SeededFraudLP
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.errors import KernelAbortFault
from repro.graph.generators import planted_partition_graph
from repro.resilience import (
    FaultPlan,
    RetryPolicy,
    count_events,
    inject,
)
from tests.core.test_hybrid import small_spec_for

SEEDS = {0: 101, 40: 202, 120: 303}


@pytest.fixture(scope="module")
def graph():
    graph, _ = planted_partition_graph(240, 6, 8.0, 0.9, seed=7)
    return graph


def make_program(kind):
    return ClassicLP() if kind == "classic" else SeededFraudLP(dict(SEEDS))


def device_engines(graph):
    """Engine factories, ``make(frontier)``, for the three device engines.

    The hybrid device holds half the edges (the rest run on the CPU
    share); the multi-GPU engine splits the graph over two devices.
    """
    spec = small_spec_for(graph, 0.5)
    return {
        "glp": lambda frontier="dense": GLPEngine(frontier=frontier),
        "hybrid": lambda frontier="dense": HybridEngine(
            spec=spec, frontier=frontier
        ),
        "multigpu": lambda frontier="dense": MultiGPUEngine(
            2, frontier=frontier
        ),
    }


#: Device event stream each injected fault kind fires on.
FAULT_STREAMS = {"transfer": "transfer", "kernel": "launch", "ecc": "launch"}


def event_total(engine, graph, program, kind, **run_kwargs):
    """Events on ``kind``'s stream over a clean run of this workload."""
    with count_events() as counter:
        engine.run(graph, program, **run_kwargs)
    return counter.counts[FAULT_STREAMS[kind]]


def mid_run_plan(engine, graph, program, kind, **run_kwargs):
    """A plan firing ``kind`` halfway through this workload's stream."""
    total = event_total(engine, graph, program, kind, **run_kwargs)
    assert total > 1, f"workload has no {FAULT_STREAMS[kind]} events to fault"
    return FaultPlan.parse(f"{kind}@{max(2, total // 2)}")


class TestFaultFreeIdentity:
    def test_recovery_layer_off_vs_on(self, graph):
        for name, make in device_engines(graph).items():
            bare = make().run(graph, ClassicLP(), max_iterations=8)
            guarded = make().run(
                graph, ClassicLP(), max_iterations=8,
                retry_policy=RetryPolicy(),
            )
            assert bare.labels_hash() == guarded.labels_hash(), name
            assert bare.total_seconds == guarded.total_seconds, name
            assert bare.num_iterations == guarded.num_iterations, name


class TestRecoveredRunIdentity:
    @pytest.mark.parametrize("program_kind", ["classic", "seeded"])
    @pytest.mark.parametrize("frontier", ["dense", "auto"])
    @pytest.mark.parametrize("fault", ["transfer", "kernel", "ecc"])
    def test_glp_identity(self, graph, program_kind, frontier, fault):
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        for name, make in device_engines(graph).items():
            if name == "multigpu" and fault == "transfer":
                continue  # peer exchange is modeled, never a device copy
            reference = make(frontier).run(
                graph, make_program(program_kind), **kwargs
            )
            plan = mid_run_plan(
                make(frontier), graph,
                make_program(program_kind), fault, **kwargs
            )
            with inject(plan) as injector:
                recovered = make(frontier).run(
                    graph, make_program(program_kind),
                    retry_policy=RetryPolicy(), **kwargs
                )
            assert len(injector.events) == 1, name
            assert recovered.labels_hash() == reference.labels_hash(), name
            assert recovered.num_iterations == reference.num_iterations, name

    def test_glp_recovery_history_not_duplicated(self, graph):
        kwargs = dict(
            max_iterations=8, stop_on_convergence=False,
            record_history=True,
        )
        for name, make in device_engines(graph).items():
            reference = make().run(graph, ClassicLP(), **kwargs)
            plan = mid_run_plan(
                make(), graph, ClassicLP(), "kernel", **kwargs
            )
            with inject(plan):
                recovered = make().run(
                    graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
                )
            assert len(recovered.iterations) == len(reference.iterations), name
            assert len(recovered.history) == len(reference.history), name
            for ref, rec in zip(reference.history, recovered.history):
                assert np.array_equal(ref, rec), name

    def test_hybrid_identity(self, graph):
        spec = small_spec_for(graph, 0.5)
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        reference = HybridEngine(spec=spec).run(
            graph, ClassicLP(), **kwargs
        )
        plan = mid_run_plan(
            HybridEngine(spec=spec), graph, ClassicLP(), "kernel", **kwargs
        )
        with inject(plan) as injector:
            engine = HybridEngine(spec=spec)
            recovered = engine.run(
                graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
            )
        assert len(injector.events) == 1
        assert recovered.labels_hash() == reference.labels_hash()
        # Retry-safe accounting: totals recomputed from surviving
        # iterations, never double-counted across attempts.
        stats = engine.last_stats
        assert stats.elapsed_seconds == pytest.approx(
            sum(s.seconds for s in recovered.iterations)
        )

    def test_multigpu_identity(self, graph):
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        reference = MultiGPUEngine(2).run(graph, ClassicLP(), **kwargs)
        plan = mid_run_plan(
            MultiGPUEngine(2), graph, ClassicLP(), "kernel", **kwargs
        )
        with inject(plan) as injector:
            recovered = MultiGPUEngine(2).run(
                graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
            )
        assert len(injector.events) == 1
        assert recovered.labels_hash() == reference.labels_hash()


def persistent_mid_run_fault(engine, graph, **run_kwargs):
    """A kernel fault from mid-run on, repeating far past any retry budget
    — it kills the run like a pulled power cord."""
    total = event_total(engine, graph, ClassicLP(), "kernel", **run_kwargs)
    return FaultPlan.parse(f"kernel@{max(2, total // 2)}x99")


class TestCheckpointResume:
    def test_exhausted_retries_leave_resumable_checkpoint(
        self, graph, tmp_path
    ):
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        for name, make in device_engines(graph).items():
            ckpt_dir = tmp_path / name
            reference = make().run(graph, ClassicLP(), **kwargs)
            with inject(persistent_mid_run_fault(make(), graph, **kwargs)):
                with pytest.raises(KernelAbortFault):
                    make().run(
                        graph, ClassicLP(),
                        retry_policy=RetryPolicy(max_retries=2),
                        checkpoint_dir=str(ckpt_dir),
                        **kwargs,
                    )
            assert list(ckpt_dir.glob("*.ckpt")), f"{name}: no checkpoint"

            resumed = make().run(
                graph, ClassicLP(), resume_from=str(ckpt_dir), **kwargs
            )
            assert resumed.labels_hash() == reference.labels_hash(), name

    def test_resume_skips_completed_iterations(self, graph, tmp_path):
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        for name, make in device_engines(graph).items():
            ckpt_dir = tmp_path / name
            with inject(persistent_mid_run_fault(make(), graph, **kwargs)):
                with pytest.raises(KernelAbortFault):
                    make().run(
                        graph, ClassicLP(),
                        retry_policy=RetryPolicy(max_retries=0),
                        checkpoint_dir=str(ckpt_dir),
                        **kwargs,
                    )
            resumed = make().run(
                graph, ClassicLP(), resume_from=str(ckpt_dir), **kwargs
            )
            # The resumed run re-executes only from the checkpointed
            # iteration; its stats list is the tail, not all 8 rounds.
            assert resumed.num_iterations < 8, name
            assert resumed.iterations[0].iteration > 1, name
