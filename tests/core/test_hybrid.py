"""Tests for the CPU-GPU hybrid engine."""

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, SeededFraudLP
from repro.core.hybrid import HybridEngine, run_auto
from repro.errors import OutOfDeviceMemoryError
from repro.gpusim.config import TITAN_V


def small_spec_for(graph, fraction):
    """A device sized so only ``fraction`` of the edges can stay resident.

    Accounts for the engine's label-array overhead and safety margin so the
    residency split lands near ``fraction`` even for tiny test graphs.
    """
    label_bytes = (graph.num_vertices + 1) * 8
    budget = 4 * label_bytes + int(graph.indices.nbytes * fraction)
    return TITAN_V.with_memory(int(budget / 0.9) + 1024)


class TestHybridCorrectness:
    def test_matches_pure_gpu_engine(self, powerlaw_graph):
        pure = GLPEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=8,
            stop_on_convergence=False,
        )
        hybrid = HybridEngine(
            spec=small_spec_for(powerlaw_graph, 0.5)
        ).run(
            powerlaw_graph, ClassicLP(), max_iterations=8,
            stop_on_convergence=False,
        )
        assert np.array_equal(pure.labels, hybrid.labels)

    def test_matches_with_seeded_program(self, community_graph):
        graph, truth = community_graph
        seeds = {0: 100, 50: 200, 99: 300}
        pure = GLPEngine().run(
            graph, SeededFraudLP(seeds), max_iterations=10,
            stop_on_convergence=False,
        )
        hybrid = HybridEngine(spec=small_spec_for(graph, 0.4)).run(
            graph, SeededFraudLP(seeds), max_iterations=10,
            stop_on_convergence=False,
        )
        assert np.array_equal(pure.labels, hybrid.labels)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_any_residency_split_is_exact(self, powerlaw_graph, fraction):
        reference = GLPEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=6,
            stop_on_convergence=False,
        )
        hybrid = HybridEngine(
            spec=small_spec_for(powerlaw_graph, fraction)
        ).run(
            powerlaw_graph, ClassicLP(), max_iterations=6,
            stop_on_convergence=False,
        )
        assert np.array_equal(reference.labels, hybrid.labels)

    def test_too_small_device_raises(self, powerlaw_graph):
        engine = HybridEngine(spec=TITAN_V.with_memory(1024))
        with pytest.raises(OutOfDeviceMemoryError):
            engine.run(powerlaw_graph, ClassicLP(), max_iterations=2)


class TestHybridStats:
    def test_stats_populated(self, powerlaw_graph):
        engine = HybridEngine(spec=small_spec_for(powerlaw_graph, 0.5))
        engine.run(
            powerlaw_graph, ClassicLP(), max_iterations=5,
            stop_on_convergence=False,
        )
        stats = engine.last_stats
        assert stats is not None
        assert 0 < stats.num_resident_chunks <= stats.num_chunks
        assert 0.0 < stats.resident_edge_fraction < 1.0
        assert stats.kernel_seconds > 0
        assert 0.0 <= stats.transfer_fraction < 1.0

    def test_full_residency_when_graph_fits(self, two_cliques_graph):
        engine = HybridEngine(spec=TITAN_V)
        engine.run(two_cliques_graph, ClassicLP(), max_iterations=3)
        assert engine.last_stats.resident_edge_fraction == 1.0
        assert engine.last_stats.cpu_seconds == 0.0

    def test_frontier_shrinks_cpu_share(self, community_graph):
        """After convergence sets in, the CPU's overflow share collapses
        for frontier-safe programs."""
        graph, _ = community_graph
        engine = HybridEngine(spec=small_spec_for(graph, 0.4))
        result = engine.run(
            graph, ClassicLP(), max_iterations=15,
            stop_on_convergence=False,
        )
        # Changed-vertex counts decay; late iterations are cheap.
        changes = [s.changed_vertices for s in result.iterations]
        assert changes[-1] < changes[0]

    def test_device_memory_released(self, powerlaw_graph):
        engine = HybridEngine(spec=small_spec_for(powerlaw_graph, 0.5))
        engine.run(powerlaw_graph, ClassicLP(), max_iterations=3)
        assert engine.device.allocated_bytes == 0


class TestRunAuto:
    def test_small_graph_uses_pure_engine(self, two_cliques_graph):
        result, engine = run_auto(
            two_cliques_graph, ClassicLP(), max_iterations=5
        )
        assert isinstance(engine, GLPEngine)
        assert result.num_iterations >= 1

    def test_oversized_graph_uses_hybrid(self, powerlaw_graph):
        result, engine = run_auto(
            powerlaw_graph,
            ClassicLP(),
            spec=small_spec_for(powerlaw_graph, 0.5),
            max_iterations=5,
            stop_on_convergence=False,
        )
        assert isinstance(engine, HybridEngine)
        reference = GLPEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=5,
            stop_on_convergence=False,
        )
        assert np.array_equal(result.labels, reference.labels)


class TestTransferFractionDenominator:
    """Regression: the fraction's denominator is the modeled *elapsed*
    time (``max(kernel, cpu) + transfer`` per iteration), not the serial
    sum ``kernel + cpu + transfer`` — GPU and CPU shares overlap, so the
    old sum overstated the run time and understated the fraction."""

    def test_constructed_stats_use_elapsed(self):
        from repro.core.hybrid import HybridStats

        stats = HybridStats(
            num_chunks=2,
            num_resident_chunks=1,
            resident_edge_fraction=0.5,
            h2d_bytes=0,
            visible_transfer_seconds=1.0,
            kernel_seconds=4.0,
            cpu_seconds=3.0,
            elapsed_seconds=5.0,  # max(4, 3) + 1 per the overlap model
        )
        assert stats.transfer_fraction == pytest.approx(1.0 / 5.0)
        # The pre-fix value, for the record: 1 / (4 + 3 + 1) = 0.125.
        assert stats.transfer_fraction > 1.0 / 8.0
        zero = HybridStats(
            num_chunks=1, num_resident_chunks=1,
            resident_edge_fraction=1.0, h2d_bytes=0,
            visible_transfer_seconds=0.0, kernel_seconds=0.0,
            cpu_seconds=0.0, elapsed_seconds=0.0,
        )
        assert zero.transfer_fraction == 0.0

    def test_engine_stats_tie_out_to_iterations(self, powerlaw_graph):
        engine = HybridEngine(spec=small_spec_for(powerlaw_graph, 0.5))
        result = engine.run(
            powerlaw_graph, ClassicLP(), max_iterations=5,
            stop_on_convergence=False,
        )
        stats = engine.last_stats
        assert stats.cpu_seconds > 0  # the split really overflowed
        assert stats.elapsed_seconds == pytest.approx(result.total_seconds)
        assert stats.transfer_fraction == pytest.approx(
            stats.visible_transfer_seconds / stats.elapsed_seconds
        )
        # Overlap: elapsed is strictly less than the serial sum the old
        # denominator used.
        serial_sum = (
            stats.kernel_seconds
            + stats.cpu_seconds
            + stats.visible_transfer_seconds
        )
        assert stats.elapsed_seconds < serial_sum
