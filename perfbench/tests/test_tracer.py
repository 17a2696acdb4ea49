"""Self-tests of the outside-in layer tracer."""

import sys
import threading
import time
import types

import pytest

import tracer
from repro.gpusim import atomics, memory

FAKE = "repro._perfbench_tracer_test"


@pytest.fixture
def fake_module():
    """A throwaway module in the ``repro`` namespace with nested calls."""
    module = types.ModuleType(FAKE)

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer(delay):
        time.sleep(delay)
        # Through the module, as an aliased call site would.
        return module.inner(delay)

    module.inner = inner
    module.outer = outer
    sys.modules[FAKE] = module
    yield module
    del sys.modules[FAKE]


def make_tracer(*targets):
    return tracer.LayerTracer(targets)


def test_alias_sites_are_patched_hit_and_restored():
    original = memory.count_sector_transactions
    assert atomics.count_sector_transactions is original
    target = tracer.Target(
        "gpusim.count_sector_transactions",
        ("repro.gpusim.memory:count_sector_transactions",),
        frozenset({"w"}),
        (("repro.gpusim.memory", frozenset({"w"})),
         ("repro.gpusim.atomics", frozenset({"w"}))),
    )
    t = make_tracer(target)
    t.install()
    try:
        assert atomics.count_sector_transactions is not original
        assert memory.count_sector_transactions is not original
        import numpy as np

        addresses = np.arange(64, dtype=np.int64) * 4
        warps = memory.default_warp_ids(addresses.size)
        assert memory.count_sector_transactions(addresses, warps, 32) == 8
        assert t.coverage_errors("w") == [
            "gpusim.count_sector_transactions never called via "
            "repro.gpusim.atomics"
        ]
        atomics.count_sector_transactions(addresses, warps, 32)
        assert t.coverage_errors("w") == []
    finally:
        t.uninstall()
    assert memory.count_sector_transactions is original
    assert atomics.count_sector_transactions is original
    assert t.spans()["gpusim.count_sector_transactions"].calls == 2


def test_methods_are_patched_on_the_class():
    from repro.pipeline.seeds import SeedStore

    original = vars(SeedStore)["window_seeds"]
    target = tracer.Target(
        "pipeline.window_seeds", ("repro.pipeline.seeds:SeedStore.window_seeds",),
        frozenset({"w"}),
    )
    t = make_tracer(target)
    t.install()
    try:
        assert vars(SeedStore)["window_seeds"] is not original
        assert t.coverage_errors("w") == ["pipeline.window_seeds never called"]
    finally:
        t.uninstall()
    assert vars(SeedStore)["window_seeds"] is original


def test_self_time_excludes_children_per_thread(fake_module):
    t = make_tracer(
        tracer.Target("outer", (f"{FAKE}:outer",), frozenset()),
        tracer.Target("inner", (f"{FAKE}:inner",), frozenset()),
    )
    delay = 0.05
    t.install()
    try:
        # Two threads run the nested calls at the same time: with shared
        # parent stacks, one thread's child would be subtracted from the
        # other's parent.
        threads = [
            threading.Thread(target=fake_module.outer, args=(delay,))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        t.uninstall()
    spans = t.spans()
    assert spans["outer"].calls == 2 and spans["inner"].calls == 2
    for key in ("outer", "inner"):
        assert 2 * delay <= spans[key].self_time < 2 * delay + 0.05
    assert spans["outer"].busy >= 4 * delay
    assert spans["inner"].busy == pytest.approx(spans["inner"].self_time)


def test_recursion_counts_busy_once(fake_module):
    def countdown(n):
        return 0 if n == 0 else fake_module.countdown(n - 1)

    fake_module.countdown = countdown
    t = make_tracer(tracer.Target("countdown", (f"{FAKE}:countdown",), frozenset()))
    t.install()
    try:
        fake_module.countdown(5)
    finally:
        t.uninstall()
    span = t.spans()["countdown"]
    assert span.calls == 6
    assert span.self_time <= span.busy + 1e-9


def test_uninstall_fails_loudly_on_a_surviving_wrapper(fake_module):
    t = make_tracer(tracer.Target("outer", (f"{FAKE}:outer",), frozenset()))
    t.install()
    stray = fake_module.outer
    t.uninstall()
    fake_module.stray = stray
    with pytest.raises(tracer.TraceError, match="stray"):
        t.uninstall()


def test_every_declared_target_resolves():
    t = tracer.LayerTracer()
    t.install()
    try:
        errors = [e for e in t.coverage_errors("none") if "not wrapped" in e]
    finally:
        t.uninstall()
    assert errors == []
