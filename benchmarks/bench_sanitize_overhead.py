"""E15 — pricing the delta-race sanitizer and order-seed probing.

The sanitizer contract (DESIGN.md, "Static analysis & sanitizers")
has two prices to keep honest:

* **disabled** — the default ``Simulator()`` carries only one
  ``is not None`` branch per staged write and per process step; it is
  the baseline every mode here is measured against, and perfbench's
  campaign workloads run on it.
* **enabled** — instrumentation cost on a write-heavy kernel.  Opt-in
  diagnostics may cost real throughput, but the bench pins the factor
  (<= 150% CPU-time overhead, the median of 5 alternating pairs after
  an untimed warm-up) so a refactor that makes it pathological
  (per-write allocation, quadratic window) fails loudly.

Also asserted: the sanitizer is *observational* — enabling it must
not change simulation content (same final signal values); order-seed
shuffling is the one mode allowed to change behavior, on racy
platforms only.
"""

import time

from repro.analyze import SanitizeConfig
from repro.kernel import Module, Simulator

from _workloads import median_speedup

WRITERS = 8
DURATION = 8_000
#: Tripwire, not a target: the recorder touches one dict per write, so
#: anything beyond ~2.5x means the hot path grew something structural.
ENABLED_OVERHEAD_BUDGET = 1.5


class WriteStorm(Module):
    """Race-free write-heavy workload: one signal per writer, one
    write per writer per time unit."""

    def __init__(self, sim, writers=WRITERS):
        super().__init__("storm", sim=sim)
        self.lanes = [
            self.signal(f"lane{i}", 0) for i in range(writers)
        ]
        for i, lane in enumerate(self.lanes):
            self.process(self._drive(lane, i + 1), name=f"drive{i}")

    def _drive(self, lane, step):
        while True:
            lane.write(lane.read() + step)
            yield 1


def timed_run(**kernel_kwargs):
    """One write storm; returns (sim, final lane values, cpu_s)."""
    sim = Simulator(**kernel_kwargs)
    storm = WriteStorm(sim)
    start = time.process_time()
    sim.run(until=DURATION)
    cpu = time.process_time() - start
    return sim, tuple(lane.read() for lane in storm.lanes), cpu


def test_sanitizer_overhead_budget():
    # The content runs double as the untimed warm-up of each mode.
    _, base_finals, _ = timed_run()
    sim_on, on_finals, _ = timed_run(sanitize=True)
    _, order_finals, _ = timed_run(order_seed=1)
    _, both_finals, _ = timed_run(sanitize=SanitizeConfig(), order_seed=1)

    # Observational: the sanitizer changes nothing about the run.
    assert on_finals == base_finals
    assert sim_on.sanitizer.clean  # race-free workload stays clean
    # A race-free platform is order-insensitive by construction, so
    # even the shuffled queue converges to the same values.
    assert order_finals == base_finals
    assert both_finals == base_finals

    # Sanitized CPU time over plain CPU time: 1 + the overhead.
    ratio = median_speedup(
        lambda: timed_run(sanitize=True)[2], lambda: timed_run()[2]
    )
    enabled_overhead = ratio - 1.0
    assert enabled_overhead <= ENABLED_OVERHEAD_BUDGET, (
        f"sanitizer costs {enabled_overhead:.1%} CPU time over off "
        f"(median of 5 pairs; budget {ENABLED_OVERHEAD_BUDGET:.0%})"
    )
