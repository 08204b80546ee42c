"""Sanitizer evidence must survive kernel snapshot/restore.

Restoring the elaboration capture already has this contract (race
reports are *evidence*, the kernel's lifecycle is not theirs — see
``test_reset_keeps_evidence_and_rearms``).  A mid-run capture
(`Simulator.snapshot()` / ``restore()``) rewinds the same kernel the
same way, so a mid-campaign restore must not launder away races the
sanitizer already proved: a platform that raced in the fault-free
prefix keeps that report across every fork replay, while the
in-flight ``_writes`` staging table is cleared (staged writes belong
to the abandoned timeline).
"""

import functools

from repro.kernel import Module, Simulator

CYCLES = 8


class RacyPlatform(Module):
    """Three factory-spawned writers race on ``bus`` every cycle —
    snapshot-compatible twin of the fixture in test_sanitizer.py."""

    def __init__(self, sim, cycles=CYCLES):
        super().__init__("racy", sim=sim)
        self.cycles = cycles
        self.bus = self.signal("bus", 0)
        for tag in (1, 2, 3):
            self.process(functools.partial(self._writer, tag),
                         name=f"writer{tag}")

    def _writer(self, tag):
        for _ in range(self.cycles):
            self.bus.write(self.bus.read() * 4 + tag)
            yield 1


def raced_simulator():
    sim = Simulator(sanitize=True)
    RacyPlatform(sim)
    sim.run(until=CYCLES + 1)
    assert sim.sanitizer.race_count > 0
    return sim


def test_reports_survive_snapshot_and_restore():
    sim = raced_simulator()
    before_reports = list(sim.sanitizer.reports)
    before_count = sim.sanitizer.race_count
    state = sim.snapshot()
    sim.restore(state)
    # Same list objects, same counters: nothing was re-derived or lost.
    assert sim.sanitizer.reports == before_reports
    assert sim.sanitizer.race_count == before_count


def test_restore_clears_staged_writes_only():
    sim = raced_simulator()
    state = sim.snapshot()
    sim.restore(state)
    # The write-staging table tracks the abandoned timeline's current
    # delta; it must restart empty so the first post-restore delta
    # cannot pair a stale writer with a fresh one.
    assert sim.sanitizer._writes == {}  # vp-lint: disable=VP006 - asserting the reset contract of analyzer-internal state


def test_restored_run_accumulates_new_evidence():
    sim = Simulator(sanitize=True)
    RacyPlatform(sim)
    sim.run(until=3)
    prefix = sim.sanitizer.race_count
    assert prefix > 0
    state = sim.snapshot()  # mid-run: writers still have cycles left
    sim.run(until=CYCLES + 1)
    full = sim.sanitizer.race_count
    gained = full - prefix
    assert gained > 0
    sim.restore(state)
    sim.run(until=CYCLES + 1)
    # The replayed suffix races on top of the preserved evidence: the
    # count keeps growing past the first timeline's total, while the
    # report list stays deduped by writer pair.
    assert sim.sanitizer.race_count > full
    assert len(sim.sanitizer.reports) == 2


def test_snapshot_roundtrip_matches_reset_semantics():
    # Every restore goes through the same on_reset() hook; a raced
    # kernel reports the same evidence whether it rewinds to its
    # elaboration capture or to a capture taken after the races.
    via_reset = Simulator(sanitize=True)
    RacyPlatform(via_reset)
    start = via_reset.snapshot()
    via_reset.run(until=CYCLES + 1)
    via_reset.restore(start)
    via_restore = raced_simulator()
    via_restore.restore(via_restore.snapshot())
    assert (
        via_reset.sanitizer.race_count == via_restore.sanitizer.race_count
    )
    assert (
        [r.writers for r in via_reset.sanitizer.reports]
        == [r.writers for r in via_restore.sanitizer.reports]
    )
