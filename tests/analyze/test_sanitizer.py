"""Delta-race sanitizer and order-sensitivity checker.

The racy fixture platform has three processes writing one signal in
the same delta cycle every simulated time unit: the committed value is
whatever the *last* scheduled writer staged, i.e. pure scheduling
accident.  The write-write detector must flag it, and the
order-sensitivity prober must show digest divergence under permuted
runnable queues.  Well-formed platforms (single writer per signal per
delta) must stay clean under both.
"""

import functools

import pytest

from repro.analyze import (
    DeltaRaceError,
    DeltaRaceSanitizer,
    SanitizeConfig,
    check_order_sensitivity,
    resolve_sanitize,
)
from repro.core.classification import Classifier
from repro.kernel import Module, ProcessError, Simulator
from repro.platforms.registry import PlatformBundle
from repro.platforms import registry
from repro.kernel import simtime

CYCLES = 8


class RacyPlatform(Module):
    """Three writers race on ``bus`` every cycle; ``out`` accumulates
    the committed (order-dependent) values."""

    def __init__(self, sim, cycles=CYCLES):
        super().__init__("racy", sim=sim)
        self.cycles = cycles
        self.bus = self.signal("bus", 0)
        self.out = self.signal("out", 0)
        for tag in (1, 2, 3):
            # Factory-spawned so a snapshot can capture them.
            self.process(functools.partial(self._writer, tag),
                         name=f"writer{tag}")
        self.process(self._collector, name="collector")

    def _writer(self, tag):
        for _ in range(self.cycles):
            self.bus.write(self.bus.read() * 4 + tag)
            yield 1

    def _collector(self):
        for _ in range(self.cycles):
            yield 1
            self.out.write(self.out.read() * 10 + self.bus.read() % 7)


class CleanPlatform(Module):
    """Single driver per signal: no races by construction."""

    def __init__(self, sim, cycles=CYCLES):
        super().__init__("clean", sim=sim)
        self.cycles = cycles
        self.bus = self.signal("bus", 0)
        self.process(self._driver(), name="driver")

    def _driver(self):
        for step in range(self.cycles):
            self.bus.write(step)
            # Re-staging from the *same* process in one delta is
            # ordinary last-write-wins, not a race.
            self.bus.write(step * 2)
            yield 1


def racy_bundle(cycles=CYCLES):
    return PlatformBundle(
        name="racy-fixture",
        factory=lambda sim: RacyPlatform(sim, cycles=cycles),
        observe=lambda root: {"bus": root.bus.read(), "out": root.out.read()},
        classifier_factory=Classifier,
        trace_signals=lambda root: {"bus": root.bus, "out": root.out},
    )


# ---------------------------------------------------------------------------
# Write-write detection
# ---------------------------------------------------------------------------

def test_racy_platform_is_flagged():
    sim = Simulator(sanitize=True)
    RacyPlatform(sim)
    sim.run(until=CYCLES + 1)
    sanitizer = sim.sanitizer
    assert not sanitizer.clean
    # Three writers racing pairwise in scheduling order -> two
    # distinct (signal, first, second) pairs, re-hit every cycle.
    assert len(sanitizer.reports) == 2
    assert sanitizer.race_count == 2 * CYCLES
    race = sanitizer.reports[0]
    assert race.signal.endswith("bus")
    first, second = race.writers
    assert first != second
    assert "writer" in first and "writer" in second
    assert race.values[0] != race.values[1]
    rendered = race.render()
    assert "delta-race" in rendered and "scheduling" in rendered


def test_clean_platform_stays_clean():
    sim = Simulator(sanitize=True)
    CleanPlatform(sim)
    sim.run(until=CYCLES + 1)
    assert sim.sanitizer.clean
    assert sim.sanitizer.race_count == 0


def test_elaboration_and_testbench_writes_never_race():
    sim = Simulator(sanitize=True)
    top = Module("top", sim=sim)
    sig = top.signal("cfg", 0)
    # No process is stepping here: these are construction-order
    # deterministic testbench writes.
    sig.write(1)
    sig.write(2)
    sim.run(until=5)
    assert sim.sanitizer.clean


def test_raise_mode_surfaces_as_process_error():
    sim = Simulator(sanitize=SanitizeConfig(on_race="raise"))
    RacyPlatform(sim)
    with pytest.raises(ProcessError) as exc:
        sim.run(until=CYCLES + 1)
    assert isinstance(exc.value.original, DeltaRaceError)
    assert exc.value.original.race.signal.endswith("bus")


def test_report_is_json_ready():
    sim = Simulator(sanitize=True)
    RacyPlatform(sim)
    sim.run(until=CYCLES + 1)
    payload = sim.sanitizer.report()
    assert payload["distinct"] == len(payload["races"]) == 2
    assert payload["race_count"] == 2 * CYCLES
    for race in payload["races"]:
        assert set(race) == {"signal", "writers", "time", "delta", "values"}


def test_reset_keeps_evidence_and_rearms():
    """Restoring the elaboration capture rewinds the kernel, not the
    evidence."""
    sim = Simulator(sanitize=True)
    RacyPlatform(sim)
    start = sim.snapshot()
    sim.run(until=CYCLES + 1)
    before = sim.sanitizer.race_count
    assert before > 0
    sim.restore(start)
    assert sim.sanitizer.race_count == before  # evidence survives restore
    sim.run(until=CYCLES + 1)
    assert sim.sanitizer.race_count == 2 * before


def test_env_var_arms_the_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None
    monkeypatch.delenv("REPRO_SANITIZE")
    assert Simulator().sanitizer is None


def test_shared_sanitizer_watches_multiple_kernels():
    shared = DeltaRaceSanitizer()
    for _ in range(2):
        sim = Simulator(sanitize=shared)
        assert sim.sanitizer is shared
        RacyPlatform(sim)
        sim.run(until=CYCLES + 1)
    assert shared.race_count == 2 * (2 * CYCLES)


def test_max_reports_bounds_the_list():
    sim = Simulator(sanitize=SanitizeConfig(max_reports=1))
    RacyPlatform(sim)
    sim.run(until=CYCLES + 1)
    assert len(sim.sanitizer.reports) == 1
    assert sim.sanitizer.race_count == 2 * CYCLES


def test_config_validation():
    with pytest.raises(ValueError):
        SanitizeConfig(on_race="explode")
    with pytest.raises(ValueError):
        SanitizeConfig(max_reports=0)
    with pytest.raises(TypeError):
        resolve_sanitize("yes")
    assert resolve_sanitize(None) is None
    assert resolve_sanitize(False) is None
    assert isinstance(resolve_sanitize(True), DeltaRaceSanitizer)


# ---------------------------------------------------------------------------
# Built-in platforms: the CI self-check
# ---------------------------------------------------------------------------

_SELF_CHECK_DURATION = {
    "airbag-normal": simtime.ms(60),
    "airbag-crash": simtime.ms(60),
    "acc": simtime.ms(60),
    "steering": simtime.ms(40),
    "hostile-dut": 10_000,
}


@pytest.mark.parametrize("name", sorted(registry.available_platforms()))
def test_builtin_platforms_are_sanitizer_clean(name):
    bundle = registry.get_platform(name)
    sim = Simulator(sanitize=True)
    bundle.factory(sim)
    sim.run(until=_SELF_CHECK_DURATION.get(name, 10_000))
    assert sim.sanitizer.clean, (
        f"{name}: " + "; ".join(r.render() for r in sim.sanitizer.reports)
    )


# ---------------------------------------------------------------------------
# Order-sensitivity probing
# ---------------------------------------------------------------------------

def test_racy_platform_is_order_sensitive():
    report = check_order_sensitivity(
        racy_bundle(), duration=CYCLES + 2, permutations=4,
    )
    assert report.order_sensitive
    assert report.divergent
    assert set(report.divergent) <= {1000 + k for k in range(4)}
    assert "diverged" in report.render()
    # The baseline (unshuffled) probe reproduces default execution.
    assert report.baseline.order_seed is None


def test_order_probes_are_reproducible():
    first = check_order_sensitivity(
        racy_bundle(), duration=CYCLES + 2, permutations=3,
    )
    second = check_order_sensitivity(
        racy_bundle(), duration=CYCLES + 2, permutations=3,
    )
    assert first.divergent == second.divergent
    assert [p.canonical for p in first.probes] == [
        p.canonical for p in second.probes
    ]


def test_order_insensitive_platform_stays_byte_identical():
    report = check_order_sensitivity(
        "airbag-normal", duration=simtime.ms(10), permutations=2,
    )
    assert not report.order_sensitive
    assert "byte-identical" in report.render()


def test_order_seed_shuffle_is_deterministic_per_seed():
    def final_bus(order_seed):
        sim = Simulator(order_seed=order_seed)
        root = RacyPlatform(sim)
        sim.run(until=CYCLES + 1)
        return root.bus.read()

    assert final_bus(7) == final_bus(7)
    assert final_bus(8) == final_bus(8)


def test_order_check_rejects_bad_permutations():
    with pytest.raises(ValueError):
        check_order_sensitivity(racy_bundle(), permutations=0)
