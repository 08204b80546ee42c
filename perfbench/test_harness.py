"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_harness.py

Tier-1 collects only ``tests/`` (``testpaths`` in pyproject.toml), so
these run only when named.
"""

import copy
import json
import pathlib
import random
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, MOVES  # noqa: E402
from spans import RESIDUAL, Tracer, attribute  # noqa: E402

SPEC = harness.load_benchmark()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- spans -------------------------------------------------------------------


def test_self_time_under_nesting_and_recursion():
    clock = FakeClock()

    class Base:
        def next_batch(self):
            clock.advance(1.0)
            return ["base"]

    class Sub(Base):
        def next_batch(self):
            clock.advance(2.0)
            return super().next_batch() + ["sub"]

    class Kernel:
        def run(self):
            clock.advance(4.0)

    tracer = Tracer(clock)
    tracer.wrap_attr(Base, "next_batch", "core.strategy")
    tracer.wrap_attr(Sub, "next_batch", "core.strategy")
    tracer.wrap_attr(Kernel, "run", "kernel.run")

    def plan():
        clock.advance(0.5)
        assert Sub().next_batch() == ["base", "sub"]
        Kernel().run()
        clock.advance(0.25)

    traced_plan = tracer.wrap(plan, "core.plan")
    traced_plan()  # inactive: recorded nowhere
    assert tracer.spans == []
    tracer.begin()
    clock.advance(0.125)
    traced_plan()
    clock.advance(0.125)
    tracer.end()

    layers = tracer.attribution()
    assert layers["core.strategy"]["self_s"] == 3.0
    assert layers["core.strategy"]["calls"] == 1  # super() call is not a new entry
    assert layers["core.plan"]["self_s"] == 0.75
    assert layers["kernel.run"]["self_s"] == 4.0
    assert layers[RESIDUAL]["self_s"] == 0.25
    assert sum(layer["share"] for layer in layers.values()) == pytest.approx(1.0)


def test_classmethod_wrapping_keeps_the_descriptor():
    class Report:
        @classmethod
        def build(cls, value):
            return cls, value

    tracer = Tracer(FakeClock())
    tracer.wrap_attr(Report, "build", "risk.report")
    tracer.begin()
    assert Report.build(3) == (Report, 3)
    tracer.end()
    assert tracer.attribution()["risk.report"]["calls"] == 1


def test_other_thread_spans_are_carved_out_of_the_main_thread():
    main, first, second = 1, 2, 3
    spans = [
        ["core.execute", 1.0, 9.0, main, True, 0],
        ["distributed.protocol", 2.0, 3.0, first, True, 10],
        # Overlaps the span above on another thread: counted once.
        ["distributed.protocol", 2.5, 4.0, second, True, 20],
        # Nested on its own thread: a leaf of the outer one.
        ["distributed.protocol", 2.6, 2.7, first, False, 0],
        # Straddles the window's end: clipped.
        ["distributed.protocol", 9.5, 10.5, first, True, 5],
    ]
    layers = attribute(spans, [(0.0, 10.0)], main)
    assert layers["distributed.protocol"]["self_s"] == pytest.approx(2.5)
    assert layers["core.execute"]["self_s"] == pytest.approx(6.0)
    assert layers[RESIDUAL]["self_s"] == pytest.approx(1.5)
    assert layers["distributed.protocol"]["calls"] == 3
    assert layers["distributed.protocol"]["bytes"] == 35


def _random_tree(rng, start, end, depth, thread, out):
    cursor = start
    while depth < 4 and rng.random() < 0.7:
        a = cursor + rng.random() * (end - cursor) / 2
        b = a + rng.random() * (end - a)
        out.append([rng.choice(LAYERS[:-1]), a, b, thread, True, 0])
        _random_tree(rng, a, b, depth + 1, thread, out)
        cursor = b


@pytest.mark.parametrize("seed", range(20))
def test_shares_and_residual_sum_to_one(seed):
    rng = random.Random(seed)
    windows = [(0.0, 3.0), (4.0, 9.0)]
    spans = []
    for w0, w1 in windows:
        _random_tree(rng, w0, w1, 0, 1, spans)
    for thread in (2, 3):
        _random_tree(rng, -1.0, 10.0, 2, thread, spans)
    layers = attribute(spans, windows, 1)
    assert sum(layer["share"] for layer in layers.values()) == pytest.approx(1.0, abs=1e-9)
    assert min(layer["self_s"] for layer in layers.values()) > -1e-9


# -- statistics --------------------------------------------------------------


def test_quartiles_follow_statistics_quantiles():
    values = [9, 1, 8, 2, 7, 3, 6, 4, 5]
    assert harness.quartiles(values) == (2.5, 5, 7.5)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == (q3 - q1) / 5
    assert harness.quartiles([4.0]) == (4.0, 4.0, 4.0)
    with pytest.raises(ValueError):
        harness.quartiles([])


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_is_valid():
    assert harness.validate_benchmark(SPEC) == []
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert harness.NAME_RE.match(entry["name"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s["workloads"].__setitem__(slice(1, None), []),
        lambda s: s["workloads"][0].__setitem__("name", "caps serial"),
        lambda s: s["end_to_end"].extend(
            {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
            for i in range(16)
        ),
        lambda s: s["per_layer"].extend(
            {"name": f"l{i}", "unit": "count", "better": "lower"}
            for i in range(128)
        ),
        lambda s: s["end_to_end"][0].__setitem__("bound", 0.2),
        lambda s: s["end_to_end"].pop(
            [e["name"] for e in s["end_to_end"]].index("setup_s")
        ),
        lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
        lambda s: s.__setitem__("extra", 1),
        lambda s: s["command"].append("../elsewhere"),
    ],
)
def test_malformed_benchmark_json_is_refused(mutate):
    spec = copy.deepcopy(SPEC)
    mutate(spec)
    assert harness.validate_benchmark(spec)


def test_every_layer_metric_names_the_metric_and_workload_it_should_move():
    metrics = {e["name"] for e in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(MOVES) == {e["name"] for e in SPEC["per_layer"]}
    for name, moves in MOVES.items():
        assert moves or name == "trace.overhead", name
        for metric, workload in moves:
            assert metric in metrics and workload in workloads, (name, metric, workload)


def _trial(rate, fingerprint="f", reference=None, layers=None, speed=None,
           busy=1.0):
    speed = speed or harness.REFERENCE_LOOPS_PER_S
    rounds = [
        {"runs": 100, "executed": 80, "wall_s": 100 / rate,
         "cpu_s": busy * 100 / rate,
         "speed": speed, "failed": 0, "hazards": 3, "events": 8000,
         "process_steps": 9000, "delta_cycles": 4000, "journal_bytes": 800,
         "fingerprint": fingerprint}
        for _ in range(3)
    ]
    return {"setup_s": 1.0, "speed": speed, "workers": 1, "peak_rss_mb": 50.0,
            "rounds": rounds, "reference": reference, "layers": layers}


def test_metric_sets_match_benchmark_json():
    assert set(run.end_to_end_metrics([_trial(10.0)] * 3)) == {
        e["name"] for e in SPEC["end_to_end"]
    }


def test_times_are_normalised_to_the_reference_host():
    # A host at half the reference speed runs half as many runs per
    # second: normalised, that is the reference host's rate again.
    half = harness.REFERENCE_LOOPS_PER_S / 2
    slow = run.end_to_end_metrics([_trial(5.0, speed=half)] * 3)
    assert slow["runs_per_s"] == pytest.approx(10.0)
    assert slow["cpu_ms_per_run"] == pytest.approx(100.0)
    assert slow["setup_s"] == pytest.approx(0.5)
    raw = run.end_to_end_metrics([_trial(5.0, speed=half)] * 3, normalise=False)
    assert raw["runs_per_s"] == pytest.approx(5.0)
    assert raw["cpu_ms_per_run"] == pytest.approx(200.0)
    assert raw["setup_s"] == pytest.approx(1.0)
    # Only the busy share of the wall speeds up on a faster host: a
    # quarter busy at half speed takes 0.75 + 0.25 / 2 of the wall there.
    waiting = run.end_to_end_metrics([_trial(5.0, speed=half, busy=0.25)] * 3)
    assert waiting["runs_per_s"] == pytest.approx(5.0 / 0.875)
    layers = {"kernel.run": {"self_s": 2.0, "share": 0.9, "calls": 300, "bytes": 0},
              RESIDUAL: {"self_s": 0.2, "share": 0.1, "calls": 0, "bytes": 0}}
    metrics = run.layer_metrics(_trial(10.0), _trial(8.0, layers=layers))
    assert set(metrics) == {e["name"] for e in SPEC["per_layer"]}
    assert metrics["trace.overhead"] == pytest.approx(0.25)
    assert metrics["kernel.events_per_run"] == 100
    assert metrics["kernel.events_per_s"] == 12000
    assert metrics["analyze.prune.executed_frac"] == 0.8


def test_check_catches_every_disagreement():
    assert run.check([_trial(1.0)] * 2, pinned="f") == []
    assert run.check([_trial(1.0), _trial(1.0, fingerprint="g")], None)
    assert run.check([_trial(1.0)], pinned="g")
    assert run.check([_trial(1.0, reference="g")], None)
    assert run.check([_trial(1.0, reference="f")], None) == []


# -- seeds and the program ---------------------------------------------------


def test_seed_plumbing(tmp_path):
    from workloads import CapsSerial

    def fingerprint(seed):
        workload = CapsSerial(seed, str(tmp_path), runs=64)
        return workload.summary(workload.round())["fingerprint"]

    first = fingerprint(7)
    assert fingerprint(7) == first
    assert fingerprint(8) != first


def test_islands_strategy_prunes_every_other_scenario():
    from repro.analyze.reach import ReachabilityPruner
    from repro.platforms import registry
    from workloads import ISLANDS, IslandsStrategy, fault_space

    pruner = ReachabilityPruner.for_platform(ISLANDS)
    space = fault_space(registry.get_platform(ISLANDS).factory)
    strategy = IslandsStrategy(space, pruner.dead)
    batch = strategy.next_batch(random.Random(3), 64)
    assert [pruner.is_dead(scenario) for scenario in batch] == [True, False] * 32


def test_pool_shares_the_serial_pins():
    # caps-pool2 runs caps-serial's rounds exactly; caps-cluster2's
    # smaller rounds are checked against serial execution at run time.
    if not harness.LEDGER_PATH.exists():
        pytest.skip("no ledger.json recorded yet")
    pins = json.loads(harness.LEDGER_PATH.read_text()).get("fingerprints", {})
    serial = pins.get("caps-serial", {})
    pool = pins.get("caps-pool2", {})
    assert pool and set(pool) <= set(serial)
    for seed, fingerprint in pool.items():
        assert fingerprint == serial[seed], seed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "caps-serial"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
