"""The benchmark of the Fig. 3 stress-test loop: one command for every
end-to-end metric, with output fingerprints checked.

    python3 perfbench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                             [--trace 0|1] [--trials K] [--out DIR]

Each workload runs in fresh child processes (``child.py``), one at a
time, and measures for ``run_seconds`` of ``BENCHMARK.json`` (the only
value ``--seconds`` accepts).  Untraced (``--trace 0``), K trials share
that budget; each sets the workload up once (its ``setup_s``) and then
runs identical rounds of closed-loop campaign work until its share is
spent.  ``--trace 1`` runs one untraced and one traced trial instead
and reports the per-layer metrics of ``BENCHMARK.json``.

Every round's output fingerprint must agree with every other round,
with the fingerprint pinned for this seed in ``ledger.json`` when there
is one, and with the serial execution of the same runs for the pool
and cluster workloads.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any check fails or a trial cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import typing as _t

import harness
from layers import LAYERS, RESIDUAL

#: Wall-clock limit for one workload, trials and set-up included.
WORKLOAD_LIMIT_S = 170.0
#: Fresh processes per workload.  Set-up is sampled once per process,
#: and rates differ between processes by a few percent, so the medians
#: pool several.
DEFAULT_TRIALS = 5
WORK_ROOT = harness.ROOT / ".perfbench"


class BenchError(RuntimeError):
    """A trial could not run; no result is printed."""


# -- trials ------------------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_trial(request: _t.Dict[str, _t.Any], deadline: float) -> _t.Dict[str, _t.Any]:
    """One child process; its own session, so a timeout reaps the pool
    or cluster workers it started as well."""
    request = dict(request, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(harness.BENCH_DIR / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=harness.ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{request['workload']}: trial timed out") from None
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(
            f"{request['workload']}: trial exited with code {proc.returncode}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{request['workload']}: trial printed no result")
    return json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, trials: int, work_dir: str
) -> _t.List[_t.Dict[str, _t.Any]]:
    """The trials of one workload, in order.  Traced: one untraced then
    one traced trial.  The last trial also fingerprints the serial
    execution of its runs where the workload has a second way."""
    plan = [False, True] if trace else [False] * trials
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    results = []
    for position, traced in enumerate(plan):
        results.append(run_trial(
            {
                "workload": name,
                "seed": seed,
                "budget_s": seconds / len(plan),
                "trace": traced,
                "verify": position == len(plan) - 1,
                "work_dir": work_dir,
            },
            deadline,
        ))
    return results


# -- checks and metrics ------------------------------------------------------


def check(
    trials: _t.Sequence[_t.Mapping[str, _t.Any]], pinned: _t.Optional[str]
) -> _t.List[str]:
    """Every way the trials' outputs disagree (empty when correct)."""
    rounds = [r for trial in trials for r in trial["rounds"]]
    fingerprints = sorted({r["fingerprint"] for r in rounds})
    problems = []
    if len(fingerprints) != 1:
        problems.append(f"rounds disagree: {fingerprints}")
    elif pinned is not None and fingerprints[0] != pinned:
        problems.append(f"fingerprint {fingerprints[0]} != pinned {pinned}")
    for trial in trials:
        reference = trial["reference"]
        if reference is not None and reference not in fingerprints:
            problems.append(f"serial execution gives {reference}")
    return problems


def end_to_end_metrics(
    trials: _t.Sequence[_t.Mapping[str, _t.Any]],
    normalise: bool = True,
) -> _t.Dict[str, float]:
    """Medians over every round (rates) or every trial (set-up, RSS).

    Times are normalised to the reference host, which cancels most of a
    shared host's drift: CPU time and set-up time scale by the
    calibration-loop rate measured around them over
    :data:`harness.REFERENCE_LOOPS_PER_S`.  A round's wall is split by
    its busy share, the CPU time over the wall its worker processes
    had: only the busy part is rescaled, because time spent waiting on
    sockets or timers does not shrink on a faster host.
    ``normalise=False`` gives the raw values.
    """
    reference = harness.REFERENCE_LOOPS_PER_S if normalise else None

    def slowdown(sample: _t.Mapping[str, _t.Any]) -> float:
        """How much slower than the reference host *sample*'s CPU ran."""
        return reference / sample["speed"] if reference else 1.0

    def reference_wall(r: _t.Mapping[str, _t.Any], workers: int) -> float:
        busy = min(1.0, r["cpu_s"] / (r["wall_s"] * workers))
        return r["wall_s"] * (1.0 - busy + busy / slowdown(r))

    rates, cpu_ms = [], []
    for trial in trials:
        for r in trial["rounds"]:
            rates.append(r["runs"] / reference_wall(r, trial["workers"]))
            cpu_ms.append(1000.0 * r["cpu_s"] / r["runs"] / slowdown(r))
    return {
        "runs_per_s": statistics.median(rates),
        "cpu_ms_per_run": statistics.median(cpu_ms),
        "setup_s": statistics.median(t["setup_s"] / slowdown(t) for t in trials),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in trials),
    }


def layer_metrics(
    untraced: _t.Mapping[str, _t.Any], traced: _t.Mapping[str, _t.Any]
) -> _t.Dict[str, float]:
    """The per-layer metrics of one traced trial; ``trace.overhead`` is
    the untraced trial's median rate over the traced one's, minus 1."""
    rounds = traced["rounds"]
    layers = traced["layers"]
    total = {
        key: sum(r[key] for r in rounds)
        for key in ("runs", "executed", "events", "process_steps",
                    "delta_cycles", "journal_bytes")
    }
    runs, executed = total["runs"], total["executed"]

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0.0)

    metrics: _t.Dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.share"] = layer(name, "share")
        if name != RESIDUAL:
            metrics[f"{name}.calls_per_run"] = layer(name, "calls") / runs
    def per_executed(value: float) -> float:
        return value / executed if executed else 0.0

    metrics["kernel.events_per_run"] = per_executed(total["events"])
    metrics["kernel.process_steps_per_run"] = per_executed(total["process_steps"])
    metrics["kernel.delta_cycles_per_run"] = per_executed(total["delta_cycles"])
    kernel_s = layer("kernel.run", "self_s")
    metrics["kernel.events_per_s"] = total["events"] / kernel_s if kernel_s else 0.0
    metrics["core.warm.hit_frac"] = (
        max(0.0, 1.0 - per_executed(layer("platforms.elaborate", "calls")))
        if executed else 0.0
    )
    metrics["core.checkpoint.bytes_per_run"] = per_executed(total["journal_bytes"])
    metrics["analyze.prune.executed_frac"] = executed / runs
    metrics["distributed.protocol.bytes_per_run"] = (
        layer("distributed.protocol", "bytes") / runs
    )
    metrics["trace.overhead"] = (
        end_to_end_metrics([untraced])["runs_per_s"]
        / end_to_end_metrics([traced])["runs_per_s"] - 1.0
    )
    return metrics


def hazards_per_cpu_s(trials: _t.Sequence[_t.Mapping[str, _t.Any]]) -> float:
    rounds = [r for trial in trials for r in trial["rounds"]]
    return sum(r["hazards"] for r in rounds) / sum(r["cpu_s"] for r in rounds)


# -- reporting ---------------------------------------------------------------


def _units(spec: _t.Mapping[str, _t.Any]) -> _t.Dict[str, str]:
    return {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}


def _print_workload(
    name: str,
    seed: int,
    trials: _t.Sequence[_t.Mapping[str, _t.Any]],
    metrics: _t.Mapping[str, float],
    units: _t.Mapping[str, str],
    problems: _t.Sequence[str],
    traced: bool,
) -> None:
    rounds = [r for trial in trials for r in trial["rounds"]]
    speed = statistics.median(t["speed"] for t in trials)
    print(f"{name}: seed {seed}, {len(trials)} trials, {len(rounds)} rounds "
          f"of {rounds[0]['runs']} runs, host at "
          f"{speed / harness.REFERENCE_LOOPS_PER_S:.2f}x the reference")
    raw = {} if traced else end_to_end_metrics(trials, normalise=False)
    for metric, value in metrics.items():
        line = f"  {metric:<38} {value:>14.6g} {units[metric]}"
        if metric in raw and raw[metric] != value:
            line += f"  (raw {raw[metric]:.6g})"
        print(line)
    hazards = sum(r["hazards"] for r in rounds)
    if hazards:
        print(f"  {'(hazards_per_cpu_s, raw)':<38} {hazards_per_cpu_s(trials):>14.6g} 1/s")
    verdict = "; ".join(problems) if problems else "ok"
    print(f"  fingerprint {rounds[0]['fingerprint'][:16]}: {verdict}")


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    spec = harness.load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    # Part of the benchmark's fixed command line; any other budget would
    # not compare with the ledger's medians.
    parser.add_argument("--seconds", type=int, choices=[spec["run_seconds"]],
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--out", type=pathlib.Path,
                        help="directory for per-workload detail JSON")
    args = parser.parse_args(argv)
    if args.trials < 3:
        parser.error("need --trials >= 3")
    if not (harness.ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    # A terminated run still reaps its trial's process group (run_trial's
    # finally clause) instead of orphaning pool or cluster workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    pins = {}
    if harness.LEDGER_PATH.exists():
        pins = json.loads(harness.LEDGER_PATH.read_text()).get("fingerprints", {})
    units = _units(spec)
    wanted = {e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]}
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    results = {}
    try:
        for name in args.workload or names:
            trials = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.trials,
                work_dir,
            )
            problems = check(trials, pins.get(name, {}).get(str(args.seed)))
            metrics = (
                layer_metrics(trials[0], trials[1]) if args.trace
                else end_to_end_metrics(trials)
            )
            if set(metrics) != wanted:
                raise BenchError(
                    f"{name}: metrics {sorted(set(metrics) ^ wanted)} do not "
                    f"match BENCHMARK.json"
                )
            _print_workload(
                name, args.seed, trials, metrics, units, problems,
                bool(args.trace),
            )
            attempted = sum(r["runs"] for t in trials for r in t["rounds"])
            failed = sum(r["failed"] for t in trials for r in t["rounds"])
            results[name] = {
                "correct": not problems and not failed,
                "attempted": attempted,
                "failed": attempted if problems else failed,
                "metrics": metrics,
                "problems": problems,
                "trials": trials,
            }
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                suffix = "traced" if args.trace else "untraced"
                (args.out / f"{name}-seed{args.seed}-{suffix}.json").write_text(
                    json.dumps(results[name], indent=1) + "\n"
                )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    def entry(metric: str, value: float) -> _t.Dict[str, _t.Any]:
        return {"value": value, "unit": units[metric.rsplit("/", 1)[-1]]}

    if len(results) == 1:
        (name, result), = results.items()
        metrics = {m: entry(m, v) for m, v in result["metrics"].items()}
    else:
        metrics = {
            f"{name}/{m}": entry(m, v)
            for name, result in results.items()
            for m, v in result["metrics"].items()
        }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
