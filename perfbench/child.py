"""One trial of one workload, in a fresh process started by ``run.py``.

Sets the workload up, then runs rounds (at least one) while the next
fits in the time budget, sampling the host's speed with the calibration
loop before the first round and after each one.  Prints one JSON object as the last line of
standard output: the set-up time, the median host speed, each round's
wall, CPU, host speed and counts, the peak RSS, an optional second-way
fingerprint, and (traced trials) the per-layer attribution.

    python3 perfbench/child.py '{"workload": "caps-serial", "seed": 7,
        "budget_s": 2.0, "trace": false, "verify": false,
        "spawned": <time.monotonic() of the parent before spawning>,
        "work_dir": "<directory inside the checkout>"}'
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    request = json.loads(argv[1])
    import harness
    import workloads  # registers the islands platform, so it gets wrapped too

    tracer = None
    if request["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    workload = workloads.WORKLOADS[request["workload"]](
        request["seed"], request["work_dir"]
    )
    rounds = []
    try:
        timed_start = time.monotonic()
        setup_s = timed_start - request["spawned"]
        speeds = [harness.calibration_sample()]
        while True:
            cpu_start = harness.tree_cpu_seconds()
            if tracer is not None:
                tracer.begin()
            start = time.perf_counter()
            output = workload.round()
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.end()
            cpu = harness.tree_cpu_seconds() - cpu_start
            speeds.append(harness.calibration_sample())
            counts = workload.summary(output)
            del output
            rounds.append({
                "wall_s": wall,
                "cpu_s": cpu,
                # Host speed around this round: the samples either side.
                "speed": (speeds[-2] + speeds[-1]) / 2,
                **counts,
            })
            # Stop before a round would overrun the budget, so the
            # trials of a workload measure its run_seconds between them.
            if time.monotonic() - timed_start + wall > request["budget_s"]:
                break
        reference = workload.reference() if request["verify"] else None
    finally:
        workload.close()
    report = {
        "setup_s": setup_s,
        "speed": statistics.median(speeds),
        "workers": workload.workers,
        "peak_rss_mb": harness.peak_rss_mb(),
        "rounds": rounds,
        "reference": reference,
        "layers": tracer.attribution() if tracer is not None else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
