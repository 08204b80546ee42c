"""Run the benchmark once per seed, the way a regression check does, and
report each end-to-end metric's median and quartile spread.

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 1-10] [--record]

Every invocation is a separate ``run.py`` process started from the
repository root.  A metric is steady when its spread, the distance
between the first and third quartile as a share of the median, stays
below a third of its bound in ``BENCHMARK.json``; ``setup_s`` is held
to its bound through its median only (see README.md).  The invocation
walls, projected onto a full regression check, must also fit in
:data:`CHECK_BUDGET_S`.

``--record`` also runs one traced invocation per workload at seed 7 and
rewrites ``ledger.json``: the host fingerprint, each workload's
parameters, the fingerprint of every seed run (which ``run.py`` then
checks), the medians and quartiles, and the traced layer metrics.  It
re-derives the pins, so its invocations do not check the old ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import typing as _t

import harness

OUT_DIR = harness.ROOT / ".perfbench" / "sweep"

#: Wall a full regression check must end within: 22 single-workload
#: invocations per workload and 4 more.
CHECK_BUDGET_S = 3420.0


def projected_check_s(walls: _t.Mapping[str, _t.Sequence[float]]) -> float:
    """A full regression check's wall over the workloads in *walls*:
    22 median invocations of each, and 4 of the slowest seen."""
    return (
        22 * sum(statistics.median(w) for w in walls.values())
        + 4 * max(max(w) for w in walls.values())
    )


def _seeds(text: str) -> _t.List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def invoke(workload: str, seed: int, trace: int) -> _t.Tuple[_t.Dict[str, _t.Any], float]:
    """One ``run.py`` invocation; returns its detail JSON and its wall."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(OUT_DIR),
    ]
    start = time.monotonic()
    done = subprocess.run(
        command, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True
    )
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    suffix = "traced" if trace else "untraced"
    path = OUT_DIR / f"{workload}-seed{seed}-{suffix}.json"
    return json.loads(path.read_text()), wall


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    spec = harness.load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=names)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    ledger = (
        json.loads(harness.LEDGER_PATH.read_text())
        if harness.LEDGER_PATH.exists() else {}
    )
    if args.record:
        harness.LEDGER_PATH.unlink(missing_ok=True)
    steady = True
    all_walls: _t.Dict[str, _t.Sequence[float]] = {}
    try:
        for name in args.workload or names:
            runs, walls = zip(*(invoke(name, seed, 0) for seed in args.seeds))
            all_walls[name] = walls
            stats = {}
            print(f"{name}: {len(runs)} seeds, invocation wall median "
                  f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
            for metric, bound in bounds.items():
                values = [run["metrics"][metric] for run in runs]
                q1, median, q3 = harness.quartiles(values)
                share = harness.spread(values)
                ok = metric == "setup_s" or share < bound / 3
                steady &= ok
                stats[metric] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
                print(f"  {metric:<16} median {median:12.6g}  spread {share:7.2%}"
                      f"  bound {bound:.0%}  {'ok' if ok else 'UNSTEADY'}")
            if not args.record:
                continue
            sys.path.insert(0, str(harness.ROOT / "src"))
            from workloads import WORKLOADS

            traced, _ = invoke(name, 7, 1)
            ledger.setdefault("fingerprints", {})[name] = {
                str(seed): run["trials"][0]["rounds"][0]["fingerprint"]
                for seed, run in zip(args.seeds, runs)
            }
            ledger.setdefault("workloads", {})[name] = {
                "params": WORKLOADS[name].params,
                "round_runs": runs[0]["trials"][0]["rounds"][0]["runs"],
                "seeds": args.seeds,
                "invocation_wall_s": statistics.median(walls),
                "end_to_end": stats,
                "traced_seed7": {
                    metric: value
                    for metric, value in traced["metrics"].items() if value
                },
            }
    finally:
        if args.record:
            ledger["host"] = harness.host_fingerprint()
            harness.LEDGER_PATH.write_text(
                json.dumps(ledger, indent=1, sort_keys=True) + "\n"
            )
    projected = projected_check_s(all_walls)
    fits = projected <= CHECK_BUDGET_S
    print(f"regression check over {len(all_walls)} workloads: {projected:.0f} s "
          f"of {CHECK_BUDGET_S:.0f} s{'' if fits else '  TOO SLOW'}")
    return 0 if steady and fits else 1


if __name__ == "__main__":
    raise SystemExit(main())
