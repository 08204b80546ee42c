"""Shared helpers: trial statistics, CPU accounting, the host
fingerprint, and validation of ``BENCHMARK.json``.

Nothing here imports ``repro`` or numpy at module level, so the parent
process of ``run.py`` stays light and its own start-up never counts
against a workload's ``setup_s``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
import resource
import statistics
import time
import typing as _t

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
LEDGER_PATH = BENCH_DIR / "ledger.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

TOP_KEYS = {
    "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
}
#: No metric is held looser than this: one that does not hold at 10 %
#: needs a longer workload, not a wider bound.
MAX_BOUND = 0.10


# -- statistics --------------------------------------------------------------


def quartiles(values: _t.Sequence[float]) -> _t.Tuple[float, float, float]:
    """``(q1, median, q3)`` by :func:`statistics.quantiles` (exclusive
    method, ``n=4``); a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: _t.Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# -- CPU and memory accounting -----------------------------------------------


def _proc_stat(pid: int) -> _t.Optional[_t.List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, so index
    ``k - 3`` holds the man page's field ``k``; ``None`` once gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    return data.rsplit(")", 1)[1].split()


def descendants(root: int) -> _t.List[int]:
    """Live descendant pids of *root* (pool and cluster workers)."""
    children: _t.Dict[int, _t.List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _proc_stat(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: _t.List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def tree_cpu_seconds() -> float:
    """User + system CPU of this process and its live descendants.

    The process itself is read through ``getrusage`` (microsecond
    resolution); descendants through ``/proc/<pid>/stat`` in clock
    ticks, because live children never show up in ``RUSAGE_CHILDREN``.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in descendants(os.getpid()):
        fields = _proc_stat(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host fingerprint --------------------------------------------------------


#: Calibration-loop rate of the reference host.  Normalised times are
#: the seconds that host would have taken: raw seconds times the
#: measured rate over this one.
REFERENCE_LOOPS_PER_S = 1.0e7


def calibration_sample(loops: int = 500_000) -> float:
    """Iterations per second of a fixed pure-Python loop: the yardstick
    for the host's current speed, which on shared machines drifts by
    tens of percent over minutes."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1000003
    return loops / (time.perf_counter() - start)


def calibration_rate(loops: int = 2_000_000, repeats: int = 3) -> float:
    """Best of *repeats* calibration samples: the host fingerprint's rate."""
    return max(calibration_sample(loops) for _ in range(repeats))


def host_fingerprint() -> _t.Dict[str, _t.Any]:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_loops_per_s": round(calibration_rate()),
    }


# -- BENCHMARK.json ----------------------------------------------------------


def load_benchmark(path: pathlib.Path = BENCHMARK_PATH) -> _t.Dict[str, _t.Any]:
    spec = json.loads(path.read_text())
    problems = validate_benchmark(spec)
    if problems:
        raise ValueError(f"{path.name}: " + "; ".join(problems))
    return spec


def _check_entries(
    spec: _t.Mapping[str, _t.Any],
    key: str,
    fields: _t.Set[str],
    low: int,
    high: int,
    problems: _t.List[str],
) -> _t.List[_t.Mapping[str, _t.Any]]:
    entries = spec.get(key)
    if not isinstance(entries, list) or not low <= len(entries) <= high:
        problems.append(f"{key}: need a list of {low} to {high} entries")
        return []
    good = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != fields:
            problems.append(f"{key}: entry {entry!r} must have keys {sorted(fields)}")
            continue
        if not isinstance(entry["name"], str) or not NAME_RE.match(entry["name"]):
            problems.append(f"{key}: bad name {entry['name']!r}")
            continue
        good.append(entry)
    return good


def validate_benchmark(spec: _t.Any) -> _t.List[str]:
    """Every way *spec* breaks the ``BENCHMARK.json`` contract (empty
    when it holds)."""
    if not isinstance(spec, dict):
        return ["top level must be an object"]
    problems: _t.List[str] = []
    if set(spec) != TOP_KEYS:
        problems.append(f"keys must be exactly {sorted(TOP_KEYS)}")
    command = spec.get("command")
    if (
        not isinstance(command, list) or not 1 <= len(command) <= 32
        or not all(isinstance(a, str) and len(a) <= 200 for a in command)
    ):
        problems.append("command: need 1 to 32 strings of at most 200 characters")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command: {arg!r} leaves the repository")
    paths = spec.get("paths")
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths: need 1 to 16 directories")
    else:
        for path in paths:
            if (
                not isinstance(path, str) or not PATH_RE.match(path)
                or path.startswith("/") or ".." in path.split("/")
            ):
                problems.append(f"paths: bad path {path!r}")
    seconds = spec.get("run_seconds")
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        problems.append("run_seconds: need a whole number from 1 to 60")
    workloads = _check_entries(spec, "workloads", {"name", "why"}, 2, 8, problems)
    for entry in workloads:
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            problems.append(f"workloads: {entry['name']}: why must be one line of at most 200 characters")
    end_to_end = _check_entries(
        spec, "end_to_end", {"name", "unit", "better", "bound"}, 1, 16, problems
    )
    per_layer = _check_entries(
        spec, "per_layer", {"name", "unit", "better"}, 1, 128, problems
    )
    for entry in end_to_end + per_layer:
        if not isinstance(entry["unit"], str) or not UNIT_RE.match(entry["unit"]):
            problems.append(f"{entry['name']}: bad unit {entry['unit']!r}")
        if entry["better"] not in ("lower", "higher"):
            problems.append(f"{entry['name']}: better must be lower or higher")
    for entry in end_to_end:
        bound = entry["bound"]
        if (
            not isinstance(bound, (int, float)) or isinstance(bound, bool)
            or not 0 < bound <= MAX_BOUND
        ):
            problems.append(f"{entry['name']}: bound must be in (0, {MAX_BOUND}]")
    setup = [e for e in end_to_end if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end: need setup_s in s, better lower")
    elif setup[0]["bound"] < max(e["bound"] for e in end_to_end):
        problems.append("setup_s must carry the largest bound")
    names = [e["name"] for e in workloads + end_to_end + per_layer]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used twice: {duplicates}")
    return problems
