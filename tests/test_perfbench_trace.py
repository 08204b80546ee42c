"""The benchmark's traced path (``perfbench/run.py --trace 1``) still
installs and attributes work to the layers it names.

``perfbench/layers.install`` wraps program callables by name
(``execute_runspec``/``execute_fork_group`` in both ``runspec`` and
``executors``, ``Simulator.snapshot/restore``, ``Stressor.arm`` ...);
a rename there breaks the traced benchmark without failing any other
test.  This runs one 64-run round each of caps-serial, caps-fork and
caps-audit under a tracer, in a subprocess so the wrappers never leak
into this process.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import collections, json, sys, tempfile

    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import layers
    import workloads
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    calls = {}
    for workload_cls in (
        workloads.CapsSerial, workloads.CapsFork, workloads.CapsAudit,
    ):
        with tempfile.TemporaryDirectory() as work_dir:
            workload = workload_cls(7, work_dir, runs=64)
            try:
                start = len(tracer.spans)
                tracer.begin()
                workload.round()
                tracer.end()
            finally:
                workload.close()
        calls[workload.name] = collections.Counter(
            span[0] for span in tracer.spans[start:]
        )
    print(json.dumps(calls))
    """
)


def test_traced_rounds_attribute_calls_to_named_layers():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT,
         str(REPO / "perfbench"), str(REPO / "src")],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert result.returncode == 0, result.stderr
    calls = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(calls) == {"caps-serial", "caps-fork", "caps-audit"}
    for name, layers in calls.items():
        for layer in ("kernel.run", "kernel.state", "core.runspec",
                      "core.stressor"):
            assert layers.get(layer, 0) > 0, (name, layer, layers)
        # Warm reuse and fork groups both start from the platform the
        # set-up elaborated; a round builds nothing.  caps-audit's spare
        # banks are plain Memory modules, so its platform is warm too.
        assert layers.get("platforms.elaborate", 0) == 0, (name, layers)
