"""Per-rule VP-lint unit tests plus the violation-corpus contract."""

import pathlib
import textwrap

from repro.analyze import RULES, lint_file, lint_source
from repro.analyze.findings import ERROR, WARNING

CORPUS = pathlib.Path(__file__).parent / "fixtures" / "violations.py"


def codes(findings):
    return [f.code for f in findings]


def lint_snippet(snippet, path="platform.py", **kwargs):
    return lint_source(textwrap.dedent(snippet), path=path, **kwargs)


# ---------------------------------------------------------------------------
# One test per rule: minimal triggering snippet + a clean counterpart.
# ---------------------------------------------------------------------------

def test_vp001_direct_channel_construction():
    findings = lint_snippet("sig = Signal(sim, 'x', 0)\n")
    assert codes(findings) == ["VP001"]
    assert findings[0].severity == ERROR
    assert lint_snippet("sig = self.signal('x', 0)\n") == []


def test_vp001_covers_wire_and_clock():
    assert codes(lint_snippet("w = Wire(sim, 'w')\n")) == ["VP001"]
    assert codes(lint_snippet("c = Clock(sim, 'clk', 10)\n")) == ["VP001"]


def test_vp002_direct_spawn():
    findings = lint_snippet("proc = sim.spawn(gen())\n")
    assert codes(findings) == ["VP002"]
    assert lint_snippet("proc = self.process(gen())\n") == []


def test_vp003_shared_mutable_initial():
    findings = lint_snippet(
        """
        SHARED = []

        def build(module):
            return module.signal("buf", SHARED)
        """
    )
    assert codes(findings) == ["VP003"]
    assert findings[0].severity == WARNING
    # A local container, or a copy of the global, is fine.
    assert lint_snippet(
        """
        SHARED = []

        def build(module):
            return module.signal("buf", list(SHARED))
        """
    ) == []


def test_vp004_global_rng():
    assert codes(lint_snippet("x = random.random()\n")) == ["VP004"]
    assert codes(lint_snippet("random.seed(7)\n")) == ["VP004"]
    assert codes(lint_snippet("rng = random.Random()\n")) == ["VP004"]
    # Seeded instances and drawing from an instance are the sanctioned
    # pattern — `rng.random()` has base name `rng`, not `random`.
    assert lint_snippet("rng = random.Random(7)\nx = rng.random()\n") == []


def test_vp005_wall_clock():
    assert codes(lint_snippet("t = time.time()\n")) == ["VP005"]
    assert codes(lint_snippet("t = time.perf_counter()\n")) == ["VP005"]
    assert codes(lint_snippet("t = datetime.datetime.now()\n")) == ["VP005"]
    assert lint_snippet("t = sim.now\n") == []


def test_vp006_private_kernel_state():
    assert codes(lint_snippet("n = len(sim._signals)\n")) == ["VP006"]
    assert codes(lint_snippet("v = sig._value\n")) == ["VP006"]
    # A class touching its own same-named attribute is not a violation.
    assert lint_snippet(
        """
        class Cache:
            def get(self):
                return self._value
        """
    ) == []


def test_vp007_broad_handler():
    snippet = """
    try:
        run()
    except Exception:
        pass
    """
    assert codes(lint_snippet(snippet)) == ["VP007"]


def test_vp007_forgiven_by_deadline_reraise_clause():
    assert lint_snippet(
        """
        try:
            run()
        except DeadlineExceeded:
            raise
        except Exception:
            pass
        """
    ) == []


def test_vp007_forgiven_by_reraise_inside_handler():
    assert lint_snippet(
        """
        try:
            run()
        except Exception:
            log()
            raise
        """
    ) == []


def test_vp007_bare_except():
    findings = lint_snippet(
        """
        try:
            run()
        except:
            pass
        """
    )
    assert codes(findings) == ["VP007"]
    assert "bare" in findings[0].message


def test_vp008_lambda_in_runspec():
    findings = lint_snippet(
        "spec = RunSpec(index=0, golden=lambda: {})\n"
    )
    assert codes(findings) == ["VP008"]
    assert lint_snippet("spec = RunSpec(index=0, golden=None)\n") == []


def test_vp009_undeclared_state_field():
    snippet = """
        class Part(Base):
            STATE_FIELDS = ("count",)

            def __init__(self):
                self.count = 0
                self.cache = None

            def tick(self):
                self.count += 1
                self.cache = 1
                (self.level, self.peak) = (2, 3)
                self.note: str = "x"
        """
    findings = lint_snippet(snippet)
    assert codes(findings) == ["VP009"] * 4
    assert findings[0].severity == WARNING
    assert sorted(f.message.split()[2] for f in findings) == [
        "self.cache,", "self.level,", "self.note,", "self.peak,",
    ]
    # Only rebinding counts: item writes, other objects' attributes and
    # __init__ are fine, and so are classes that declare nothing.
    assert lint_snippet(
        """
        class Part:
            STATE_FIELDS = ("data",)

            def __init__(self):
                self.buffer = 0

            def tick(self, other):
                self.data[0] = 1
                other.level = 2

        class Plain:
            def tick(self):
                self.level = 1
        """
    ) == []


def test_vp009_fields_accumulate_from_same_file_ancestors():
    snippet = """
        class Base:
            STATE_FIELDS = ("count",)

        class Part(Base):
            STATE_FIELDS = ("level",)

            def tick(self):
                self.count += 1
                self.level = 2
                self.other = 3
        """
    findings = lint_snippet(snippet)
    assert codes(findings) == ["VP009"]
    assert "self.other" in findings[0].message


def test_vp010_process_exit():
    assert codes(lint_snippet("os._exit(1)\n")) == ["VP010"]
    assert codes(lint_snippet("sys.exit(0)\n")) == ["VP010"]


def test_vp012_numpy_global_rng():
    assert codes(lint_snippet("x = np.random.normal(0, 1)\n")) == ["VP012"]
    assert codes(
        lint_snippet("x = numpy.random.standard_normal(4)\n")
    ) == ["VP012"]
    assert codes(lint_snippet("np.random.seed(7)\n")) == ["VP012"]


def test_vp012_seedless_default_rng():
    for snippet in (
        "rng = np.random.default_rng()\n",
        "rng = numpy.random.default_rng()\n",
        "rng = default_rng()\n",  # from numpy.random import default_rng
        "rng = random.default_rng()\n",  # from numpy import random
    ):
        assert codes(lint_snippet(snippet)) == ["VP012"], snippet


def test_vp012_seeded_generators_are_clean():
    # The sanctioned patterns: explicit seeds, explicit bit generators,
    # and drawing from a held Generator instance.
    assert lint_snippet("rng = np.random.default_rng(7)\n") == []
    assert lint_snippet(
        "rng = np.random.Generator(np.random.PCG64(7))\n"
    ) == []
    assert lint_snippet(
        "rng = np.random.default_rng(seed)\nx = rng.normal(0, 1)\n"
    ) == []


def test_vp013_direct_concurrency_construction():
    findings = lint_snippet("pool = ProcessPoolExecutor(4)\n")
    assert codes(findings) == ["VP013"]
    assert findings[0].severity == WARNING
    assert codes(
        lint_snippet("pool = futures.ThreadPoolExecutor(2)\n")
    ) == ["VP013"]
    assert codes(
        lint_snippet("agent = threading.Thread(target=serve)\n")
    ) == ["VP013"]
    assert codes(lint_snippet("agent = Thread(target=serve)\n")) == ["VP013"]
    for factory in ("socket", "create_connection", "create_server"):
        assert codes(
            lint_snippet(f"link = socket.{factory}(endpoint)\n")
        ) == ["VP013"], factory
    # The sanctioned path does not fire.
    assert lint_snippet(
        "ex, owned = make_executor('parallel', workers=4)\n"
    ) == []


def test_vp013_ignores_tlm_socket_attribute_access():
    # A TLM endpoint named `socket` is attribute access, not a raw
    # socket construction.
    assert lint_snippet("entry.socket.deliver(payload)\n") == []
    assert lint_snippet("status = entry.socket.poll()\n") == []


def test_vp013_execution_layers_are_exempt():
    snippet = (
        "server = socket.create_server((host, 0))\n"
        "agent = threading.Thread(target=serve)\n"
        "pool = ProcessPoolExecutor(4)\n"
    )
    for exempt in (
        "src/repro/distributed/coordinator.py",
        "src/repro/distributed/worker.py",
        "src/repro/core/executors.py",
    ):
        assert lint_source(snippet, path=exempt) == [], exempt
    # Anywhere else — campaign code, platforms, strategies — fires.
    assert codes(
        lint_source(snippet, path="src/repro/core/campaign.py")
    ) == ["VP013", "VP013", "VP013"]


def test_syntax_error_reports_vp000():
    findings = lint_snippet("def broken(:\n")
    assert codes(findings) == ["VP000"]
    assert findings[0].severity == ERROR


# ---------------------------------------------------------------------------
# Kernel-internal exemption
# ---------------------------------------------------------------------------

def test_kernel_paths_skip_kernel_internal_rules():
    snippet = "sig = Signal(sim, 'x', 0)\nq = sim._signals\n"
    inside = lint_source(snippet, path="src/repro/kernel/scheduler.py")
    outside = lint_source(snippet, path="src/repro/platforms/acc.py")
    assert inside == []
    assert sorted(codes(outside)) == ["VP001", "VP006"]


def test_kernel_exemption_requires_consecutive_parts():
    # `repro/notkernel` and a stray `kernel/` dir are NOT exempt.
    snippet = "sig = Signal(sim, 'x', 0)\n"
    assert codes(lint_source(snippet, path="kernel/model.py")) == ["VP001"]
    assert codes(
        lint_source(snippet, path="src/repro/hw/kernel_helpers.py")
    ) == ["VP001"]


def test_non_kernel_rules_still_apply_inside_kernel():
    snippet = "t = time.time()\n"
    assert codes(
        lint_source(snippet, path="src/repro/kernel/scheduler.py")
    ) == ["VP005"]


# ---------------------------------------------------------------------------
# The committed violation corpus: every rule code fires on it.
# ---------------------------------------------------------------------------

def test_corpus_exercises_every_rule_code():
    found = set(codes(lint_file(CORPUS)))
    assert found == set(RULES), (
        f"corpus drift: missing {sorted(set(RULES) - found)}, "
        f"unexpected {sorted(found - set(RULES))}"
    )


def test_corpus_findings_carry_locations_and_severities():
    for finding in lint_file(CORPUS):
        assert finding.path.endswith("violations.py")
        assert finding.line > 0 and finding.col > 0
        assert finding.severity in (ERROR, WARNING)
        assert finding.code in RULES
        assert RULES[finding.code].severity == finding.severity
