"""Unit tests for the module hierarchy and injection-point registry."""

import pytest

from repro.kernel import Module, Simulator


@pytest.fixture
def sim():
    return Simulator()


def build_tree(sim):
    top = Module("top", sim=sim)
    ecu = Module("ecu0", parent=top)
    cpu = Module("cpu", parent=ecu)
    mem = Module("mem", parent=ecu)
    return top, ecu, cpu, mem


class TestHierarchy:
    def test_full_names(self, sim):
        top, ecu, cpu, mem = build_tree(sim)
        assert top.full_name == "top"
        assert cpu.full_name == "top.ecu0.cpu"
        assert mem.full_name == "top.ecu0.mem"

    def test_children_registered_in_order(self, sim):
        top, ecu, cpu, mem = build_tree(sim)
        assert top.children == [ecu]
        assert ecu.children == [cpu, mem]

    def test_find_by_path(self, sim):
        top, ecu, cpu, mem = build_tree(sim)
        assert top.find("ecu0.cpu") is cpu
        assert top.find("ecu0") is ecu

    def test_find_missing_raises_keyerror(self, sim):
        top, *_ = build_tree(sim)
        with pytest.raises(KeyError):
            top.find("ecu0.gpu")

    def test_walk_is_depth_first(self, sim):
        top, ecu, cpu, mem = build_tree(sim)
        assert [m.basename for m in top.walk()] == ["top", "ecu0", "cpu", "mem"]

    def test_module_needs_parent_or_sim(self):
        with pytest.raises(ValueError):
            Module("orphan")

    def test_child_inherits_simulator(self, sim):
        top, ecu, cpu, _ = build_tree(sim)
        assert cpu.sim is sim


class TestConstructionHelpers:
    def test_signal_and_wire_names_are_hierarchical(self, sim):
        top, ecu, *_ = build_tree(sim)
        sig = ecu.signal("speed", 0)
        wire = ecu.wire("enable")
        assert sig.name == "top.ecu0.speed"
        assert wire.name == "top.ecu0.enable"

    def test_process_runs_under_module_name(self, sim):
        top, *_ = build_tree(sim)
        log = []

        def body():
            yield 1
            log.append("ran")

        proc = top.process(body(), name="worker")
        assert proc.name == "top.worker"
        sim.run()
        assert log == ["ran"]


class TestDetach:
    def test_detach_unlinks_from_parent(self, sim):
        top, ecu, *_ = build_tree(sim)
        ecu.detach()
        assert top.children == []
        assert ecu.parent is None

    def test_detach_reaps_owned_signals_and_processes(self, sim):
        """Per-run helpers on a warm kernel must not leak: detach hands
        every signal/process the subtree created back to the kernel."""
        top = Module("top", sim=sim)
        start = sim.snapshot()
        baseline_signals = len(sim._signals)
        baseline_processes = len(sim._processes)

        for run in range(3):
            helper = Module(f"helper{run}", parent=top)
            child = Module("child", parent=helper)
            helper.signal("s", 0)
            child.wire("w")
            child.clock("clk", period=10)

            def body():
                yield 1

            helper.process(body(), name="worker")
            sim.run(until=5)
            helper.detach()
            assert len(sim._signals) == baseline_signals
            assert len(sim._processes) == baseline_processes
            sim.restore(start)

    def test_detach_kills_still_waiting_processes(self, sim):
        top = Module("top", sim=sim)
        helper = Module("helper", parent=top)

        def body():
            yield 1_000_000

        proc = helper.process(body(), name="sleeper")
        sim.run(until=5)
        helper.detach()
        assert proc.state == "killed"
        assert proc not in sim._processes


class TestInjectionPoints:
    def test_register_and_enumerate(self, sim):
        top, ecu, cpu, mem = build_tree(sim)
        cpu.register_injection_point("regfile", object())
        mem.register_injection_point("array", object())
        points = top.all_injection_points()
        assert set(points) == {
            "top.ecu0.cpu.regfile",
            "top.ecu0.mem.array",
        }

    def test_duplicate_registration_rejected(self, sim):
        top, *_ = build_tree(sim)
        top.register_injection_point("x", object())
        with pytest.raises(ValueError):
            top.register_injection_point("x", object())

    def test_local_view_is_a_copy(self, sim):
        top, *_ = build_tree(sim)
        top.register_injection_point("x", object())
        view = top.injection_points
        view["y"] = object()
        assert "y" not in top.injection_points
