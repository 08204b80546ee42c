"""The value rules of the declared module-state capture.

``Module.capture_state`` walks a subtree and records every field the
components' ``STATE_FIELDS`` declare; ``Module.restore_state`` replays
the capture.  Immutable values are stored as they are, lists and
bytearrays are refilled in place, objects declaring ``STATE_FIELDS``
are captured recursively and kept by identity, and anything else —
or a module whose class declares nothing — raises
``SnapshotUnsupported`` naming where it sits.
"""

import random

import pytest

from repro.hw import AdcSensor, Memory, constant
from repro.kernel import Module, Simulator, SnapshotUnsupported
from repro.tlm import GenericPayload


class Platform(Module):
    STATE_FIELDS = ()


class Counter(Module):
    STATE_FIELDS = ("count", "history")

    def __init__(self, name, parent):
        super().__init__(name, parent=parent)
        self.count = 0
        self.history = []


class Tagged(Counter):
    STATE_FIELDS = ("tag",)

    def __init__(self, name, parent):
        super().__init__(name, parent=parent)
        self.tag = "idle"


@pytest.fixture
def root():
    return Platform("top", sim=Simulator())


class TestCapture:
    def test_fields_accumulate_along_the_mro(self, root):
        tagged = Tagged("tagged", parent=root)
        fields = [(obj, field) for obj, field, *_ in root.capture_state()]
        assert fields == [
            (tagged, "count"), (tagged, "history"), (tagged, "tag"),
        ]

    def test_restore_can_be_repeated_from_one_capture(self, root):
        counter = Counter("counter", parent=root)
        counter.history.append(("boot", 0))
        state = root.capture_state()
        history = counter.history
        for run in range(3):
            counter.count += 5 + run
            counter.history.append(("run", run))
            counter.history = ["rebound"]
            root.restore_state(state)
            assert counter.count == 0
            assert counter.history == [("boot", 0)]
            assert counter.history is history

    def test_dmi_region_sees_restored_memory(self, root):
        memory = Memory("ram", parent=root, size=8)
        memory.load(0, b"\x01\x02\x03\x04")
        state = root.capture_state()
        region = memory.get_dmi(GenericPayload.read(0, 4))
        memory.data[:4] = b"\xff\xff\xff\xff"
        assert bytes(region.store[:4]) == b"\xff\xff\xff\xff"
        root.restore_state(state)
        assert region.store is memory.data
        assert bytes(region.store[:4]) == b"\x01\x02\x03\x04"

    def test_analog_fault_keeps_its_identity(self, root):
        sensor = AdcSensor(
            "sensor", parent=root, source=constant(1.0), period=1000
        )
        point = sensor.injection_points["frontend"]
        fault = sensor.fault
        state = root.capture_state()
        point.set_offset(0.5)
        point.stick_at(4.0)
        root.restore_state(state)
        assert sensor.fault is fault and point.fault is fault
        assert (fault.offset, fault.stuck_value) == (0.0, None)
        assert not fault.active


class TestUnsupported:
    @pytest.mark.parametrize("value", [
        {"a": 1}, random.Random(1), {1, 2}, [[1]], object(),
    ], ids=["dict", "random", "set", "nested-list", "object"])
    def test_unsupported_value_names_module_and_field(self, root, value):
        counter = Counter("counter", parent=root)
        counter.count = value
        with pytest.raises(SnapshotUnsupported, match=r"top\.counter\.count"):
            root.capture_state()

    def test_nested_field_is_named_through_its_owner(self, root):
        sensor = AdcSensor(
            "sensor", parent=root, source=constant(1.0), period=1000
        )
        sensor.injection_points["frontend"].set_noise(
            0.1, rng=random.Random(3)
        )
        with pytest.raises(
            SnapshotUnsupported, match=r"top\.sensor\.fault\.noise_rng"
        ):
            root.capture_state()

    def test_undeclared_module_is_named(self, root):
        container = Module("bank", parent=root)
        Counter("counter", parent=container)
        with pytest.raises(SnapshotUnsupported, match=r"top\.bank\b"):
            root.capture_state()

    def test_subclass_must_declare_in_its_own_body(self, root):
        class Quiet(Counter):
            pass

        Quiet("quiet", parent=root)
        with pytest.raises(SnapshotUnsupported, match="Quiet"):
            root.capture_state()
