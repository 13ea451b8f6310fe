"""Fault protocol: ``racetrack.weight_pass`` (the weight-track protocol the
simulator applies) against the ``WeightTrackGroup`` device model, and fault
plans that do not depend on the EDC flags."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnfast.error_model import ErrorConfig, FaultPlan
from rnnfast.mapping import HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.racetrack import WORD_PLANES, WeightTrackGroup, weight_pass


class Counter(dict):
    def add(self, op, n=1):
        self[op] = self.get(op, 0) + n


def device_pass(weights, faults, edc):
    """(weights as read, zero substitutions, suppressed shifts) of one pass
    through the device model; `faults` holds (slot, plane) overshifts."""
    ledger = Counter()
    track = WeightTrackGroup(weights, edc_enabled=edc)
    outcomes = [
        track.read_next({plane for s, plane in faults if s == slot}, ledger)
        for slot in range(len(weights))
    ]
    zeroed = sum(o.kind == "substituted_zero" for o in outcomes)
    suppressed = WORD_PLANES * (len(weights) - 1) - ledger.get("track_shift", 0)
    return [o.weight_raw for o in outcomes], zeroed, suppressed


def protocol_pass(weights, faults, edc):
    fault_slots = {}
    for slot, plane in sorted(faults):
        fault_slots.setdefault(plane, []).append(slot)
    read, zeroed, suppressed = weight_pass(weights, fault_slots, edc)
    return [int(v) for v in read], zeroed, suppressed


@st.composite
def passes(draw):
    k = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(-32768, 32767), min_size=k, max_size=k))
    slot_planes = st.tuples(st.integers(1, max(k - 1, 1)), st.integers(0, WORD_PLANES - 1))
    faults = draw(st.sets(slot_planes, max_size=8 if k > 1 else 0))
    return weights, faults


@settings(max_examples=300, deadline=None)
@given(passes(), st.booleans())
def test_weight_pass_matches_the_device_for_faults_after_slot_0(case, edc):
    weights, faults = case
    assert protocol_pass(weights, faults, edc) == device_pass(weights, faults, edc)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: FaultPlan and weight_pass let a fault land on slot 0, "
    "which no shift precedes; the device reads slot 0 cleanly",
)
@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
def test_weight_pass_matches_the_device_for_a_slot_0_fault(edc):
    weights = [0x0101, 0x0202, 0x0303, 0x0404]
    faults = {(0, 0), (2, 9)}
    assert protocol_pass(weights, faults, edc) == device_pass(weights, faults, edc)


def test_edc_flags_leave_the_fault_plan_unchanged():
    spec = NetworkSpec((LayerSpec("LSTM", 12, 8), LayerSpec("GRU", 6, 12)), 5)
    placement = map_network(spec, HardwareConfig(weights_per_pe=16))
    plans = [
        FaultPlan(ErrorConfig(p_overshift=3e-2, edc_inputs=ei, edc_weights=ew, seed=3), placement)
        for ei in (False, True)
        for ew in (False, True)
    ]

    def events(plan):
        return plan.input_faults, plan.weight_faults, plan.mac_faults, plan.act_faults

    assert all(events(plans[0]))
    for plan in plans[1:]:
        assert events(plan) == events(plans[0])
        assert plan.total_events() == plans[0].total_events()


def test_weight_pass_displaced_plane_reads_blank_past_the_end():
    # Plane 15 (the sign) of the last slot comes from beyond the track: 0.
    read, zeroed, suppressed = weight_pass(np.array([-1, -1]), {15: [1]}, False)
    assert read.tolist() == [-1, 0x7FFF] and (zeroed, suppressed) == (0, 0)
