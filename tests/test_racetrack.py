"""Input chain circulation, weight-track passes, and both EDC protocols."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnfast.racetrack import (
    WORD_PLANES,
    InputTrackChain,
    PadOverrun,
    WeightTrackGroup,
)


class Counter:
    """Minimal ledger for counting device events in unit tests."""

    def __init__(self):
        self.counts = {}

    def add(self, op, n=1):
        self.counts[op] = self.counts.get(op, 0) + n

    def get(self, op):
        return self.counts.get(op, 0)


def rotate_full_pass(chain, faults_by_step=None, ledger=None):
    """Run one full rotation; returns group-0's delivered word sequence."""
    out = []
    for s in range(chain.capacity):
        faults = (faults_by_step or {}).get(s)
        delivered, _ = chain.rotate_step(faults, ledger)
        out.append(delivered[0])
    return out


class TestInputTrackChain:
    @pytest.mark.parametrize("caps", [[], [0], [3, 0], [4, -1]])
    def test_every_group_holds_a_word(self, caps):
        with pytest.raises(ValueError):
            InputTrackChain(caps)

    def test_three_word_circular_buffer(self):
        chain = InputTrackChain([3])
        chain.stage([11, 22, 33])
        assert rotate_full_pass(chain) == [11, 22, 33]
        # After a full pass the content is back in its staged order.
        assert rotate_full_pass(chain) == [11, 22, 33]

    def test_two_groups_behave_as_one_long_chain(self):
        rng = np.random.default_rng(1)
        words = [int(w) for w in rng.integers(0, 1 << 16, size=12)]
        single = InputTrackChain([12])
        single.stage(words)
        split = InputTrackChain([6, 6])
        split.stage(words)
        assert rotate_full_pass(single) == rotate_full_pass(split)
        assert rotate_full_pass(split) == words

    def test_every_group_sees_every_word_once(self):
        rng = np.random.default_rng(2)
        words = [int(w) for w in rng.integers(0, 1 << 16, size=8)]
        chain = InputTrackChain([4, 4])
        chain.stage(words)
        seen = [[], []]
        for _ in range(chain.capacity):
            delivered, _ = chain.rotate_step()
            seen[0].append(delivered[0])
            seen[1].append(delivered[1])
        assert sorted(seen[0]) == sorted(words)
        assert sorted(seen[1]) == sorted(words)
        # Group g starts at its own base offset in the circular order.
        assert seen[0] == words[:4] + words[4:]
        assert seen[1] == words[4:] + words[:4]

    def test_full_rotation_ledger_counts(self):
        led = Counter()
        rng = np.random.default_rng(3)
        chain = InputTrackChain([64])
        chain.stage([int(w) for w in rng.integers(0, 1 << 16, size=64)])
        rotate_full_pass(chain, ledger=led)
        # 64 reads, 64 writes, 64 shifts per bit-plane (16 planes).
        assert led.get("track_read") == 64 * 16
        assert led.get("track_write") == 64 * 16
        assert led.get("track_shift") == 64 * 16

    def test_edc_clean_run_matches_and_costs_no_extra_shifts(self):
        rng = np.random.default_rng(4)
        words = [int(w) for w in rng.integers(0, 1 << 16, size=10)]
        led_off, led_on = Counter(), Counter()
        plain = InputTrackChain([10], edc_enabled=False)
        plain.stage(words)
        guarded = InputTrackChain([10], edc_enabled=True)
        guarded.stage(words)
        assert rotate_full_pass(plain, ledger=led_off) == rotate_full_pass(
            guarded, ledger=led_on
        )
        assert led_off.get("track_shift") == led_on.get("track_shift")
        assert led_on.get("edc_write") == 10 * 16 * 3  # 3-bit pattern per plane

    def test_single_overshift_corrected_exactly(self):
        rng = np.random.default_rng(5)
        words = [int(w) for w in rng.integers(0, 1 << 16, size=8)]
        clean = InputTrackChain([8], edc_enabled=True)
        clean.stage(words)
        want = rotate_full_pass(clean)

        faulty = InputTrackChain([8], edc_enabled=True)
        faulty.stage(words)
        got = []
        corrected = []
        for s in range(8):
            faults = {0: (5,)} if s == 3 else None
            delivered, fixed = faulty.rotate_step(faults)
            got.append(delivered[0])
            corrected.append(fixed[0])
        assert got == want
        assert corrected == [()] * 3 + [(5,)] + [()] * 4

    def test_suppressed_shift_after_correction(self):
        words = [0xFFFF] * 6
        led_clean, led_fault = Counter(), Counter()
        chain = InputTrackChain([6], edc_enabled=True)
        chain.stage(words)
        rotate_full_pass(chain, ledger=led_clean)
        chain2 = InputTrackChain([6], edc_enabled=True)
        chain2.stage(words)
        rotate_full_pass(chain2, faults_by_step={2: {0: (7,)}}, ledger=led_fault)
        # The corrected plane skips exactly one shift; nothing else changes.
        assert led_fault.get("track_shift") == led_clean.get("track_shift") - 1

    def test_edc_exactness_under_random_fault_traces(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(4, 20))
            words = [int(w) for w in rng.integers(0, 1 << 16, size=n)]
            clean = InputTrackChain([n], edc_enabled=True)
            clean.stage(words)
            want = rotate_full_pass(clean)
            faulty = InputTrackChain([n], edc_enabled=True)
            faulty.stage(words)
            trace = {
                s: {0: tuple(k for k in range(16) if rng.random() < 0.08)}
                for s in range(n)
            }
            assert rotate_full_pass(faulty, faults_by_step=trace) == want

    def test_uncorrected_overshift_persists_for_rest_of_pass(self):
        words = [1, 0, 0, 0]  # plane 0 carries 1,0,0,0
        chain = InputTrackChain([4], edc_enabled=False)
        chain.stage(words)
        got = []
        for s in range(4):
            faults = {0: (0,)} if s == 1 else None
            delivered, _ = chain.rotate_step(faults)
            got.append(delivered[0])
        # Step 0 delivers word0=1.  From step 1 on, plane 0 reads its right
        # neighbour's bit: step1 sees word2(0), step2 sees word3(0), step3
        # sees the chained copy of word0 (=1) arriving early.
        assert got == [1, 0, 0, 1]


    def test_stage_rejects_words_outside_16_bits(self):
        for bad in (1 << 16, -(1 << 15) - 1):
            chain = InputTrackChain([2, 1])
            with pytest.raises(ValueError):
                chain.stage([0, bad, 0])
        chain.stage([-(1 << 15), (1 << 16) - 1, -1])
        assert rotate_full_pass(chain) == [0x8000, 0xFFFF, 0xFFFF]

    @pytest.mark.parametrize("bad", [1.7, -2.2, 65535.5, 3.0, True, np.bool_(False), "1", None])
    def test_stage_rejects_words_that_are_not_integers(self, bad):
        chain = InputTrackChain([2, 1])
        with pytest.raises(ValueError):
            chain.stage([0, bad, 0])
        chain.stage([np.int16(-1), np.uint16(2), np.int64(3)])
        assert rotate_full_pass(chain) == [0xFFFF, 2, 3]

    def test_stage_rejects_the_wrong_word_count(self):
        chain = InputTrackChain([2, 1])
        for words in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError):
                chain.stage(words)
        with pytest.raises(ValueError):
            InputTrackChain([])

    @pytest.mark.parametrize("faults", [
        {0: (WORD_PLANES,)}, {0: (-1,)}, {1: (0, 16)}, {2: (0,)}, {-1: (0,)}, {"0": (0,)},
    ])
    def test_rotate_step_rejects_faults_outside_the_chain(self, faults):
        chain = InputTrackChain([2, 1])
        chain.stage([1, 2, 3])
        with pytest.raises(ValueError):
            chain.rotate_step(faults)


def chain_recurrence(caps, words, faults, steps, edc):
    """Deliveries, corrected planes and shift count of a chain pass, from
    the closed-form recurrence rather than a track model.

    Group g's queue is its staged words, then what group g+1 (mod G)
    delivered at each step.  With EDC off, step s delivers bit k of queue
    word s + min(e, cap_g - 1), e being the distinct faults on (g, k) up to
    step s.  With EDC on, every delivery is the fault-free word, and the
    corrected planes are the step's fault planes minus the previous step's
    corrections, each of which holds one shift.
    """
    n_groups = len(caps)
    bases = np.cumsum([0] + caps[:-1])
    queues = [[w & 0xFFFF for w in words[b:b + c]] for b, c in zip(bases, caps)]
    displaced = [[0] * WORD_PLANES for _ in caps]
    previous = [set() for _ in caps]
    deliveries, corrected, shifts = [], [], 0
    for s in range(steps):
        row, fixed = [], []
        for g, cap in enumerate(caps):
            planes = set(faults.get(s, {}).get(g, ()))
            if edc:
                fixed.append(tuple(sorted(planes - previous[g])))
                shifts += WORD_PLANES - len(previous[g])
                previous[g] = set(fixed[-1])
                row.append(queues[g][s])
                continue
            for k in planes:
                displaced[g][k] += 1
            row.append(sum(
                (queues[g][s + min(displaced[g][k], cap - 1)] >> k & 1) << k
                for k in range(WORD_PLANES)
            ))
            fixed.append(())
            shifts += WORD_PLANES
        for g in range(n_groups):
            queues[g].append(row[(g + 1) % n_groups])
        deliveries.append(row)
        corrected.append(fixed)
    return deliveries, corrected, shifts


@st.composite
def chain_passes(draw):
    caps = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    n = sum(caps)
    words = draw(st.lists(st.integers(-(1 << 15), (1 << 16) - 1), min_size=n, max_size=n))
    steps = draw(st.integers(0, 2 * n))
    events = st.tuples(
        st.integers(0, max(steps - 1, 0)),
        st.integers(0, len(caps) - 1),
        st.integers(0, WORD_PLANES - 1),
    )
    faults = {}
    for s, g, k in draw(st.lists(events, max_size=12 if steps else 0)):
        # Repeats of a plane on one group-step are one fault.
        faults.setdefault(s, {}).setdefault(g, []).append(k)
    return caps, words, faults, steps, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(chain_passes())
def test_input_chain_matches_the_recurrence(case):
    caps, words, faults, steps, edc = case
    chain = InputTrackChain(caps, edc_enabled=edc)
    chain.stage(words)
    led = Counter()
    deliveries, corrected = [], []
    for s in range(steps):
        delivered, fixed = chain.rotate_step(faults.get(s), led)
        deliveries.append(delivered)
        corrected.append(fixed)
    want, want_corrected, shifts = chain_recurrence(caps, words, faults, steps, edc)
    assert deliveries == want
    assert corrected == want_corrected
    plane_steps = WORD_PLANES * len(caps) * steps
    expected = {
        "track_read": plane_steps,
        "track_write": plane_steps,
        "track_shift": shifts,
        "edc_read": plane_steps if edc else 0,
        "edc_write": 3 * plane_steps if edc else 0,
    }
    assert led.counts == {op: n for op, n in expected.items() if n}


class TestWeightTrackGroup:
    def test_clean_pass_returns_weights_in_order(self):
        rng = np.random.default_rng(7)
        w = [int(v) for v in rng.integers(-(1 << 15), 1 << 15, size=12)]
        grp = WeightTrackGroup(w, edc_enabled=True)
        got = [grp.read_next() for _ in range(12)]
        assert [o.kind for o in got] == ["ok"] * 12
        assert [o.weight_raw for o in got] == w

    def test_pass_costs_k_minus_1_shifts_plus_rewind(self):
        led = Counter()
        w = list(range(10))
        grp = WeightTrackGroup(w)
        for _ in range(10):
            grp.read_next(ledger=led)
        assert led.get("track_shift") == 9 * 16
        grp.rewind(ledger=led)
        assert led.get("track_shift") == 9 * 16 + 10 * 16

    def test_overshift_substitutes_zero_then_realigns(self):
        w = [100, 200, 300, 400, 500]
        grp = WeightTrackGroup(w, edc_enabled=True)
        outs = []
        for j in range(5):
            faults = (3,) if j == 2 else ()  # overshift between W1 and W2
            outs.append(grp.read_next(fault_planes=faults))
        assert [o.kind for o in outs] == ["ok", "ok", "substituted_zero", "ok", "ok"]
        assert [o.weight_raw for o in outs] == [100, 200, 0, 400, 500]

    def test_every_weight_true_or_zero_under_edc(self):
        rng = np.random.default_rng(8)
        w = [int(v) for v in rng.integers(-(1 << 15), 1 << 15, size=40)]
        grp = WeightTrackGroup(w, edc_enabled=True)
        for j in range(40):
            faults = tuple(k for k in range(16) if rng.random() < 0.05)
            out = grp.read_next(fault_planes=faults)
            assert out.weight_raw in (0, w[j])

    def test_edc_off_misalignment_mixes_neighbour_bits(self):
        w = [0x0001, 0x0002, 0x0004, 0x0008]
        grp = WeightTrackGroup(w, edc_enabled=False)
        assert grp.read_next().weight_raw == 0x0001
        # plane 1 overshifts on the advance to W1
        out = grp.read_next(fault_planes=(1,))
        # W1's plane-1 bit now comes from W2 (bit 1 of 0x0004 is 0).
        assert out.weight_raw == 0x0000
        out = grp.read_next()
        # W2's plane-1 bit comes from W3: still 0; plane-2 true bit is 1.
        assert out.weight_raw == 0x0004

    def test_zero_vs_nonzero_fault_rate_differ_only_at_events(self):
        rng = np.random.default_rng(9)
        w = [int(v) for v in rng.integers(-(1 << 15), 1 << 15, size=30)]
        base = [WeightTrackGroup(w, edc_enabled=True).read_next().weight_raw]
        grp0 = WeightTrackGroup(w, edc_enabled=True)
        grp1 = WeightTrackGroup(w, edc_enabled=True)
        fault_slots = {7, 19}
        a, b = [], []
        for j in range(30):
            a.append(grp0.read_next().weight_raw)
            b.append(grp1.read_next(fault_planes=(2,) if j in fault_slots else ()).weight_raw)
        assert base[0] == a[0]
        diff = [j for j in range(30) if a[j] != b[j]]
        assert diff == sorted(fault_slots)

    @pytest.mark.parametrize("bad", [1.9, -0.5, True, np.bool_(True), 1 << 15, -(1 << 15) - 1,
                                     np.int64(1 << 16), "1", None])
    def test_weights_must_be_raw_q8_8_integers(self, bad):
        with pytest.raises(ValueError):
            WeightTrackGroup([1, bad, 2])
        grp = WeightTrackGroup([np.int16(-(1 << 15)), np.int64((1 << 15) - 1), 0])
        assert [grp.read_next().weight_raw for _ in range(3)] == [-(1 << 15), (1 << 15) - 1, 0]

    def test_overrun_guard(self):
        grp = WeightTrackGroup([1, 2])
        grp.read_next()
        grp.read_next()
        with pytest.raises(PadOverrun):
            grp.read_next()
        grp.rewind()
        assert grp.read_next().weight_raw == 1
