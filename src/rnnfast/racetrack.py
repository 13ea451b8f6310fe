"""Domain-wall (racetrack) storage models: chained input buffers, weight
tracks, and both EDC protocols.

A track is a run of binary domains that moves one position per shift past
fixed access ports; 16 bit-plane tracks side by side hold a 16-bit word at
each position.  A fault is a single-position overshift of one plane.  Two
device models live here, plus the vectorized form of the second, which the
simulator uses:

* ``InputTrackChain`` -- a circular buffer of 16-bit words built from
  word-striped track groups (16 bit-plane tracks per group, one group per
  tile).  Each rotate step every group reads the word at its head,
  broadcasts it, and writes it to its left neighbour's tail; after
  ``capacity`` steps the content returns to its starting order.  The 16
  planes of a group always hold the same words, so the chain keeps, per
  group, one queue of words, the uncorrected overshift of each displaced
  plane, and the planes whose next shift is held.  An uncorrected
  overshift displaces its plane by one word for the remainder of the pass,
  so the delivered word takes that plane's bit from a later word of the
  queue.  With EDC enabled a 3-bit pattern rewritten during the existing
  write slot makes every single-position overshift visible in the
  post-shift check bit; the secondary head (one position behind) supplies
  the correct word, the tail write is placed accordingly, and the
  controller holds that plane's next shift -- so the decoded stream is
  exactly the fault-free stream, at zero added cycles.  ``rotate_step``
  returns plain lists: the word each group delivered and the planes each
  group corrected.  With EDC on the simulator needs only the counts of
  corrections and held shifts, which do not depend on the words, so it
  replays this model with nothing staged, once per run, over each maximal
  run of a pass's faulted steps and the step after it; with EDC off it
  follows each displaced plane's deliveries back through the queues in
  closed form, checked against this model.

* ``WeightTrackGroup`` -- the weight-stationary storage of one PE, kept as
  the reference that the vectorized form is tested against.  Advancing
  exposes the next weight after one single-position shift per plane; a full
  pass over K weights costs K-1 shifts plus a rewind of K shifts.  The fixed
  EDC pattern alternates 0/1 by weight index, so a misaligned plane's
  observed check bit disagrees with the expected parity; on mismatch the
  returned weight is exactly zero and the misaligned plane's next shift is
  suppressed, which realigns the stream from the following weight onward.
  Its vectorized form over whole passes of a batch of tracks, the only
  implementation of this protocol that the simulator uses, is split by the
  EDC setting: ``weight_zeros`` (EDC on) finds the zeroed (track, slot)
  pairs and the held shifts from the fault rows and track lengths alone,
  since every other slot reads its stored weight; ``weight_plane_reads``
  (EDC off) takes each displaced (track, plane) pair's stored bits of that
  plane from the pair's first fault on, one row per pair, and gives them
  as read, since a fault moves only its own plane and no slot before it.
  The simulator makes one ``weight_zeros`` call per (layer, block of
  timesteps) over every faulted PE track of the block, each step's pass a
  track of its own, and one ``weight_plane_reads`` call per decode unit: a
  run of the block's displaced (step, track, plane) pairs whose rows fit
  one buffer, which may split a step or span several.  It reads the stored
  weight and delivered word at each zeroed slot through its one
  arrival-order lookup.

Fault decisions are injected by the caller (the planes that overshoot, per
step or read), so the models themselves hold no randomness.  Counters are
reported through a duck-typed ledger with ``add(op, n)``.
"""

from __future__ import annotations

import numbers
from collections import deque
from itertools import islice, repeat
from dataclasses import dataclass

import numpy as np

WORD_PLANES = 16
INPUT_EDC_PATTERN = (1, 0, 1)       # rewritten each cycle on every input track


class PadOverrun(Exception):
    """A weight pass read past its last weight without a rewind (a
    scheduler bug, not a modeled device fault)."""


def _ledger_add(ledger, op, n):
    if ledger is not None and n:
        ledger.add(op, n)


def _integers(values, lo, hi, what):
    """`values` as a list of Python ints; ValueError for a bool, a value
    that is not an integer or one outside [lo, hi], as the simulator
    rejects anything but raw 16-bit integers."""
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not lo <= v <= hi:
            raise ValueError(f"{what} must be integers in [{lo}, {hi}], not {v!r}")
        out.append(int(v))
    return out


class InputTrackChain:
    """Circular word buffer over one or more track groups (MUX-chained).

    Group g is one tile's buffer of ``group_capacities[g]`` words: a queue
    of unsigned words whose head is aligned after the next shift, the
    uncorrected overshift of each displaced plane, and the planes whose next
    shift the controller holds.
    """

    def __init__(self, group_capacities, edc_enabled=False):
        if not group_capacities:
            raise ValueError("a chain needs at least one track group")
        if min(group_capacities) < 1:
            raise ValueError("every track group holds at least one word")
        self.group_capacities = [int(c) for c in group_capacities]
        self.capacity = sum(self.group_capacities)
        self.edc_enabled = edc_enabled
        self._load(repeat(0))

    def stage(self, words):
        """Write `words` into the groups in order and clear every fault.

        Raises ValueError unless `words` are `capacity` integers in
        [-2^15, 2^16)."""
        if len(words) != self.capacity:
            raise ValueError(f"chain stages exactly {self.capacity} words")
        self._load(w & 0xFFFF for w in _integers(words, -(1 << 15), (1 << 16) - 1, "chain words"))

    def _load(self, unsigned):
        """Fill the groups in order from the iterator `unsigned` of words in
        [0, 2^16) and clear every fault."""
        self.queues = [deque(islice(unsigned, cap)) for cap in self.group_capacities]
        self.displaced = [{} for _ in self.queues]
        self.held = [() for _ in self.queues]

    def rotate_step(self, fault_planes=None, ledger=None):
        """One synchronized step of the whole chain.

        `fault_planes` maps group index -> iterable of planes whose shift
        overshoots this step; a held plane does not shift, so its fault is a
        no-op.  Returns (the word each group delivered, the planes each
        group's EDC corrected, as a sorted tuple).  Every group reads its
        head, then receives at its tail the word its right neighbour
        delivered in the same step.  A plane corrected this step writes one
        position left, so content stays coherent; an uncorrected plane's
        displaced write cancels against its displaced read, so the plain
        append models it exactly.
        """
        fault_planes = fault_planes or {}
        for g, planes in fault_planes.items():
            if g not in range(len(self.queues)):
                raise ValueError(f"fault on group {g!r}, not a group of this chain")
            if any(k not in range(WORD_PLANES) for k in planes):
                raise ValueError(f"fault planes {planes!r} outside [0, {WORD_PLANES})")
        delivered, corrected = [], []
        held_shifts = sum(map(len, self.held))
        for g, (queue, mis) in enumerate(zip(self.queues, self.displaced)):
            for k in set(fault_planes.get(g, ())).difference(self.held[g]):
                mis[k] = mis.get(k, 0) + 1
            # With EDC the post-shift check bit reads 0, and the secondary
            # head, one position behind, still exposes the correct bit.
            fixed = tuple(sorted(mis)) if self.edc_enabled else ()
            if fixed:
                mis.clear()
            self.held[g] = fixed
            word = queue[0]
            for k, e in mis.items():
                word ^= (word ^ queue[min(e, self.group_capacities[g] - 1)]) & (1 << k)
            queue.popleft()
            delivered.append(word)
            corrected.append(fixed)
        for g, queue in enumerate(self.queues):
            queue.append(delivered[(g + 1) % len(delivered)])

        plane_steps = WORD_PLANES * len(self.queues)
        _ledger_add(ledger, "track_shift", plane_steps - held_shifts)
        _ledger_add(ledger, "track_read", plane_steps)
        _ledger_add(ledger, "track_write", plane_steps)
        if self.edc_enabled:
            _ledger_add(ledger, "edc_read", plane_steps)
            _ledger_add(ledger, "edc_write", plane_steps * len(INPUT_EDC_PATTERN))
        return delivered, corrected


@dataclass
class WeightOutcome:
    kind: str          # "ok" | "substituted_zero"
    weight_raw: int


class WeightTrackGroup:
    """Weight-stationary storage of one PE path (x or h weights): raw Q8.8
    integers in [-2^15, 2^15), else ValueError."""

    def __init__(self, weights, edc_enabled=False):
        self.weights = _integers(weights, -(1 << 15), (1 << 15) - 1, "weights")
        self.edc_enabled = edc_enabled
        self.slot = 0
        self._mis = [0] * WORD_PLANES
        self._suppress = [False] * WORD_PLANES

    @property
    def capacity(self):
        return len(self.weights)

    def _plane_bit(self, slot, plane):
        # Reads displaced past the last weight land in the EDC/blank region.
        if slot >= self.capacity:
            return 0
        return (self.weights[slot] >> plane) & 1

    def read_next(self, fault_planes=(), ledger=None) -> WeightOutcome:
        """Advance (except for the first slot) and read one weight."""
        if self.slot >= self.capacity:
            raise PadOverrun("weight pass overran the stored weights; rewind first")
        if self.slot > 0:
            shifts = 0
            for k in range(WORD_PLANES):
                if self._suppress[k]:
                    self._suppress[k] = False
                else:
                    shifts += 1
                    if k in fault_planes:
                        self._mis[k] += 1
            _ledger_add(ledger, "track_shift", shifts)
            if self.edc_enabled:
                _ledger_add(ledger, "edc_read", WORD_PLANES)
        _ledger_add(ledger, "track_read", WORD_PLANES)

        slot = self.slot
        self.slot += 1
        if self.edc_enabled:
            # Stored pattern alternates 0/1 by weight index; a plane displaced
            # by e observes parity (slot+e) & 1 against expected slot & 1, so
            # any odd displacement trips the check.
            bad = tuple(k for k in range(WORD_PLANES) if self._mis[k] % 2 == 1)
            if bad:
                for k in bad:
                    self._mis[k] = 0
                    self._suppress[k] = True
                return WeightOutcome("substituted_zero", 0)
            return WeightOutcome("ok", self.weights[slot])
        word = 0
        for k in range(WORD_PLANES):
            word |= self._plane_bit(slot + self._mis[k], k) << k
        # Reassemble as signed 16-bit.
        if word >= 1 << 15:
            word -= 1 << 16
        return WeightOutcome("ok", word)

    def rewind(self, ledger=None):
        """Return to the first weight at the cost of a full pass; realigns
        the tape and the EDC phase."""
        _ledger_add(ledger, "track_shift", WORD_PLANES * self.capacity)
        self.slot = 0
        self._mis = [0] * WORD_PLANES
        self._suppress = [False] * WORD_PLANES


def _distinct(keys):
    """The distinct values of the integer array `keys`, sorted: one sort and
    a neighbour compare, several times faster than ``np.unique`` on the few
    thousand keys of a block of faults."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def weight_zeros(lengths, faults):
    """Zero substitutions of whole EDC-on passes of a batch of
    ``WeightTrackGroup`` tracks, from the fault rows alone.

    `lengths[i]` is track i's number of weights; `faults` holds rows
    (track, plane, slot), one per overshooting advance, in any order; a
    repeated row is one overshoot.  A detected fault zeroes its slot and
    holds that plane's next shift, so in every run of consecutive fault
    slots on one (track, plane) each second fault is a no-op.  Returns (the
    zeroed slots as distinct rows (track, slot), sorted; the shifts held
    back, summed over the batch).  Every other slot reads its stored
    weight.

    Known defect: unlike ``read_next``, a fault at slot 0 takes effect
    although no shift precedes the first read.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    k = int(lengths.max(initial=1))
    track, plane, slot = np.asarray(faults, dtype=np.int64).reshape(-1, 3).T
    # Distinct rows, sorted by (track, plane, slot).
    pair, slot = np.divmod(_distinct((track * WORD_PLANES + plane) * k + slot), k)
    run_start = np.ones(len(slot), dtype=bool)
    run_start[1:] = (pair[1:] != pair[:-1]) | (slot[1:] != slot[:-1] + 1)
    starts = np.flatnonzero(run_start)
    index_in_run = np.arange(len(slot)) - starts[np.cumsum(run_start) - 1]
    live = index_in_run % 2 == 0
    track, slot = pair[live] // WORD_PLANES, slot[live]
    held = int(np.count_nonzero(slot + 1 < lengths[track]))
    zeroed = _distinct(track * k + slot)
    return np.stack(np.divmod(zeroed, k), axis=1), held


def weight_plane_reads(bits, faults):
    """One bit plane of whole EDC-off passes of a batch of displaced
    ``WeightTrackGroup`` tracks, as read from each pair's first fault on,
    from the stored bits and the fault rows alone.

    Row i of `bits` holds one (track, plane) pair's stored bits of that
    plane in the order the track reads them, from the slot of the pair's
    first fault on, and 0 past the track's length; the slots before that
    fault read their stored bits.  So each row's first fault is at its slot
    0, and `faults` holds rows (row, slot) of the pairs' later overshooting
    advances, in any order, each slot counted from its row's start; a
    repeated row, or one at slot 0, is no further overshoot.  Every fault
    displaces the plane by one more word for the rest of the pass, so slot
    s reads the bit at s + d, d the distinct faults at or before s, and a
    bit past the end reads blank (0).  Returns the bits as read, in the
    shape and dtype of `bits`.  Every other plane of every slot reads its
    stored bit.

    A row without a later fault reads its stored bits one slot on, with a
    blank at its last slot; only the rows with a later fault count their
    faults slot by slot.

    Known defect: unlike ``read_next``, a fault at a track's first slot
    takes effect although no shift precedes the first read.
    """
    bits = np.asarray(bits)
    width = bits.shape[1]
    read = np.zeros_like(bits)
    read[:, :-1] = bits[:, 1:]
    row, slot = np.asarray(faults, dtype=np.int64).reshape(-1, 2).T
    if not len(row):
        return read
    # Slot s of the i-th row with a later fault reads the bit at src[i, s]:
    # s plus its distinct faults up to s, the first one included.
    later = _distinct(row)
    src = np.zeros((len(later), width), dtype=np.int32)
    src[np.searchsorted(later, row), slot] = slot > 0
    src = np.cumsum(src, axis=1, out=src) + np.arange(1, width + 1)
    read[later] = bits[later[:, None], np.minimum(src, width - 1)] * (src < width)
    return read
