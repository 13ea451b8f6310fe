"""Domain-wall (racetrack) storage models: chained input buffers, weight
tracks, and both EDC protocols.

A track is a run of binary domains that moves one position per shift past
fixed access ports; 16 bit-plane tracks side by side hold a 16-bit word at
each position.  A fault is a single-position overshift of one plane.  Two
models live here, plus the vectorized form of the second, which the
simulator uses:

* ``InputTrackChain`` -- a circular buffer of 16-bit words built from
  word-striped track groups (16 bit-plane tracks per group, one group per
  tile).  Each rotate step every group reads the word at its head,
  broadcasts it, and writes it to its left neighbour's tail; after
  ``capacity`` steps the content returns to its starting order.  The 16
  planes of a group always hold the same words, so a group is one queue of
  words plus, per plane, its uncorrected overshift and whether its next
  shift is held.  An uncorrected overshift displaces its plane by one word
  for the remainder of the pass, so the delivered word takes that plane's
  bit from a later word of the queue.  With EDC enabled a 3-bit pattern
  rewritten during the existing write slot makes every single-position
  overshift visible in the post-shift check bit; the secondary head (one
  position behind) supplies the correct word, the tail write is placed
  accordingly, and the controller holds that plane's next shift -- so the
  decoded stream is exactly the fault-free stream, at zero added cycles.
  The simulator replays this model over the window of a faulted pass with
  EDC on only; with EDC off it follows each displaced plane's deliveries
  back through the queues in closed form, checked against this model.

* ``WeightTrackGroup`` -- the weight-stationary storage of one PE, kept as
  the reference that the vectorized form is tested against.  Advancing
  exposes the next weight after one single-position shift per plane; a full
  pass over K weights costs K-1 shifts plus a rewind.  The fixed EDC pattern
  alternates 0/1 by weight index, so a misaligned plane's observed check bit
  disagrees with the expected parity; on mismatch the returned weight is
  exactly zero and the misaligned plane's next shift is suppressed, which
  realigns the stream from the following weight onward.  Its vectorized
  form over whole passes of a batch of tracks, the only implementation of
  this protocol that the simulator uses, is split by the EDC setting:
  ``weight_zeros`` (EDC on) finds the zeroed (track, slot) pairs and the
  held shifts from the fault rows and track lengths alone, since every
  other slot reads its stored weight; ``weight_misreads`` (EDC off) gives,
  for each displaced (track, plane) pair, the slot that each slot's bit of
  that plane is read from, again from the fault rows alone, since a fault
  moves only its own plane.  In the simulator, one call per (layer,
  timestep) covers every faulted PE track of the step.

Fault decisions are injected by the caller (the planes that overshoot, per
step or read), so the models themselves hold no randomness.  Counters are
reported through a duck-typed ledger with ``add(op, n)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

WORD_PLANES = 16
INPUT_EDC_PATTERN = (1, 0, 1)       # rewritten each cycle on every input track


class PadOverrun(Exception):
    """A weight pass read past its last weight without a rewind (a
    scheduler bug, not a modeled device fault)."""


def _ledger_add(ledger, op, n=1):
    if ledger is not None and n:
        ledger.add(op, n)


@dataclass
class StepOutcome:
    """Per-rotate-step EDC bookkeeping for one track group."""

    ok: bool = True
    corrected_planes: tuple = ()


class InputTrackGroup:
    """One tile's input buffer: word-striped storage of `capacity` words."""

    def __init__(self, capacity=64, edc_enabled=False, group_id=0):
        self.capacity = capacity
        self.edc_enabled = edc_enabled
        self.group_id = group_id
        self.words = deque()  # unsigned; the head is aligned after the next shift
        self._mis = {}        # displaced plane -> uncorrected overshift
        self._held = set()    # planes whose next shift the controller holds

    def stage(self, words):
        if len(words) != self.capacity:
            raise ValueError(f"group {self.group_id} stages {self.capacity} words")
        if any(not -(1 << 15) <= w < 1 << 16 for w in words):
            raise ValueError(f"group {self.group_id} stages words in [-2^15, 2^16)")
        self.words = deque(int(w) & 0xFFFF for w in words)
        self._mis = {}
        self._held = set()

    def rotate(self, fault_planes=(), ledger=None):
        """Shift, check and read one step, and pop the head word.

        `fault_planes` lists planes whose shift overshoots this step; a held
        plane does not shift, so its fault is a no-op.  Returns
        (delivered_word, StepOutcome).  The caller then appends the chain
        write at the tail: the word the right neighbour delivered this step.
        """
        held = self._held
        for k in set(fault_planes) - held:
            self._mis[k] = self._mis.get(k, 0) + 1
        corrected = ()
        self._held = set()
        if self.edc_enabled and self._mis:
            # Post-shift check bit reads 0; the secondary head, one position
            # behind, still exposes the correct bit.
            corrected = tuple(sorted(self._mis))
            self._held = set(corrected)
            self._mis = {}
        word = self.words[0]
        for k, e in self._mis.items():
            word ^= (word ^ self.words[min(e, self.capacity - 1)]) & (1 << k)
        self.words.popleft()

        _ledger_add(ledger, "track_shift", WORD_PLANES - len(held))
        _ledger_add(ledger, "track_read", WORD_PLANES)
        _ledger_add(ledger, "track_write", WORD_PLANES)
        if self.edc_enabled:
            _ledger_add(ledger, "edc_read", WORD_PLANES)
            _ledger_add(ledger, "edc_write", WORD_PLANES * len(INPUT_EDC_PATTERN))
        return word, StepOutcome(ok=not corrected, corrected_planes=corrected)


class InputTrackChain:
    """Circular word buffer over one or more track groups (MUX-chained)."""

    def __init__(self, group_capacities, edc_enabled=False):
        if not group_capacities:
            raise ValueError("a chain needs at least one track group")
        self.groups = [
            InputTrackGroup(c, edc_enabled=edc_enabled, group_id=g)
            for g, c in enumerate(group_capacities)
        ]
        self.capacity = int(sum(group_capacities))
        self.edc_enabled = edc_enabled

    def stage(self, words):
        if len(words) != self.capacity:
            raise ValueError(f"chain stages exactly {self.capacity} words")
        lo = 0
        for grp in self.groups:
            grp.stage(list(words[lo : lo + grp.capacity]))
            lo += grp.capacity

    def rotate_step(self, fault_planes=None, ledger=None):
        """One synchronized step of the whole chain.

        `fault_planes` maps group index -> iterable of overshifting planes.
        Returns (delivered_words_per_group, outcomes_per_group).  Every group
        reads its head, then receives at its tail the word its right
        neighbour delivered in the same step.  A plane corrected this step
        writes one position left, so content stays coherent; an uncorrected
        plane's displaced write cancels against its displaced read, so the
        plain append models it exactly.
        """
        fault_planes = fault_planes or {}
        for g, planes in fault_planes.items():
            if g not in range(len(self.groups)):
                raise ValueError(f"fault on group {g!r}, not a group of this chain")
            if any(k not in range(WORD_PLANES) for k in planes):
                raise ValueError(f"fault planes {planes!r} outside [0, {WORD_PLANES})")
        steps = [grp.rotate(fault_planes.get(g, ()), ledger) for g, grp in enumerate(self.groups)]
        deliveries = [word for word, _outcome in steps]
        for g, grp in enumerate(self.groups):
            grp.words.append(deliveries[(g + 1) % len(steps)])
        return deliveries, [outcome for _word, outcome in steps]

    def read_words_in_order(self):
        """Current content in delivery order (debug/verification)."""
        return [w for grp in self.groups for w in grp.words]


@dataclass
class WeightOutcome:
    kind: str          # "ok" | "substituted_zero"
    weight_raw: int


class WeightTrackGroup:
    """Weight-stationary storage of one PE path (x or h weights)."""

    def __init__(self, weights, edc_enabled=False, rewind_cost="full_pass"):
        self.weights = [int(w) for w in weights]
        self.edc_enabled = edc_enabled
        if rewind_cost not in ("full_pass", "free"):
            raise ValueError("rewind_cost must be 'full_pass' or 'free'")
        self.rewind_cost = rewind_cost
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
        """Return to the first weight; realigns the tape and the EDC phase."""
        if self.rewind_cost == "full_pass":
            _ledger_add(ledger, "track_shift", WORD_PLANES * self.capacity)
        self.slot = 0
        self._mis = [0] * WORD_PLANES
        self._suppress = [False] * WORD_PLANES


def weight_zeros(lengths, faults):
    """Zero substitutions of whole EDC-on passes of a batch of
    ``WeightTrackGroup`` tracks, from the fault rows alone.

    `lengths[i]` is track i's number of weights; `faults` holds rows
    (track, plane, slot), one per overshooting advance, in any order.  A
    detected fault zeroes its slot and holds that plane's next shift, so in
    every run of consecutive fault slots on one (track, plane) each second
    fault is a no-op.  Returns (the zeroed slots as distinct rows (track,
    slot), sorted; the shifts held back, summed over the batch).  Every
    other slot reads its stored weight.

    Known defect: unlike ``read_next``, a fault at slot 0 takes effect
    although no shift precedes the first read.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    track, plane, slot = np.asarray(faults, dtype=np.int64).reshape(-1, 3).T
    order = np.lexsort((slot, plane, track))
    track, plane, slot = track[order], plane[order], slot[order]
    run_start = np.ones(len(slot), dtype=bool)
    run_start[1:] = (track[1:] != track[:-1]) | (plane[1:] != plane[:-1]) | (
        slot[1:] != slot[:-1] + 1
    )
    starts = np.flatnonzero(run_start)
    index_in_run = np.arange(len(slot)) - starts[np.cumsum(run_start) - 1]
    live = index_in_run % 2 == 0
    track, slot = track[live], slot[live]
    held = int(np.count_nonzero(slot + 1 < lengths[track]))
    k = int(lengths.max(initial=1))
    zeroed = np.unique(track * k + slot)
    return np.stack(np.divmod(zeroed, k), axis=1), held


def weight_misreads(lengths, faults):
    """Misread plane bits of whole EDC-off passes of a batch of
    ``WeightTrackGroup`` tracks, from the fault rows alone.

    `lengths[i]` is track i's number of weights; `faults` holds rows
    (track, plane, slot), one per overshooting advance, in any order.  Every
    fault displaces its plane by one more word for the rest of the pass, so
    a displaced (track, plane) pair reads that plane's bit at `slot` from
    slot + (its faults at or before `slot`), and a source at or past the
    track's length reads a blank (0) bit.  Returns the columns (track,
    plane, slot, source) of one row per slot of each displaced pair, from
    its first fault to the end of its track, sorted by track, plane and
    slot.  Every other bit of every slot reads its stored bit.

    Known defect: unlike ``read_next``, a fault at slot 0 takes effect
    although no shift precedes the first read.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    track, plane, slot = np.asarray(faults, dtype=np.int64).reshape(-1, 3).T
    # Distinct fault rows, sorted: a repeated row is one overshoot.
    width = int(lengths.max(initial=1))
    pair, slot = np.divmod(np.unique((track * WORD_PLANES + plane) * width + slot), width)
    first = np.diff(pair, prepend=-1) != 0
    last = np.diff(pair, append=-1) != 0
    # Each fault starts a run of rows, up to its pair's next fault or the
    # end of its track, displaced by its rank in the pair plus one.
    rank = np.arange(len(pair)) - np.maximum.accumulate(np.where(first, np.arange(len(pair)), 0))
    run = np.where(last, lengths[pair // WORD_PLANES], np.roll(slot, -1)) - slot
    at = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run - slot, run)
    return (np.repeat(pair // WORD_PLANES, run), np.repeat(pair % WORD_PLANES, run), at,
            at + np.repeat(rank + 1, run))
