"""Domain-wall (racetrack) tape model: shifts, ports, chaining, EDC.

Three layers of model live here:

* ``Racetrack`` -- the raw device: a run of binary domains with blank
  padding at both ends, fixed access ports, and a signed alignment offset
  that every single-position shift moves by one.  Shifting the data past the
  padding is a contract violation (a scheduler bug), not a modeled device
  fault.

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

* ``WeightTrackGroup`` -- the weight-stationary storage of one PE. Advancing
  exposes the next weight after one single-position shift per plane; a full
  pass over K weights costs K-1 shifts plus a rewind.  The fixed EDC pattern
  alternates 0/1 by weight index, so a misaligned plane's observed check bit
  disagrees with the expected parity; on mismatch the returned weight is
  exactly zero and the misaligned plane's next shift is suppressed, which
  realigns the stream from the following weight onward.  ``weight_pass`` is
  its vectorized form over one whole pass, and the only implementation of
  this protocol that the simulator uses.

Fault decisions are injected by the caller (a callable per shift event), so
the device model itself holds no randomness.  Counters are reported through
a duck-typed ledger with ``add(op, n)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

WORD_PLANES = 16
INPUT_EDC_PATTERN = (1, 0, 1)       # rewritten each cycle on every input track
WEIGHT_EDC_PATTERN = (0, 1, 0, 1, 0)  # fixed on the tape; check bit alternates


class PadOverrun(Exception):
    """A shift would move data past the blank padding (mapper/scheduler bug)."""


class PortAccessError(Exception):
    """An access used a port whose kind does not permit it."""


def _ledger_add(ledger, op, n=1):
    if ledger is not None and n:
        ledger.add(op, n)


@dataclass(frozen=True)
class Port:
    kind: str        # "read" | "write" | "read-write"
    position: int    # domain index exposed at offset 0

    def can_read(self):
        return self.kind in ("read", "read-write")

    def can_write(self):
        return self.kind in ("write", "read-write")


class Racetrack:
    """A single nanowire: data domains, blank padding, ports, offset."""

    def __init__(self, data_len=64, blank_pad=4, ports=(), bits=None, track_id=""):
        self.data_len = data_len
        self.blank_pad = blank_pad
        self.ports = tuple(ports)
        self.offset = 0
        self.track_id = track_id
        for p in self.ports:
            if not (0 <= p.position < data_len):
                raise ValueError(f"port position {p.position} outside [0, {data_len})")
        self._cells = np.zeros(data_len + 2 * blank_pad, dtype=np.uint8)
        if bits is not None:
            bits = np.asarray(bits, dtype=np.uint8)
            if bits.shape != (data_len,):
                raise ValueError("initial bits must match data_len")
            self._cells[blank_pad : blank_pad + data_len] = bits

    def _cell_index(self, position):
        return self.blank_pad + position + self.offset

    def shift(self, direction=1, ledger=None):
        """Move the tape one position; direction +1 advances toward the ports."""
        if direction not in (1, -1):
            raise ValueError("shift moves exactly one position")
        new_offset = self.offset + direction
        if abs(new_offset) > self.blank_pad:
            raise PadOverrun(
                f"track {self.track_id or '?'}: offset {new_offset} exceeds blank_pad "
                f"{self.blank_pad}"
            )
        self.offset = new_offset
        _ledger_add(ledger, "track_shift")

    def read(self, port: Port, ledger=None) -> int:
        if not port.can_read():
            raise PortAccessError(f"port at {port.position} is not readable")
        _ledger_add(ledger, "track_read")
        return int(self._cells[self._cell_index(port.position)])

    def shift_write(self, port: Port, bit: int, ledger=None):
        if not port.can_write():
            raise PortAccessError(f"port at {port.position} is not writable")
        self._cells[self._cell_index(port.position)] = 1 if bit else 0
        _ledger_add(ledger, "track_write")

    def rewind(self, ledger=None):
        """Return to offset 0, one counted shift per position."""
        while self.offset > 0:
            self.shift(-1, ledger)
        while self.offset < 0:
            self.shift(1, ledger)


def word_bit(word: int, plane: int) -> int:
    return (int(word) >> plane) & 1


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
    mismatched_planes: tuple = ()


class WeightTrackGroup:
    """Weight-stationary storage of one PE path (x or h weights)."""

    def __init__(self, weights, edc_enabled=False, planes=WORD_PLANES,
                 rewind_cost="full_pass"):
        self.weights = [int(w) for w in weights]
        self.edc_enabled = edc_enabled
        self.planes = planes
        if rewind_cost not in ("full_pass", "free"):
            raise ValueError("rewind_cost must be 'full_pass' or 'free'")
        self.rewind_cost = rewind_cost
        self.slot = 0
        self._mis = [0] * planes
        self._suppress = [False] * planes

    @property
    def capacity(self):
        return len(self.weights)

    def _plane_bit(self, slot, plane):
        # Reads displaced past the last weight land in the EDC/blank region.
        if slot >= self.capacity:
            return 0
        return word_bit(self.weights[slot], plane)

    def read_next(self, fault_planes=(), ledger=None) -> WeightOutcome:
        """Advance (except for the first slot) and read one weight."""
        if self.slot >= self.capacity:
            raise PadOverrun("weight pass overran the stored weights; rewind first")
        if self.slot > 0:
            shifts = 0
            for k in range(self.planes):
                if self._suppress[k]:
                    self._suppress[k] = False
                else:
                    shifts += 1
                    if k in fault_planes:
                        self._mis[k] += 1
            _ledger_add(ledger, "track_shift", shifts)
            if self.edc_enabled:
                _ledger_add(ledger, "edc_read", self.planes)
        _ledger_add(ledger, "track_read", self.planes)

        slot = self.slot
        self.slot += 1
        if self.edc_enabled:
            # Stored pattern alternates 0/1 by weight index; a plane displaced
            # by e observes parity (slot+e) & 1 against expected slot & 1, so
            # any odd displacement trips the check.
            bad = tuple(k for k in range(self.planes) if self._mis[k] % 2 == 1)
            if bad:
                for k in bad:
                    self._mis[k] = 0
                    self._suppress[k] = True
                return WeightOutcome("substituted_zero", 0, bad)
            return WeightOutcome("ok", self.weights[slot])
        word = 0
        for k in range(self.planes):
            word |= self._plane_bit(slot + self._mis[k], k) << k
        # Reassemble as signed 16-bit.
        if word >= 1 << 15:
            word -= 1 << 16
        return WeightOutcome("ok", word)

    def rewind(self, ledger=None):
        """Return to the first weight; realigns the tape and the EDC phase."""
        if self.rewind_cost == "full_pass":
            _ledger_add(ledger, "track_shift", self.planes * self.capacity)
        self.slot = 0
        self._mis = [0] * self.planes
        self._suppress = [False] * self.planes


def weight_pass(weights, fault_slots, edc_enabled):
    """One whole pass of a ``WeightTrackGroup``, vectorized.

    `weights` are the track's raw weights in arrival order; `fault_slots`
    maps a plane to the slots whose advance overshoots it.  Returns
    (weights as read, zero substitutions, suppressed shifts).  With EDC on, a
    detected fault zeroes its slot and holds that plane's next shift, so a
    fault planned on the held slot is a no-op.  With EDC off, every fault
    displaces its plane by one more word for the rest of the pass, and a
    plane displaced past the end reads blank (0) bits.

    Known defect: unlike ``read_next``, a fault at slot 0 takes effect
    although no shift precedes the first read.
    """
    w = np.asarray(weights, dtype=np.int64)
    k = len(w)
    if edc_enabled:
        zeros = set()
        suppressed = 0
        for slots in fault_slots.values():
            held = None
            for s in sorted(slots):
                if s == held:
                    continue
                zeros.add(s)
                held = s + 1
                suppressed += held < k
        out = w.copy()
        out[list(zeros)] = 0
        return out, len(zeros), suppressed
    unsigned = w & 0xFFFF
    idx = np.arange(k)
    for plane, slots in fault_slots.items():
        src = idx + np.searchsorted(np.sort(slots), idx, side="right")
        bits = np.where(src < k, (unsigned[np.minimum(src, k - 1)] >> plane) & 1, 0)
        unsigned = (unsigned & ~(1 << plane)) | (bits << plane)
    return np.where(unsigned >= 1 << 15, unsigned - (1 << 16), unsigned), 0, 0
