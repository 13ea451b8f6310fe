"""Source mutants that the tests must kill: ``python tests/mutants.py [id ...]``.

Each entry of ``MUTANTS`` is (id, file under ``src/rnnfast``, edits, test
ids): every edit (old, new) replaces text that occurs exactly once in the
file, and every listed test must fail on the mutated source.  The runner
copies ``src/``, ``tests/``, ``perfbench/`` and the project files to a
temporary directory for each mutant (the ids given, or all), applies the
edits there, runs the mutant's tests in that copy with pytest, and reports
the mutant killed when every one of them fails, else surviving, with the
tests that passed; it exits 1 if any mutant survives.  It uses only the
standard library and pytest, and pytest does not collect this file.

``test_mutants.py`` checks in tier-1 only that each old text occurs exactly
once in ``src/``, so a change that rewrites a mutated line must carry its
mutant along.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/rnnfast")
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")

SIM, RACETRACK = "simulator.py", "racetrack.py"
ORACLE = "tests/test_fault_step.py::test_fault_step_matches_the_per_event_oracle"
GOLDEN = "tests/test_simulator.py::test_faulty_runs_match_golden"
SWEEP = "tests/test_simulator.py::test_every_run_of_a_sweep_is_its_plain_run"

MUTANTS = [
    # EDC-off weight misreads from each pair's first fault.
    ("multi-fault", RACETRACK, [("if not len(row):", "if True:")], [
        "tests/test_error_model.py::"
        "test_weight_plane_reads_displace_each_slot_by_the_distinct_faults_up_to_it",
        "tests/test_error_model.py::test_batched_weight_pass_matches_the_device_track_by_track",
        f"{ORACLE}[one-pe-LSTM-edc-off]",
    ]),
    ("shared-on-chain-fault", SIM, [("if not delivered.strides[0]:", "if True:")], [
        f"{ORACLE}[split-LSTM-edc-off]",
        "tests/test_fault_step.py::test_fault_step_matches_the_oracle_across_pair_blocks"
        "[split-edc-off]",
        f"{GOLDEN}[LSTM-approx-split]",
    ]),
    ("row-one-late", SIM, [("start = (geo.turn[path, self.group, chunk] + first) % size",
                            "start = (geo.turn[path, self.group, chunk] + first + 1) % size")], [
        f"{ORACLE}[one-pe-LSTM-edc-off]",
        f"{GOLDEN}[LSTM-approx-one-pe]",
    ]),
    ("no-blank-last-slot", RACETRACK, [("read = np.zeros_like(bits)", "read = bits.copy()")], [
        "tests/test_error_model.py::test_weight_pass_displaced_plane_reads_blank_past_the_end",
        f"{GOLDEN}[LSTM-approx-one-pe]",
    ]),
    ("no-blank-past-track-end", SIM, [
        ("np.logical_and(bits, self.prefix[self.blank[at]], out=bits)", "pass")], [
        f"{ORACLE}[one-pe-LSTM-edc-off]",
    ]),
    ("shared-wrong-words", SIM, [
        ("out[:] = _exact_matmul([flips], delivered[0, words], 1)",
         "out[:] = _exact_matmul([flips], delivered[0, :flips.shape[1]], 1)")], [
        f"{GOLDEN}[LSTM-approx-split]",
        f"{ORACLE}[split-LSTM-edc-off]",
    ]),
    # One per-network state per fault sweep.
    ("x-accs-layer-1", SIM, [('("x", l, t0)', '("x", 0, t0)')], [
        f"{SWEEP}[edc-off]",
        "tests/test_error_model.py::"
        "test_fidelity_experiment_pairs_each_seeds_run_with_the_fault_free_one",
    ]),
    ("no-identity-check", SIM, [
        ('raise ValueError("shared was made for another placement, params or inputs")', "pass")], [
        "tests/test_simulator.py::test_a_shared_made_for_other_objects_is_rejected",
    ]),
    ("keep-past-budget", SIM, [
        ("if shareable and a.nbytes <= self.room:", "if shareable and self.room > 0:")], [
        f"{SWEEP}[edc-off]",
        f"{SWEEP}[edc-on]",
        "tests/test_value_path.py::test_a_sweep_keeps_at_most_stack_bytes_more_than_a_plain_run",
    ]),
    ("keep-everything", SIM, [("if shareable and a.nbytes <= self.room:", "if shareable:")], [
        "tests/test_value_path.py::test_simulate_holds_one_float32_stack_at_a_time",
        "tests/test_src_is_used.py::test_every_member_is_read",
    ]),
    ("writable-write-back", SIM, [
        ("a.flags.writeable = False", "a.flags.writeable = True"),
        ("out[t0 + j] = h", "out[t0 + j] = h\n            x_accs[:, j] = accs[0].ravel()")], [
        "tests/test_simulator.py::test_fault_sweep_matches_golden[edc-off]",
        f"{SWEEP}[edc-on]",
    ]),
    ("writable", SIM, [("a.flags.writeable = False", "pass")], [
        "tests/test_simulator.py::test_shared_arrays_are_read_only",
    ]),
    # One step loop applies every fault of a layer.
    ("chain-corrections-first-block", SIM, [
        ('corrections["input_corrected"] += corrected',
         'corrections["input_corrected"] += corrected if not t0 else 0')], [
        "tests/test_simulator.py::test_faulty_runs_do_not_depend_on_the_time_block[LSTM-edc-on]",
        f"{GOLDEN}[LSTM-approx-long]",
        "tests/test_simulator.py::test_preset_runs_match_golden[desk-ref]",
    ]),
    ("h-chain-edc-rows-skipped", SIM, [
        ("if len(rows) and edc_in:", "if len(rows) and edc_in and not path:"),
        ("elif len(rows):", "elif len(rows) and not edc_in:")], [
        "tests/test_simulator.py::test_edc_on_faults_cost_exactly_the_held_shifts[LSTM-input_chains]",
        f"{GOLDEN}[LSTM-approx-one-pe]",
    ]),
    ("edc-rows-to-faulted-chain", SIM, [("if len(rows) and edc_in:", "if False:")], [
        "tests/test_simulator.py::test_edc_on_chain_faults_stay_out_of_the_value_path",
        "tests/test_simulator.py::test_edc_on_input_chain_faults_reproduce_the_fault_free_run[LSTM]",
    ]),
    ("chain-holds-left-out", SIM, [
        ('events["track_shift"] -= chain_held + corrections["suppressed_shifts"]',
         'events["track_shift"] -= corrections["suppressed_shifts"]')], [
        "tests/test_simulator.py::test_edc_on_faults_cost_exactly_the_held_shifts[LSTM-input_chains]",
        f"{GOLDEN}[LSTM-approx-split]",
    ]),
]


def mutate(source, edits):
    """`source` with each (old, new) of `edits` applied; ValueError unless
    each old text occurs exactly once."""
    for old, new in edits:
        if source.count(old) != 1:
            raise ValueError(f"{old!r} occurs {source.count(old)} times, not once")
        source = source.replace(old, new)
    return source


def outcomes(output):
    """{test id: outcome} from the short summary that ``pytest -rA`` prints."""
    got = {}
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR", "SKIPPED", "XFAIL", "XPASS"):
            got[rest.split(" - ")[0]] = word
    return got


def run(mutant):
    """(killed, the listed tests that did not fail, seconds) of one mutant."""
    _id, name, edits, tests = mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for item in COPIED:
            src, dst = ROOT / item, Path(tmp) / item
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", "out"))
            else:
                shutil.copy(src, dst)
        path = Path(tmp) / PACKAGE / name
        path.write_text(mutate(path.read_text(), edits))
        # Under filterwarnings = error, hypothesis's report of a failing
        # test raises this warning and pytest stops without a summary.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning", *tests],
            cwd=tmp, capture_output=True, text=True,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    got = outcomes(proc.stdout)
    alive = [t for t in tests if got.get(t) not in ("FAILED", "ERROR")]
    return not alive, alive, time.perf_counter() - start


def main(ids):
    unknown = set(ids) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = 0
    for mutant in MUTANTS:
        if ids and mutant[0] not in ids:
            continue
        killed, alive, seconds = run(mutant)
        survivors += not killed
        print(f"{mutant[0]}: {'killed' if killed else 'SURVIVED'} ({seconds:.1f} s)", flush=True)
        for test in alive:
            print(f"  did not fail: {test}", flush=True)
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
