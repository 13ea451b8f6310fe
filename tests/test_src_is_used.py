"""Every module-level function and class in ``src/rnnfast`` is used, and so
is every member of its classes.

A definition is used if module-level code of the package or a used
definition refers to it by name, or if ``ENTRY_POINTS`` names it: the
package's public entry points and the reference models that tests hold the
simulator against.

A member (a method, a property, an annotated field of a class, or an
instance attribute that its methods store through ``self.<name>``) is used
if the package or the benchmark harness (``perfbench/*.py``, not its tests)
reads an attribute of that name, or holds the name as a string, as
``getattr`` and the harness's patch targets do, or if ``MEMBERS`` names it.
Members are matched by name, not by owner: a name that any class reads
counts as read for every class that defines it.

Anything else is dead code that only its own tests run, and these tests
fail on it.
"""

import ast
from pathlib import Path

import rnnfast

SRC = Path(rnnfast.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# name -> why it is kept although nothing else in the package calls it.
ENTRY_POINTS = {
    "simulate": "the simulator",
    "analytic_cycles": "a run's cycle count without simulating it; simulate reports the same",
    "energy_report": "energy breakdown of a run's ledger",
    "run_fidelity_experiment": "paired error-free/faulty sweeps",
    "map_network": "binds a network onto the hardware",
    "feasibility_check": "independent capacity oracle for map_network",
    "utilization_report": "resource report of a placement",
    "generate_network_params": "preset weights",
    "generate_inputs": "preset input streams",
    "get_preset": "looks up a named preset network",
    "float_cell_step": "double-precision reference cell",
    "cell_step": "Q8.8 reference cell that simulate is bit-exact against",
    "chunked_gate_preact_wide": "oracle: split neurons compute the monolithic result",
    "booth_multiply": "oracle: radix-4 Booth multiply equals mul_raw",
    "WeightTrackGroup": "device model that weight_zeros and weight_plane_reads are tested against",
}


# member name -> why it is kept although nothing in the package or the
# benchmark harness reads it.
MEMBERS = {
    "read_next": "WeightTrackGroup oracle API: one weight read of the device model",
    "rewind": "WeightTrackGroup oracle API: the full-pass return of the device model",
    "stage": "InputTrackChain oracle API: the words of a device pass; the simulator stages none",
    "kind": "WeightOutcome oracle API: whether the read was substituted with zero",
    "weight_raw": "WeightOutcome oracle API: the weight as read",
    "from_quantized": "FloatCellParams: the double-precision oracle on quantized weights",
    "clock_period_ns": "HardwareConfig field, part of the benchmark's spec key (its repr)",
    "description": "Preset: the one-line summary of a named network",
    "to_json": "RunResult: a run's deterministic JSON",
    "report": "CapacityExceeded: the public report of the shortfall that failed a placement",
}


def class_members():
    """(class, member) of every method, property, annotated field and
    ``self.<name>`` attribute of a class in the package, dunder names left
    out."""
    members = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name] + [
                        n.attr for n in ast.walk(node)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"
                    ]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:
                    continue
                members.update((cls.name, name) for name in names
                               if not (name.startswith("__") and name.endswith("__")))
    return sorted(members)


def member_reads():
    """Attribute names that the package and the benchmark harness load, and
    the identifier-like strings they hold."""
    reads = set()
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    reads.add(node.value)
    return reads


def definitions_and_references():
    """Top-level definitions as {name: [referenced names]}, and the names
    referenced by module-level code outside any definition."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(names - {node.name})
            else:
                roots |= names
    return defs, roots


def test_entry_points_exist():
    defs, roots = definitions_and_references()
    assert set(ENTRY_POINTS) <= set(defs) | roots


def test_every_definition_is_reachable():
    defs, roots = definitions_and_references()
    live = set()
    todo = [name for name in (roots | set(ENTRY_POINTS)) if name in defs]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(n for n in defs[name] if n in defs)
    assert sorted(set(defs) - live) == []


def test_members_exist():
    assert set(MEMBERS) <= {name for _cls, name in class_members()}
    assert (PERFBENCH / "workloads.py").is_file()


def test_every_member_is_read():
    reads = member_reads() | set(MEMBERS)
    assert sorted(f"{cls}.{name}" for cls, name in class_members() if name not in reads) == []
