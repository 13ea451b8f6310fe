"""Every module-level function and class in ``src/rnnfast`` is used.

A definition is used if module-level code of the package or a used
definition refers to it by name, or if ``ENTRY_POINTS`` names it: the
package's public entry points and the reference models that tests hold the
simulator against.  Anything else is dead code that only its own tests run,
and this test fails on it.
"""

import ast
from pathlib import Path

import rnnfast

SRC = Path(rnnfast.__file__).parent

# name -> why it is kept although nothing else in the package calls it.
ENTRY_POINTS = {
    "simulate": "the simulator",
    "analytic_cycles": "closed-form timing oracle for simulate",
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
    "WeightTrackGroup": "device model that weight_zeros and weight_misreads are tested against",
}


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
