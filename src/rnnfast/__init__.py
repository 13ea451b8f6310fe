"""rnnfast: cycle-level model of a domain-wall-memory RNN accelerator.

``simulator.simulate`` runs a network that ``mapping.map_network`` placed on
the hardware, over raw Q8.8 weights and inputs, and returns its outputs,
cycles, energy ledger and fault corrections.  ``presets`` names the
benchmark networks and their hardware, and draws weights and inputs from a
caller's seed.  ``error_model`` draws overshift fault plans, and its
``run_fidelity_experiment`` pairs faulty runs with the error-free one.
Below them:

* ``fixedpoint`` -- Q8.8 arithmetic, one array implementation per helper;
* ``nonlinear`` -- the shift-based and LUT activation units;
* ``lstm_core`` -- the cell equations and the MAC pipeline's timing;
* ``racetrack`` -- the input-chain and weight-track models and their EDC.

The reference models that tests hold the simulator against stay in the
package: ``lstm_core.cell_step``, ``booth_multiply`` and
``chunked_gate_preact_wide``, ``racetrack.WeightTrackGroup``,
``mapping.feasibility_check``, ``simulator.analytic_cycles`` and the
double-precision ``reference_oracle``.  ``tests/test_src_is_used.py`` fails
on any other definition, and on any class member, that nothing in the
package or the benchmark harness uses.
"""

__version__ = "0.1.0"
