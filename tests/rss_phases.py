"""Peak resident memory after each phase of the fine_grid sequence.

The phases, in the order the benchmark's fine_grid workload runs them,
on fig5 at dt 0.002:

- ``integrate``, the bare path;
- ``integrate_bright_dark``;
- ``pulse_metrics``, ``instantaneous_frequency`` and ``emit_outputs``
  into a temporary directory;
- reading ``trajectory.csv`` back.

After each it prints ``ru_maxrss`` of this process in MB, so a change in
peak memory can be placed in the phase that makes it.  ``filmsr`` is
imported from ``PYTHONPATH``, as in ``tests/output_digest.py``, and
pytest does not collect this script:

    PYTHONPATH=src python tests/rss_phases.py

On one tree the readings drift by about 0.2 MB between runs made hours
apart, so compare two trees only in runs made back to back, alternating
them a few times each, and read a phase's change against the change of
the phases before it.
"""

from __future__ import annotations

import pathlib
import resource
import sys
import tempfile
from dataclasses import replace


def peak_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    from filmsr import basis, dynamics, observables, runner
    from filmsr.config import load_preset

    cfg = load_preset("fig5")
    cfg = replace(cfg, control=replace(cfg.control, dt=0.002))
    state0 = cfg.initial_state()
    print(f"{peak_mb():8.2f} MB  start")
    bare = dynamics.integrate(state0, cfg.params, cfg.t_end, cfg.control)
    print(f"{peak_mb():8.2f} MB  integrate")
    basis.integrate_bright_dark(state0, cfg.params, cfg.t_end, cfg.control)
    print(f"{peak_mb():8.2f} MB  integrate_bright_dark")
    with tempfile.TemporaryDirectory() as tmp:
        metrics = observables.pulse_metrics(bare)
        observables.instantaneous_frequency(bare)
        runner.emit_outputs(bare, metrics, tmp)
        print(f"{peak_mb():8.2f} MB  pulse_metrics, instantaneous_frequency,"
              f" emit_outputs")
        text = (pathlib.Path(tmp) / "trajectory.csv").read_bytes()
        print(f"{peak_mb():8.2f} MB  read trajectory.csv, {len(text)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
