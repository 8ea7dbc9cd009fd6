"""Run scenarios and sweeps, and write their outputs to flat files.

All serialization is deterministic: floats are written as their shortest
round-trip decimal (Python ``repr``), nothing depends on wall clock or
iteration order of anything unordered.  Re-running the same
configuration reproduces every output byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, SweepSpec, apply_sweep_value
from .dynamics import IntegrationError, Trajectory, integrate
from .observables import NoPulse, PulseMetrics, pulse_metrics
from .params import ParameterError

__all__ = [
    "RunResult",
    "SweepRow",
    "run_scenario",
    "run_sweep",
    "emit_outputs",
    "TRAJECTORY_COLUMNS",
]

TRAJECTORY_COLUMNS = (
    "t", "rho11", "rho22", "rho33", "re_rho32", "im_rho32",
    "re_R21", "im_R21", "re_R31", "im_R31",
    "abs_emitted", "abs_acting", "phase_unwrapped",
)

_SUMMARY_COLUMNS = (
    "value", "t_peak", "fwhm", "peak_amp", "oscillation_freq",
    "rho11_end", "rho22_end", "rho33_end", "rho_pp_end", "rho_mm_end",
    "delta33", "delta22", "blocked_31", "blocked_21", "error",
)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario: the trajectory, metrics, written files."""

    trajectory: Trajectory
    metrics: PulseMetrics | None
    error: str | None
    paths: tuple[str, ...]


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry: the swept value and the run's metrics or error."""

    value: float
    metrics: PulseMetrics | None
    error: str | None


def _fmt(value) -> str:
    """Shortest round-trip decimal of a float; empty string for None."""
    if value is None:
        return ""
    return repr(float(value))


def _trajectory_rows(traj: Trajectory):
    emitted = traj.emitted_amp
    acting = traj.acting_amp
    phase = np.unwrap(np.angle(emitted))
    columns = (traj.t, traj.rho11, traj.rho22, traj.rho33,
               traj.rho32.real, traj.rho32.imag,
               traj.R21.real, traj.R21.imag,
               traj.R31.real, traj.R31.imag,
               np.abs(emitted), np.abs(acting), phase)
    for i in range(traj.t.size):
        yield [col[i] for col in columns]


def _metrics_payload(traj: Trajectory, metrics: PulseMetrics | None,
                     error: str | None) -> dict:
    payload: dict = {}
    if error is not None:
        payload["error"] = error
    if metrics is not None:
        fp = metrics.final_pops
        br = metrics.branching
        payload.update({
            "t_peak": metrics.t_peak,
            "fwhm": metrics.fwhm,
            "peak_amp": metrics.peak_amp,
            "oscillation_freq": metrics.oscillation_freq,
            "final_pops": {"rho11": fp.rho11, "rho22": fp.rho22,
                           "rho33": fp.rho33, "rho_pp": fp.rho_pp,
                           "rho_mm": fp.rho_mm},
            "branching": {"delta33": br.delta33, "delta22": br.delta22,
                          "blocked_31": br.blocked_31,
                          "blocked_21": br.blocked_21},
        })
    payload["end_of_run_time"] = traj.end_of_run_time
    payload["steps_accepted"] = traj.steps_accepted
    payload["steps_rejected"] = traj.steps_rejected
    return payload


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Advisory plot script; regenerate the figures from the CSV next to it.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
with open(here / "trajectory.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["t"]) for r in rows]
fig, (ax1, ax2) = plt.subplots(2, 1, sharex=True, figsize=(7, 7))
for name in ("rho11", "rho22", "rho33"):
    ax1.plot(t, [float(r[name]) for r in rows], label=name)
ax1.set_ylabel("population")
ax1.legend()
ax2.plot(t, [float(r["abs_emitted"]) for r in rows], label="|emitted|")
ax2.plot(t, [float(r["abs_acting"]) for r in rows], label="|acting|", alpha=0.6)
ax2.set_xlabel("t / tau_R")
ax2.set_ylabel("field envelope")
ax2.legend()
fig.tight_layout()
fig.savefig(here / "run.png", dpi=150)
print("wrote", here / "run.png")
"""


def emit_outputs(traj: Trajectory, metrics: PulseMetrics | None, out_dir,
                 error: str | None = None,
                 plot_script: bool = True) -> tuple[str, ...]:
    """Write trajectory.csv, metrics.json and (optionally) plot.py."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    csv_path = out / "trajectory.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in _trajectory_rows(traj):
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    paths.append(str(csv_path))

    json_path = out / "metrics.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(_metrics_payload(traj, metrics, error), fh, indent=2)
        fh.write("\n")
    paths.append(str(json_path))

    if plot_script:
        plot_path = out / "plot.py"
        plot_path.write_text(_PLOT_SCRIPT, encoding="utf-8")
        paths.append(str(plot_path))
    return tuple(paths)


def run_scenario(cfg: ScenarioConfig, out_dir=None,
                 write: bool = True) -> RunResult:
    """Integrate one scenario and (by default) write its output files.

    A run whose emission never develops is still a valid run: the
    trajectory is written and the metrics file carries an ``error``
    field instead of pulse numbers.
    """
    cfg = cfg.validated()
    traj = integrate(cfg.initial_state(), cfg.params, cfg.t_end, cfg.control)
    metrics: PulseMetrics | None
    try:
        metrics = pulse_metrics(traj)
        error = None
    except NoPulse as exc:
        metrics = None
        error = f"NoPulse: {exc}"
    paths: tuple[str, ...] = ()
    if write:
        target = out_dir if out_dir is not None else (cfg.out_dir or ".")
        paths = emit_outputs(traj, metrics, target, error=error)
    return RunResult(traj, metrics, error, paths)


def _sweep_one(cfg: ScenarioConfig, value: float, run_dir) -> SweepRow:
    try:
        result = run_scenario(cfg, out_dir=run_dir)
        return SweepRow(value, result.metrics, result.error)
    except (ParameterError, IntegrationError) as exc:
        return SweepRow(value, None, f"{type(exc).__name__}: {exc}")


def _summary_cell(row: SweepRow, name: str) -> str:
    if name == "value":
        return _fmt(row.value)
    if name == "error":
        return "" if row.error is None else row.error.replace(",", ";")
    if row.metrics is None:
        return ""
    m = row.metrics
    lookup = {
        "t_peak": m.t_peak, "fwhm": m.fwhm, "peak_amp": m.peak_amp,
        "oscillation_freq": m.oscillation_freq,
        "rho11_end": m.final_pops.rho11, "rho22_end": m.final_pops.rho22,
        "rho33_end": m.final_pops.rho33, "rho_pp_end": m.final_pops.rho_pp,
        "rho_mm_end": m.final_pops.rho_mm,
        "delta33": m.branching.delta33, "delta22": m.branching.delta22,
    }
    if name in ("blocked_31", "blocked_21"):
        return str(getattr(m.branching, name)).lower()
    return _fmt(lookup[name])


def run_sweep(spec: SweepSpec, out_dir=".") -> list[SweepRow]:
    """Run the family, one subdirectory per value, plus summary.csv.

    Members run one after another in the order of ``spec.values``; a
    failing run is recorded in its row and does not stop the sweep.
    """
    spec = spec.validated()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [_sweep_one(apply_sweep_value(spec.base, spec.param, v), v,
                       out / f"run_{i:03d}")
            for i, v in enumerate(spec.values)]

    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_SUMMARY_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_summary_cell(row, c)
                              for c in _SUMMARY_COLUMNS) + "\n")
    return rows
