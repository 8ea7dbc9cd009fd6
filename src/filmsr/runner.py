"""Run scenarios and sweeps, and write their outputs to flat files.

All serialization is deterministic: floats are written as their shortest
round-trip decimal (Python ``repr``), nothing depends on wall clock or
iteration order of anything unordered.  Re-running the same
configuration reproduces every output byte, however many processes
format the rows of trajectory.csv.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
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

# The written file contracts.  A summary.csv row is the swept value, the
# PulseMetrics fields flattened (final_pops.x as x_end), and the error.
TRAJECTORY_COLUMNS = (
    "t", "rho11", "rho22", "rho33", "re_rho32", "im_rho32",
    "re_R21", "im_R21", "re_R31", "im_R31",
    "abs_emitted", "abs_acting", "phase_unwrapped",
)

# A forked trajectory.csv formatter costs about 5 ms (fork, exit, pipe
# copy): a 601-row table took as long in two blocks as in one, so no
# block of rows gets fewer than _PART_ROWS.  The parent copies a
# child's bytes _COPY_CHUNK at a time.
_PART_ROWS = 300
_COPY_CHUNK = 1 << 16
# set in run_sweep's workers, whose pool already holds every usable CPU
_in_sweep_worker = False

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


def _trajectory_table(traj: Trajectory) -> np.ndarray:
    """The TRAJECTORY_COLUMNS of every sample, one row per sample."""
    emitted = traj.emitted_amp
    return np.column_stack((
        traj.t, traj.rho11, traj.rho22, traj.rho33,
        traj.rho32.real, traj.rho32.imag,
        traj.R21.real, traj.R21.imag,
        traj.R31.real, traj.R31.imag,
        np.abs(emitted), np.abs(traj.acting_amp),
        np.unwrap(np.angle(emitted))))


def _metrics_payload(traj: Trajectory, metrics: PulseMetrics | None,
                     error: str | None) -> dict:
    payload = {} if error is None else {"error": error}
    if metrics is not None:
        payload.update(asdict(metrics))
    payload.update(end_of_run_time=traj.end_of_run_time,
                   steps_accepted=traj.steps_accepted,
                   steps_rejected=traj.steps_rejected,
                   rhs_evals=traj.rhs_evals)
    return payload


def _summary_record(row: SweepRow) -> dict:
    """The summary.csv cells of a row by column name, before formatting."""
    record = {"value": row.value, "error": row.error}
    if row.metrics is not None:
        for key, value in asdict(row.metrics).items():
            if key == "final_pops":
                record.update((f"{k}_end", v) for k, v in value.items())
            elif isinstance(value, dict):
                record.update(value)
            else:
                record[key] = value
    return record


def _cell(value) -> str:
    """One summary.csv cell: a float as its shortest round-trip decimal,
    a flag as true/false, text with ';' for ',', and None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, str):
        return value.replace(",", ";")
    return repr(float(value))


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


def _csv_row(values) -> str:
    """One trajectory.csv line: each float as its shortest round-trip
    decimal (``repr``)."""
    return ",".join(map(repr, values)) + "\n"


def _row_parts(rows: int) -> int:
    """How many processes format ``rows`` trajectory.csv rows: one where
    fork is missing, in a sweep worker, beside other threads, or for a
    table too small to pay for a second process."""
    import threading        # already loaded when the interpreter starts
    if (not hasattr(os, "fork") or _in_sweep_worker
            or threading.active_count() > 1):
        return 1
    return max(1, min(_usable_cpus(), rows // _PART_ROWS))


def _fork_formatter(block: np.ndarray,
                    earlier: list[int]) -> tuple[int, int]:
    """Fork a child that writes the trajectory.csv lines of ``block`` to
    a pipe and exits; return its pid and the pipe's read end.

    The child formats its whole block before it writes, so it never
    waits on a full pipe while the parent formats the first block.  It
    closes the read ends in ``earlier``, the pipes of the children forked
    before it, so that closing a pipe here ends the child writing to it.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in (read_fd, *earlier):
                os.close(fd)
            data = "".join([_csv_row(row.tolist()) for row in block])
            with open(write_fd, "wb") as pipe:
                pipe.write(data.encode("utf-8"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def emit_outputs(traj: Trajectory, metrics: PulseMetrics | None, out_dir,
                 error: str | None = None) -> tuple[str, ...]:
    """Write trajectory.csv, metrics.json and plot.py; return their paths.

    Floats are written as their shortest round-trip decimal (``repr``).
    The rows of trajectory.csv are split into contiguous blocks, one per
    usable CPU (see ``_row_parts``).  A forked child formats each block
    but the first into a pipe while this process writes the first; the
    pipes are then copied into the file in order.  Every child is reaped
    before this returns or raises, and a child that fails raises
    ``OSError`` naming its exit status.  The bytes do not depend on the
    number of blocks.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "trajectory.csv"
    table = _trajectory_table(traj)
    parts = _row_parts(len(table))
    bounds = [len(table) * k // parts for k in range(parts + 1)]
    children = []
    try:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork_formatter(
                    table[start:stop], [fd for _, fd in children]))
            fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
            for row in table[:bounds[1]]:
                fh.write(_csv_row(row.tolist()))
            fh.flush()
            for pid, read_fd in children:
                while chunk := os.read(read_fd, _COPY_CHUNK):
                    fh.buffer.write(chunk)
    finally:
        # every pipe is closed before any child is waited on: a child
        # blocked on writing to its pipe then fails and exits
        for _, read_fd in children:
            os.close(read_fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in children]
    if any(codes):
        raise OSError(f"{csv_path}: a process formatting its rows exited "
                      f"with status {max(codes, key=abs)}")

    json_path = out / "metrics.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(_metrics_payload(traj, metrics, error), fh, indent=2)
        fh.write("\n")

    plot_path = out / "plot.py"
    plot_path.write_text(_PLOT_SCRIPT, encoding="utf-8")
    return str(csv_path), str(json_path), str(plot_path)


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunResult:
    """Integrate one scenario and write its output files into ``out_dir``,
    else the config's ``output.dir``, else the current directory.

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
    target = out_dir if out_dir is not None else (cfg.out_dir or ".")
    paths = emit_outputs(traj, metrics, target, error=error)
    return RunResult(traj, metrics, error, paths)


def _sweep_one(cfg: ScenarioConfig, value: float, run_dir) -> SweepRow:
    try:
        result = run_scenario(cfg, out_dir=run_dir)
        return SweepRow(value, result.metrics, result.error)
    except (ParameterError, IntegrationError) as exc:
        return SweepRow(value, None, f"{type(exc).__name__}: {exc}")


def _sweep_member(cfg: ScenarioConfig, value: float, run_dir) -> SweepRow:
    # the pool pickles this function by name; _sweep_one is looked up in
    # the worker at call time, so a worker forked from a parent that
    # replaced it runs the replacement
    global _in_sweep_worker
    _in_sweep_worker = True
    return _sweep_one(cfg, value, run_dir)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(spec: SweepSpec, out_dir=".") -> list[SweepRow]:
    """Run the family, one subdirectory per value, plus summary.csv.

    Members run in worker processes, one per usable CPU up to the number
    of members; each writes only its own ``run_NNN/``, so every output
    byte is what a run of the members one after another writes.  A
    failing run is recorded in its row and does not stop the sweep.  Any
    other exception of a member cancels the members not yet handed to a
    worker and reaches the caller once the workers have exited; no
    summary.csv is written then.
    """
    # imported here: multiprocessing and concurrent.futures.process take
    # 20-30 ms to import, which every other command would pay at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spec = spec.validated()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    members = [apply_sweep_value(spec.base, spec.param, v)
               for v in spec.values]
    run_dirs = [out / f"run_{i:03d}" for i in range(len(members))]
    # fork, where offered, lets the workers inherit the imported package
    # instead of importing numpy and filmsr again
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(min(len(members), _usable_cpus()),
                             mp_context=context) as pool:
        rows = list(pool.map(_sweep_member, members, spec.values, run_dirs,
                             chunksize=1))

    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_SUMMARY_COLUMNS) + "\n")
        for row in rows:
            record = _summary_record(row)
            fh.write(",".join(_cell(record.get(c))
                              for c in _SUMMARY_COLUMNS) + "\n")
    return rows
