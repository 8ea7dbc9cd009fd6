"""Run scenarios and sweeps, and write their outputs to flat files.

All serialization is deterministic: floats are written as their shortest
round-trip decimal, the characters Python's ``repr`` writes, nothing
depends on wall clock or iteration order of anything unordered.  Every
trajectory.csv row is a row of ``_trajectory_table`` of the sample
arrays written by ``_csv_rows``, which formats a block of rows at a time
with integer arithmetic on numpy arrays (``_shortest``), so re-running
the same configuration reproduces every output byte, whether or not a
helper process, forked before the stepper runs, formats part of the
rows.  A sweep forks its own workers, with no process pool; they claim
the members one at a time, in value order, and each member writes only
its own directory, so no byte depends on the worker that ran it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._shortest import _tables, csv_text as _csv_rows
from .config import ScenarioConfig, SweepSpec
from .dynamics import (IntegrationError, Trajectory, _emitted,
                       _sample_times, integrate)
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

# A forked trajectory.csv formatter costs about 4 ms (fork, exit, pipe
# copy), a row about 3 us to format.  In run_scenario on fig5 cut to
# 2000-3000 rows the helper was faster in at most 6 of 20 alternating
# pairs on a 2-CPU host; it broke even between 3000 and 3500 rows in
# one set of runs and lost by 13-18 ms at every size up to 3600 in a
# later one, on the same host.  The bound stays at 1400 all the
# same: the 1401-row run of the tests' FAST scenario and the 2001-row
# degenerate preset must fork a helper for TestFormatterHelper and
# TestSplitRows to test it.  One process formats a table of fewer than
# _SPLIT_ROWS rows.  The parent copies the helper's bytes _COPY_CHUNK at
# a time.  _csv_rows formats _CHUNK_ROWS rows a call: over fine_grid's
# table 64 rows a call took 2.2 times as long as 512, and 1024 was 10 %
# faster than 512 but needed 1.2 MB of temporaries, 512 0.6 MB.  A
# _Formatter helper reads its pipe of row counts between chunks, so the
# parent waits about 1.5 ms for it at the end of a run.
_SPLIT_ROWS = 1400
_COPY_CHUNK = 1 << 16
_CHUNK_ROWS = 512
# set in run_sweep's workers, which already hold every usable CPU;
# measured: with helpers forked in the workers, lfc_sweep's median wall
# time went from 0.441 to 0.532 s on 2 CPUs (5 alternating 10 s pairs)
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


def _trajectory_table(t, y, params) -> np.ndarray:
    """The TRAJECTORY_COLUMNS of the samples at times ``t`` with packed
    (6, N) bare states ``y`` (R31, R21, rho32, rho11, rho22, rho33), one
    row per sample."""
    emitted = _emitted(y, params)
    return np.column_stack((
        t, y[3].real, y[4].real, y[5].real, y[2].real, y[2].imag,
        y[1].real, y[1].imag, y[0].real, y[0].imag,
        np.abs(emitted), np.abs((1j + params.delta_L) * emitted),
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


def _split_rows(rows: int) -> bool:
    """Whether a helper process formats part of ``rows`` trajectory.csv
    rows: not where fork is missing, in a sweep worker, beside other
    threads, with one usable CPU, or for a table too small to pay for a
    second process."""
    import threading        # already loaded when the interpreter starts
    return (hasattr(os, "fork") and not _in_sweep_worker
            and threading.active_count() == 1 and _usable_cpus() > 1
            and rows >= _SPLIT_ROWS)


def _copy_pipe(read_fd: int, fh, size: int = -1) -> None:
    """Copy the next ``size`` bytes a child writes to ``read_fd`` into the
    file, or, with ``size`` negative, all of them up to end of file."""
    while size and (chunk := os.read(
            read_fd, _COPY_CHUNK if size < 0 else min(size, _COPY_CHUNK))):
        fh.buffer.write(chunk)
        size -= len(chunk)


class _Formatter:
    """A forked helper that formats part of the rows of trajectory.csv.
    ``run_scenario`` makes one before the stepper runs, ``emit_outputs``
    one for a table it is given whole; ``emit_outputs`` ends either.

    Like ``subprocess.Popen``, it starts its child when it is made: it
    maps an anonymous shared mmap for the (rows, 6) packed states of the
    sample times ``t``, opens two pipes and forks.  The helper inherits
    ``t`` through the fork.  ``feed`` is the ``on_final`` callback of
    ``integrate``: each call copies the new final rows, in the mmap's
    layout, into it and sends their count down a pipe that never blocks
    this process: a count the full pipe refuses is superseded by the next.
    The helper builds ``_trajectory_table`` of the samples it has, whose
    rows are those of the full table bit for bit, and formats them with
    ``_csv_rows``, ``_CHUNK_ROWS`` at a time, reading the counts between
    chunks; it builds the table again once it has formatted all its
    rows.

    ``finish`` sends the last states and their count, negated.  The
    helper then leaves the first half of the rows it has not formatted
    to this process and takes the rest.  On a second pipe it sends the
    bounds of this process's rows and the size of its text so far, then
    that text, chunk by chunk, then the text of its own rows once they
    are formatted.  So this process can write its rows straight into
    the file between the two.  ``close`` closes both pipes, which makes
    a helper still running exit, and reaps it.
    """

    def __init__(self, t, params):
        import mmap     # here, so that no other command pays its import
        self.t, self.params = t, params
        self.code = self.fed = 0
        self.shared = mmap.mmap(-1, 6 * 16 * t.size)
        self.y = np.frombuffer(self.shared, complex).reshape(t.size, 6)
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self._release()
            raise
        cmd_read, self.cmd, self.text, text_write = fds
        if self.pid == 0:
            self._serve(cmd_read, text_write)
        os.close(cmd_read)
        os.close(text_write)
        os.set_blocking(self.cmd, False)

    def feed(self, rows) -> None:
        """Store ``rows``, the (n, 6) states of ``on_final``; send n."""
        self._store(rows)   # the helper inherited the times
        try:
            os.write(self.cmd, self.fed.to_bytes(8, "little", signed=True))
        except (BlockingIOError, BrokenPipeError):
            pass    # a helper that has exited is reported by close

    def finish(self, traj: Trajectory) -> tuple[int, int, int]:
        """Hand over every sample of ``traj``; return ``(start, stop,
        size)``: this process formats rows start to stop of the table,
        and the next ``size`` bytes on ``self.text`` are the rows before
        them, the rest those after.  A helper that has exited before its
        reply leaves this process no rows, ``(0, 0, 0)``: the write has
        failed, and ``close`` reports the helper's status."""
        self._store(traj.y.T)
        os.set_blocking(self.cmd, True)
        try:
            os.write(self.cmd, (-self.fed).to_bytes(8, "little", signed=True))
            reply = os.read(self.text, 24)
        except BrokenPipeError:
            reply = b""
        self._release()     # the helper keeps its own mapping of the pages
        if len(reply) < 24:
            return 0, 0, 0
        return tuple(int.from_bytes(reply[i:i + 8], "little")
                     for i in (0, 8, 16))

    def close(self) -> int:
        """Reap the helper, if not yet reaped; return its exit status."""
        if self.pid is not None:
            os.close(self.cmd)
            os.close(self.text)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
        self._release()
        return self.code

    def _release(self) -> None:
        self.y = None       # no array may hold the mmap it closes
        if self.shared is not None:
            self.shared.close()
            self.shared = None

    def _store(self, rows) -> None:
        lo, self.fed = self.fed, len(rows)
        self.y[lo:self.fed] = rows[lo:]

    def _table(self, rows: int) -> np.ndarray:
        # the (rows, 6) states transposed, as integrate's y is
        return _trajectory_table(self.t[:rows], self.y[:rows].T, self.params)

    def _serve(self, cmd: int, text: int) -> None:
        """The helper: format rows as their samples become final; exit
        with status 1 on any exception or when this process goes away."""
        status = 1
        try:
            os.close(self.cmd)
            os.close(self.text)
            pieces = []
            done = ready = 0
            table = self._table(0)
            while True:
                os.set_blocking(cmd, done == ready)
                try:
                    counts = os.read(cmd, 1 << 12)
                except BlockingIOError:
                    counts = None
                if counts == b"":
                    return
                if counts:
                    ready = int.from_bytes(counts[-8:], "little", signed=True)
                    if ready < 0:
                        break
                # a table costs time in proportion to all its rows, so it
                # is built again only once its rows are formatted
                if done == len(table):
                    table = self._table(ready)
                stop = min(len(table), done + _CHUNK_ROWS)
                pieces.append(_csv_rows(table[done:stop]))
                done = stop
            rows = -ready
            split = done + (rows - done) // 2
            # the rows are ASCII: one byte per character
            head = sum(map(len, pieces))
            with open(text, "wb") as pipe:
                pipe.write(b"".join(n.to_bytes(8, "little")
                                    for n in (done, split, head)))
                for piece in pieces:
                    pipe.write(piece.encode())
                pipe.flush()        # before its own rows are formatted
                table = self._table(rows)
                pipe.write("".join(
                    _csv_rows(table[lo:lo + _CHUNK_ROWS])
                    for lo in range(split, rows, _CHUNK_ROWS)).encode())
            status = 0
        finally:
            os._exit(status)


def emit_outputs(traj: Trajectory, metrics: PulseMetrics | None, out_dir,
                 error: str | None = None, *,
                 formatter: _Formatter | None = None) -> tuple[str, ...]:
    """Write trajectory.csv, metrics.json and plot.py; return their paths.

    Floats are written as their shortest round-trip decimal, as ``repr``
    writes them, by ``_csv_rows``, ``_CHUNK_ROWS`` rows at a time.
    ``formatter`` is a helper that may have formatted rows of ``traj``
    already, as ``run_scenario``'s does while the stepper runs.  With
    none given, one is forked once trajectory.csv is open, where
    ``_split_rows`` holds for the rows of ``traj``.  The helper leaves
    this process the first half of the rows it has not formatted and
    formats the second, both with ``_csv_rows``; the bytes are those of
    one process writing every row.  The helper is reaped before this
    returns or raises, and one that fails raises ``OSError`` naming its
    exit status.  Once trajectory.csv is open, a failure removes it, so
    a raise leaves no partial file; a path that cannot be opened, such as
    a directory, stays as it was.
    """
    out = Path(out_dir)
    csv_path = out / "trajectory.csv"
    helper = formatter
    fh = None
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            if helper is None and _split_rows(traj.t.size):
                helper = _Formatter(traj.t, traj.params)
            start, stop, head = (helper.finish(traj) if helper is not None
                                 else (0, traj.t.size, 0))
            mine = _trajectory_table(traj.t, traj.y, traj.params)[start:stop]
            fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
            fh.flush()
            if head:
                _copy_pipe(helper.text, fh, head)
            for lo in range(0, len(mine), _CHUNK_ROWS):
                fh.write(_csv_rows(mine[lo:lo + _CHUNK_ROWS]))
            if helper is not None:
                fh.flush()
                _copy_pipe(helper.text, fh)
        code = 0 if helper is None else helper.close()
        if code:
            raise OSError(f"{csv_path}: a process formatting its rows "
                          f"exited with status {code}")

        json_path = out / "metrics.json"
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(_metrics_payload(traj, metrics, error), fh, indent=2)
            fh.write("\n")

        plot_path = out / "plot.py"
        plot_path.write_text(_PLOT_SCRIPT, encoding="utf-8")
    except BaseException:
        # closing the helper's pipes ends it, even blocked on a full one
        if helper is not None:
            helper.close()
        if fh is not None:      # a partial file is no output
            csv_path.unlink(missing_ok=True)
        raise
    return str(csv_path), str(json_path), str(plot_path)


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunResult:
    """Integrate one scenario, which was checked when it was made, and
    write its output files into ``out_dir``, else the config's
    ``output.dir``, else the current directory.

    A run whose emission never develops is still a valid run: the
    trajectory is written and the metrics file carries an ``error``
    field instead of pulse numbers.

    Where ``_split_rows`` holds for the whole grid, one helper, a
    :class:`_Formatter`, is forked before the stepper runs.  It formats
    the rows each passing check of the invariants makes final while the
    stepper goes on, and ``emit_outputs`` splits the rows it has not
    reached between it and this process.  The bytes are those of one
    process writing every row.  The helper is reaped before this
    returns or raises.
    """
    t = _sample_times(cfg.t_end, cfg.control.dt)
    helper = _Formatter(t, cfg.params) if _split_rows(t.size) else None
    try:
        traj = integrate(cfg.initial_state(), cfg.params, cfg.t_end,
                         cfg.control,
                         on_final=None if helper is None else helper.feed)
        metrics: PulseMetrics | None
        try:
            metrics = pulse_metrics(traj)
            error = None
        except NoPulse as exc:
            metrics = None
            error = f"NoPulse: {exc}"
        target = out_dir if out_dir is not None else (cfg.out_dir or ".")
        paths = emit_outputs(traj, metrics, target, error=error,
                             formatter=helper)
    finally:
        if helper is not None:
            helper.close()
    return RunResult(traj, metrics, error, paths)


def _sweep_one(cfg: ScenarioConfig, value: float, run_dir) -> SweepRow:
    try:
        result = run_scenario(cfg, out_dir=run_dir)
        return SweepRow(value, result.metrics, result.error)
    except (ParameterError, IntegrationError) as exc:
        return SweepRow(value, None, f"{type(exc).__name__}: {exc}")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _portable(exc: BaseException) -> BaseException:
    """``exc``, if a pickled copy of it loads again, else a RuntimeError
    naming its type and message."""
    import pickle
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _sweep_worker(spec: SweepSpec, run_dirs, claims, token, results,
                  inherited) -> None:
    """A forked sweep worker: close the ``inherited`` descriptors, then
    claim the next member index, run it with ``_sweep_one`` and send
    ``(index, row)`` pickled down ``results``, until no member is left
    or the parent stops the sweep.  A member that raises sends the
    exception in place of the row and ends the loop.  The worker exits
    with status 0 once its loop ends, and with status 1 on any exception
    outside a member."""
    import pickle
    global _in_sweep_worker
    _in_sweep_worker = True
    take, give = token
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(results, "wb") as pipe:
            row = None
            while not isinstance(row, BaseException):
                os.read(take, 1)    # the one token: claims are ours alone
                i = int(claims[0])
                if claims[1] or i == len(run_dirs):
                    os.write(give, b"\0")
                    break
                claims[0] = i + 1
                os.write(give, b"\0")
                try:
                    record = pickle.dumps((i, row := _sweep_one(
                        spec.members[i], spec.values[i], run_dirs[i])))
                except BaseException as exc:
                    record = pickle.dumps((i, row := _portable(exc)))
                pipe.write(len(record).to_bytes(8, "little") + record)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _reap(pids: list) -> None:
    """Wait for each child in ``pids``.  An exception while waiting, such
    as a KeyboardInterrupt, kills the children left with SIGKILL and
    reaps them before it propagates."""
    try:
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
    except BaseException:
        import signal
        for pid in pids:    # the last may be reaped already
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        raise


def _run_forked(spec: SweepSpec, run_dirs: list) -> list[SweepRow]:
    """The rows of the members, run by workers forked from this process,
    one per usable CPU up to the number of members; see ``run_sweep``.

    The workers claim indices from a counter in an anonymous shared
    mmap, under a one-byte token that a pipe passes between them, so no
    buffer bounds the number of members.  This process only reads each
    worker's result pipe as it fills, and reaps each worker at its end
    of file.  A failure sets the stop flag beside the counter and adds a
    token, for workers waiting on one that a dead worker held; the
    workers then finish the member they run and claim no other.  An
    exception here closes the result pipes, so a worker fails at its
    next report, and reaps every worker before it propagates."""
    import mmap
    import pickle
    import select

    _tables()   # the formatter's, built once here: the workers share them
    shared = mmap.mmap(-1, 16)
    claims = np.frombuffer(shared, np.int64)  # the next index, the stop flag
    token = os.pipe()
    os.write(token[1], b"\0")
    workers = {}            # result pipe -> worker pid
    received = {}           # result pipe -> bytes not yet loaded
    rows = [None] * len(run_dirs)
    failure = None
    try:
        for _ in range(min(len(run_dirs), _usable_cpus())):
            fds = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fds[0])
                os.close(fds[1])
                raise
            if pid == 0:
                _sweep_worker(spec, run_dirs, claims, token, fds[1],
                              (fds[0], *workers))
            os.close(fds[1])
            workers[fds[0]], received[fds[0]] = pid, bytearray()
        while workers:
            for fd in select.select(list(workers), [], [])[0]:
                buf = received[fd]
                chunk = os.read(fd, 1 << 16)
                buf += chunk
                while len(buf) >= 8 and len(buf) >= (
                        end := 8 + int.from_bytes(buf[:8], "little")):
                    i, row = pickle.loads(buf[8:end])
                    del buf[:end]
                    if not isinstance(row, BaseException):
                        rows[i] = row
                    elif failure is None:
                        failure = row
                if not chunk:
                    os.close(fd)
                    pid = workers.pop(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if code and failure is None:
                        failure = OSError(
                            f"a sweep worker exited with status {code}")
                if failure is not None and not claims[1]:
                    claims[1] = 1
                    os.write(token[1], b"\0")
    finally:
        claims[1] = 1
        os.write(token[1], b"\0")
        for fd in workers:      # a worker writing to one fails at once
            os.close(fd)
        try:
            _reap(list(workers.values()))
        finally:
            os.close(token[0])
            os.close(token[1])
            claims = None       # no array may hold the mmap it closes
            shared.close()
    if failure is None and None in rows:
        failure = OSError(f"a sweep worker exited with status 0 before it "
                          f"reported member {rows.index(None)}")
    if failure is not None:
        raise failure
    return rows


def run_sweep(spec: SweepSpec, out_dir=".") -> list[SweepRow]:
    """Run the spec's members, one subdirectory each, plus summary.csv.

    Where the platform has ``os.fork``, members run in worker processes
    forked for the call, one per usable CPU up to the number of members.
    Each worker inherits the spec, claims the next member in value order
    when it is free and runs it with ``_sweep_one``, looked up when it
    runs.  Each member writes only its own ``run_NNN/``, so every output
    byte is what a run of the members one after another writes; without
    fork they run so, in this process.  A failing run is recorded in its
    row and does not stop the sweep.  Any other exception of a member,
    or a worker that dies before it reports, stops the sweep: no member
    not yet claimed starts, and the exception, or an ``OSError`` naming
    the worker's exit status, reaches the caller once every worker has
    exited.  An exception that cannot be pickled arrives as a
    RuntimeError naming its type and message.  No summary.csv is
    written then.  No worker outlives the call.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_dirs = [out / f"run_{i:03d}" for i in range(len(spec.values))]
    if hasattr(os, "fork"):
        rows = _run_forked(spec, run_dirs)
    else:
        rows = [_sweep_one(*member)
                for member in zip(spec.members, spec.values, run_dirs)]

    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_SUMMARY_COLUMNS) + "\n")
        for row in rows:
            record = _summary_record(row)
            fh.write(",".join(_cell(record.get(c))
                              for c in _SUMMARY_COLUMNS) + "\n")
    return rows
