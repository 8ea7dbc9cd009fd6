"""File outputs and sweep orchestration: formats, determinism, ordering."""

import contextlib
import errno
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from filmsr import (IntegratorControl, cli, config, dynamics, initial_state,
                    make_params, pulse_metrics, runner)
from filmsr.config import (PRESET_NAMES, ScenarioConfig, SweepSpec,
                           apply_sweep_value, load_preset,
                           scenario_from_mapping)
from filmsr.dynamics import Trajectory
from filmsr.observables import Branching, FinalPopulations, PulseMetrics
from filmsr.runner import (TRAJECTORY_COLUMNS, SweepRow, emit_outputs,
                           run_scenario, run_sweep)

# small coherent scenario: full pulse by t = 14, ~1400 output samples
FAST = ScenarioConfig(
    params=make_params(0.0, 0.5),
    init=initial_state(rho22=0.5, rho33=0.5, rho32=0.5),
    t_end=14.0,
)

NO_PULSE = ScenarioConfig(
    params=make_params(5.0, 0.0),
    init=initial_state(rho22=0.2, rho33=0.2),
    t_end=5.0,
)


class NeedsTwoArgs(Exception):
    """Pickled as its class and message, which cannot make it again."""

    def __init__(self, what, how):
        super().__init__(f"{what} {how}")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    return header, body


class TestEmitOutputs:
    def test_trajectory_header_exact(self, preset_runs, tmp_path):
        traj = preset_runs["fig2"]
        emit_outputs(traj, pulse_metrics(traj), tmp_path)
        header, body = read_csv(tmp_path / "trajectory.csv")
        assert header == list(TRAJECTORY_COLUMNS)
        assert len(body) == traj.t.size
        assert all(len(row) == 13 for row in body[:50])

    def test_rows_round_trip_to_floats(self, preset_runs, tmp_path):
        traj = preset_runs["fig2"]
        emit_outputs(traj, pulse_metrics(traj), tmp_path)
        _, body = read_csv(tmp_path / "trajectory.csv")
        assert float(body[0][0]) == 0.0
        i = 1234
        assert float(body[i][1]) == traj.rho11[i]
        assert float(body[i][10]) == np.abs(traj.emitted_amp[i])

    def test_metrics_json_shape(self, preset_runs, tmp_path):
        traj = preset_runs["fig2"]
        emit_outputs(traj, pulse_metrics(traj), tmp_path)
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert set(payload) == {"t_peak", "fwhm", "peak_amp",
                                "oscillation_freq", "final_pops", "branching",
                                "end_of_run_time", "steps_accepted",
                                "steps_rejected", "rhs_evals"}
        assert isinstance(payload["branching"]["blocked_31"], bool)
        assert payload["final_pops"]["rho11"] == pytest.approx(1.0, abs=1e-3)

    def test_plot_script_written(self, preset_runs, tmp_path):
        traj = preset_runs["fig2"]
        paths = emit_outputs(traj, None, tmp_path)
        assert (tmp_path / "plot.py").exists()
        assert len(paths) == 3


class TestRunScenario:
    def test_in_memory_only(self, tmp_path):
        result = run_scenario(FAST, out_dir=tmp_path)
        assert result.error is None
        assert result.metrics.t_peak == pytest.approx(9.037, abs=0.05)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(FAST, out_dir=a)
        run_scenario(FAST, out_dir=b)
        for name in ("trajectory.csv", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_no_pulse_is_reported_not_raised(self, tmp_path):
        result = run_scenario(NO_PULSE, out_dir=tmp_path)
        assert result.metrics is None
        assert result.error.startswith("NoPulse")
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert "error" in payload
        assert "t_peak" not in payload
        assert (tmp_path / "trajectory.csv").exists()

    def test_out_dir_argument_beats_config(self, tmp_path):
        cfg_dir, arg_dir = tmp_path / "from_cfg", tmp_path / "from_arg"
        from dataclasses import replace
        cfg = replace(FAST, out_dir=str(cfg_dir))
        run_scenario(cfg, out_dir=arg_dir)
        assert arg_dir.exists() and not cfg_dir.exists()
        run_scenario(cfg)
        assert cfg_dir.exists()


class TestRunSweep:
    BASE = scenario_from_mapping({
        "params.omega32": "5.0", "params.delta_L": "0.0",
        "init.rho22": "0.5", "init.rho33": "0.5", "run.t_end": "40.0",
    })

    def test_family_ordering_and_layout(self, tmp_path):
        values = (0.0, 1.0 / 7.0, 1.0)
        rows = run_sweep(SweepSpec(self.BASE, "delta_L", values), tmp_path)
        assert tuple(row.value for row in rows) == values
        for i in range(3):
            d = tmp_path / f"run_{i:03d}"
            assert (d / "trajectory.csv").exists()
            assert (d / "metrics.json").exists()
        header, body = read_csv(tmp_path / "summary.csv")
        assert header[0] == "value"
        assert [float(r[0]) for r in body] == list(values)
        # stronger local field shifts emission away from the R21 channel
        delta22 = [float(r[header.index("delta22")]) for r in body]
        assert delta22[0] > delta22[1] > delta22[2]

    def test_single_value_sweep_matches_direct_run(self, tmp_path):
        rows = run_sweep(SweepSpec(FAST, "delta_L", (0.5,)),
                         tmp_path / "sweep")
        direct = run_scenario(FAST, out_dir=tmp_path / "direct")
        assert rows[0].metrics.t_peak == direct.metrics.t_peak
        assert ((tmp_path / "sweep" / "run_000" / "trajectory.csv").read_bytes()
                == (tmp_path / "direct" / "trajectory.csv").read_bytes())

    def test_repeated_sweep_writes_identical_bytes(self, tmp_path,
                                                   monkeypatch):
        """A member's bytes depend on its config alone, not on the worker
        that ran it or its place in the family: the values run twice in
        order and once permuted, with more members than workers, and
        every member's files equal a direct run in this process."""
        cpus = runner._usable_cpus()
        monkeypatch.setattr(runner, "_usable_cpus", lambda: min(cpus, 2))
        values = (0.3, 0.5, 0.8, 0.1, 0.65)
        permuted = (0.65, 0.8, 0.1, 0.5, 0.3)
        spec = SweepSpec(FAST, "delta_L", values)
        run_sweep(spec, tmp_path / "first")
        run_sweep(spec, tmp_path / "second")
        run_sweep(SweepSpec(FAST, "delta_L", permuted), tmp_path / "permuted")
        summary = (tmp_path / "first" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "second" / "summary.csv").read_bytes()
        header, *rows = summary.splitlines()
        p_header, *p_rows = (tmp_path / "permuted"
                             / "summary.csv").read_bytes().splitlines()
        assert p_header == header
        assert p_rows == [rows[values.index(v)] for v in permuted]
        for i, value in enumerate(values):
            direct = tmp_path / "direct" / str(i)
            run_scenario(apply_sweep_value(FAST, "delta_L", value),
                         out_dir=direct)
            members = (tmp_path / "first" / f"run_{i:03d}",
                       tmp_path / "second" / f"run_{i:03d}",
                       tmp_path / "permuted"
                       / f"run_{permuted.index(value):03d}")
            for name in ("trajectory.csv", "metrics.json"):
                expected = (direct / name).read_bytes()
                for member in members:
                    assert (member / name).read_bytes() == expected, \
                        (member, name)

    def test_members_are_built_once(self, tmp_path, monkeypatch):
        """Making the spec builds and checks each member; run_sweep runs
        those, so a 4-member sweep calls apply_sweep_value 4 times in
        this process, wherever it is looked up."""
        real, calls = config.apply_sweep_value, []

        def counted(base, param, value):
            calls.append(value)
            return real(base, param, value)

        monkeypatch.setattr(config, "apply_sweep_value", counted)
        monkeypatch.setattr(runner, "apply_sweep_value", counted,
                            raising=False)
        monkeypatch.setattr(runner, "_sweep_one", lambda cfg, value, run_dir:
                            SweepRow(value, None, None))
        values = (0.1, 0.2, 0.3, 0.4)
        run_sweep(SweepSpec(FAST, "delta_L", values), tmp_path)
        assert calls == list(values)

    def test_members_run_in_at_most_one_worker_per_cpu(self, tmp_path,
                                                       monkeypatch):
        """Members run outside this process, in no more workers than
        there are usable CPUs or members, and no worker outlives the
        sweep."""
        def member(cfg, value, run_dir):
            time.sleep(0.05)
            return SweepRow(value, None, str(os.getpid()))

        monkeypatch.setattr(runner, "_sweep_one", member)
        values = tuple(i / 8 for i in range(8))
        rows = run_sweep(SweepSpec(FAST, "delta_L", values), tmp_path)
        assert tuple(row.value for row in rows) == values
        pids = {row.error for row in rows}
        assert str(os.getpid()) not in pids
        assert len(pids) <= min(len(values), len(os.sched_getaffinity(0)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_members_run_here_in_order(self, tmp_path,
                                                    monkeypatch):
        """Where os.fork is missing, the members run one after another in
        this process, and the rows come back in value order."""
        monkeypatch.setattr(runner, "_sweep_one", lambda cfg, value, run_dir:
                            SweepRow(value, None, str(os.getpid())))
        monkeypatch.delattr(os, "fork")
        values = (0.5, 0.1, 0.3)
        rows = run_sweep(SweepSpec(FAST, "delta_L", values), tmp_path)
        assert rows == [SweepRow(v, None, str(os.getpid())) for v in values]
        assert (tmp_path / "summary.csv").exists()

    def test_unexpected_error_reaches_the_caller(self, tmp_path,
                                                 monkeypatch):
        """An exception that is not a run failure reaches the caller with
        its type and message, the members not yet handed to a worker
        never start, no worker outlives the sweep and no summary is
        written."""
        cpus = runner._usable_cpus()
        monkeypatch.setattr(runner, "_usable_cpus", lambda: min(cpus, 2))
        started = tmp_path / "started"
        started.mkdir()

        def member(cfg, value, run_dir):
            (started / repr(value)).touch()
            if value == 0.0:
                raise RuntimeError("member 0.0 broke")
            time.sleep(0.2)
            return SweepRow(value, None, None)

        monkeypatch.setattr(runner, "_sweep_one", member)
        values = tuple(i / 16 for i in range(12))
        with pytest.raises(RuntimeError) as caught:
            run_sweep(SweepSpec(FAST, "delta_L", values), tmp_path / "out")
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == "member 0.0 broke"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (tmp_path / "out" / "summary.csv").exists()
        ran = {float(p.name) for p in started.iterdir()}
        assert 0.0 in ran
        assert values[-1] not in ran and len(ran) < len(values)

    @pytest.mark.parametrize("status", [7, 0])
    def test_dead_worker_raises_naming_its_status(self, status, tmp_path,
                                                  monkeypatch, alarm):
        """A worker that dies before it reports, here by os._exit in its
        member, makes the sweep raise OSError naming the exit status,
        even 0, once the others have exited; no summary, no child
        left."""
        def member(cfg, value, run_dir):
            if value == 0.25:
                os._exit(status)
            return SweepRow(value, None, None)

        monkeypatch.setattr(runner, "_sweep_one", member)
        with pytest.raises(OSError, match=f"exited with status {status}"):
            run_sweep(SweepSpec(FAST, "delta_L", (0.0, 0.25, 0.5, 0.75)),
                      tmp_path)
        assert not (tmp_path / "summary.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("kind", ["local", "needs_two_args"])
    def test_unpicklable_error_reaches_the_caller(self, kind, tmp_path,
                                                  monkeypatch, alarm):
        """An exception that cannot be pickled (a local class), or whose
        pickle does not load (its __init__ takes two arguments), reaches
        the caller as a RuntimeError naming its type and message."""
        class Local(Exception):
            pass

        def member(cfg, value, run_dir):
            if value == 0.5:
                raise (Local("member broke") if kind == "local"
                       else NeedsTwoArgs("member", "broke"))
            return SweepRow(value, None, None)

        monkeypatch.setattr(runner, "_sweep_one", member)
        with pytest.raises(RuntimeError) as caught:
            run_sweep(SweepSpec(FAST, "delta_L", (0.0, 0.5, 1.0)), tmp_path)
        name = "Local" if kind == "local" else "NeedsTwoArgs"
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == f"{name}: member broke"
        assert not (tmp_path / "summary.csv").exists()

    def test_interrupt_in_a_member_reaches_the_caller(self, tmp_path,
                                                      monkeypatch, alarm):
        """A KeyboardInterrupt raised inside a worker's member reaches the
        caller, as any exception a member raises does."""
        def member(cfg, value, run_dir):
            if value == 0.5:
                raise KeyboardInterrupt
            return SweepRow(value, None, None)

        monkeypatch.setattr(runner, "_sweep_one", member)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(SweepSpec(FAST, "delta_L", (0.0, 0.5, 1.0)), tmp_path)
        assert not (tmp_path / "summary.csv").exists()

    def test_interrupt_here_stops_the_sweep(self, tmp_path, monkeypatch,
                                            alarm):
        """A KeyboardInterrupt in this process while the workers run
        reaches the caller once they have finished the members they run:
        no other member starts, no summary is written, no child is
        left."""
        started = tmp_path / "started"
        started.mkdir()

        def member(cfg, value, run_dir):
            (started / repr(value)).touch()
            time.sleep(0.2)
            return SweepRow(value, None, None)

        def select(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "_sweep_one", member)
        monkeypatch.setattr("select.select", select)
        values = tuple(i / 16 for i in range(12))
        with no_fd_leak(), pytest.raises(KeyboardInterrupt):
            run_sweep(SweepSpec(FAST, "delta_L", values), tmp_path / "out")
        assert not (tmp_path / "out" / "summary.csv").exists()
        assert len(list(started.iterdir())) <= runner._usable_cpus()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_while_reaping_kills_the_workers(self, tmp_path,
                                                       monkeypatch, alarm):
        """A second KeyboardInterrupt, while this process waits for the
        workers to finish their members, kills them: the call ends at
        once, not after the members' 30 s, and leaves no child."""
        me = os.getpid()
        real_waitpid = os.waitpid
        interrupts = []

        def member(cfg, value, run_dir):
            time.sleep(30)
            return SweepRow(value, None, None)

        def select(*args):
            raise KeyboardInterrupt

        def waitpid(pid, options):
            if os.getpid() == me and options == 0 and not interrupts:
                interrupts.append(pid)
                raise KeyboardInterrupt
            return real_waitpid(pid, options)

        monkeypatch.setattr(runner, "_sweep_one", member)
        monkeypatch.setattr("select.select", select)
        monkeypatch.setattr(os, "waitpid", waitpid)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(SweepSpec(FAST, "delta_L", (0.0, 0.5, 1.0)), tmp_path)
        assert time.monotonic() - began < 10
        assert interrupts
        with pytest.raises(ChildProcessError):
            real_waitpid(-1, os.WNOHANG)

    def test_many_quick_members_each_run_once_in_order(self, tmp_path,
                                                       monkeypatch, alarm):
        """Members claim nothing from a buffer of jobs: a worker takes the
        next index from a shared counter under a one-byte token, so no
        pipe bounds their number.  10 000 members, more than a 64 KiB
        pipe holds as 8-byte job records, return at once on 8 workers,
        more than most hosts have cores, and send more rows down each
        worker's pipe than it holds; each member runs once, the rows
        come back in value order, and each worker claims its members in
        that order."""
        log = tmp_path / "log"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def member(cfg, value, run_dir):
            os.write(fd, f"{os.getpid()} {value!r}\n".encode())
            return SweepRow(value, None, "x" * 64)

        monkeypatch.setattr(runner, "_sweep_one", member)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 8)
        values = tuple(i / 10000 for i in range(10000))
        try:
            rows = run_sweep(SweepSpec(FAST, "delta_L", values), tmp_path)
        finally:
            os.close(fd)
        assert [row.value for row in rows] == list(values)
        claims = [line.split() for line in log.read_text().splitlines()]
        assert sorted(float(v) for _, v in claims) == list(values)
        for pid in {pid for pid, _ in claims}:
            mine = [float(v) for p, v in claims if p == pid]
            assert mine == sorted(mine)

    def test_failed_run_recorded_in_row(self, tmp_path, monkeypatch):
        """The forked workers inherit the tightened drift bound."""
        from dataclasses import replace
        monkeypatch.setattr(dynamics, "_INVARIANT_TOL", 1e-16)
        doomed = replace(FAST, t_end=5.0)
        rows = run_sweep(SweepSpec(doomed, "delta_L", (0.3, 0.5)), tmp_path)
        assert all(row.error is not None for row in rows)
        assert all(row.metrics is None for row in rows)
        header, body = read_csv(tmp_path / "summary.csv")
        assert len(body) == 2
        err = body[0][header.index("error")]
        assert "InvariantDrift" in err
        assert "," not in err


def random_trajectory(rows):
    """A trajectory of ``rows`` samples of random numbers of mixed sign
    and magnitude, for the writer alone."""
    rng = np.random.default_rng(rows)
    scale = 10.0 ** rng.integers(-17, 3, (2, 6, rows))
    parts = rng.standard_normal((2, 6, rows)) * scale
    return Trajectory(t=np.arange(rows) * 0.002, y=parts[0] + 1j * parts[1],
                      params=make_params(5.0, 0.5),
                      control=IntegratorControl(dt=0.002),
                      steps_accepted=1, steps_rejected=0, rhs_evals=12)


def count_forks(monkeypatch):
    """Record the pid of every child os.fork makes in this process."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@contextlib.contextmanager
def no_fd_leak():
    """Fail if the block leaves a file descriptor of this process open
    that was not open before it: a pipe or a file."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list open file descriptors")
    before = sorted(os.listdir("/proc/self/fd"), key=int)
    yield
    assert sorted(os.listdir("/proc/self/fd"), key=int) == before


def one_process_bytes(traj):
    """trajectory.csv as one process writing every row writes it."""
    return (",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n"
        for row in runner._trajectory_table(
            traj.t, traj.y, traj.params).tolist())).encode()


def property_table(traj):
    """The trajectory.csv columns built from the Trajectory properties."""
    emitted = traj.emitted_amp
    return np.column_stack((
        traj.t, traj.rho11, traj.rho22, traj.rho33,
        traj.rho32.real, traj.rho32.imag, traj.R21.real, traj.R21.imag,
        traj.R31.real, traj.R31.imag,
        np.abs(emitted), np.abs(traj.acting_amp),
        np.unwrap(np.angle(emitted))))


class TestTrajectoryTable:
    """_trajectory_table of the sample arrays is, bit for bit, the table
    the Trajectory properties give, whatever the layout of ``y``."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_matches_the_properties_on_the_presets(self, preset,
                                                   preset_runs):
        traj = preset_runs[preset]
        assert not traj.y.flags.c_contiguous    # a transposed (n, 6) store
        assert (runner._trajectory_table(traj.t, traj.y, traj.params)
                .tobytes() == property_table(traj).tobytes())

    def test_matches_the_properties_on_a_bright_dark_run(self,
                                                         preset_bd_runs):
        traj = preset_bd_runs["fig5"]
        assert traj.y.flags.c_contiguous        # rotated into a new array
        assert (runner._trajectory_table(traj.t, traj.y, traj.params)
                .tobytes() == property_table(traj).tobytes())


class TestSplitRows:
    """trajectory.csv rows formatted partly by a helper that emit_outputs
    forks give the bytes of one process formatting them all."""

    S = runner._SPLIT_ROWS
    # fewer rows than S are written by one process
    ROWS = (1, S - 1, S, S + 1, S + S // 2 + 7)
    PARTS = {1: (1, 1, 1, 1, 1), 2: (1, 1, 2, 2, 2), 3: (1, 1, 2, 2, 2)}

    @pytest.mark.parametrize("cpus", sorted(PARTS))
    @pytest.mark.parametrize("index", range(len(ROWS)))
    def test_split_bytes_equal_one_part(self, cpus, index, tmp_path,
                                        monkeypatch, alarm):
        rows = self.ROWS[index]
        traj = random_trajectory(rows)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
        with no_fd_leak():
            emit_outputs(traj, None, tmp_path)
        assert ((tmp_path / "trajectory.csv").read_bytes()
                == one_process_bytes(traj))
        assert len(forks) == self.PARTS[cpus][index] - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("rows", [S + 1, S - 1])
    def test_helper_for_a_longer_grid_forks_once_when_made(
            self, rows, tmp_path, monkeypatch, alarm):
        """A helper made for a longer grid than the trajectory, as
        run_scenario makes one for a run that stops early, forks once,
        when it is made, and emit_outputs forks nothing more, even for
        fewer than S rows.  The bytes are those of one process."""
        traj = random_trajectory(rows)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak():
            helper = runner._Formatter(random_trajectory(2 * self.S).t,
                                       traj.params)
            assert len(forks) == 1
            emit_outputs(traj, None, tmp_path, formatter=helper)
        assert len(forks) == 1
        assert helper.pid is None and helper.shared is None
        assert helper.code == 0
        assert ((tmp_path / "trajectory.csv").read_bytes()
                == one_process_bytes(traj))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_cpu_makes_no_helper(self, tmp_path, monkeypatch, alarm):
        """run_scenario with one usable CPU makes no helper and forks
        nothing; with two it makes one, which forks once."""
        forks = count_forks(monkeypatch)
        made = []
        real_formatter = runner._Formatter

        def formatter(*args):
            made.append(args)
            return real_formatter(*args)

        monkeypatch.setattr(runner, "_Formatter", formatter)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
        run_scenario(FAST, out_dir=tmp_path)
        assert made == [] and forks == []
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        run_scenario(FAST, out_dir=tmp_path)
        assert len(made) == 1 and len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_child_raises_and_is_reaped(self, tmp_path, monkeypatch,
                                                capsys, alarm):
        """A child that fails makes the write raise OSError naming its
        exit status, which the CLI reports as an io error (exit 2); no
        trajectory.csv is left, and no child running or unreaped."""
        me = os.getpid()
        real_rows = runner._csv_rows

        def csv_rows(block):
            if os.getpid() != me:
                raise RuntimeError("formatter broke")
            return real_rows(block)

        monkeypatch.setattr(runner, "_csv_rows", csv_rows)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak(), pytest.raises(OSError,
                                         match="exited with status 1"):
            emit_outputs(random_trajectory(2 * self.S), None,
                         tmp_path / "direct")
        assert not (tmp_path / "direct" / "trajectory.csv").exists()
        assert not (tmp_path / "direct" / "metrics.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        scenario = tmp_path / "fast.cfg"
        scenario.write_text("params.omega32 = 0.0\nparams.delta_L = 0.5\n"
                            "init.rho22 = 0.5\ninit.rho33 = 0.5\n"
                            "init.rho32 = 0.5\nrun.t_end = 14.0\n",
                            encoding="utf-8")
        code = cli.main(["run", str(scenario), "--out-dir",
                         str(tmp_path / "cli")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("io error:") and "exited with status 1" in err
        assert not (tmp_path / "cli" / "trajectory.csv").exists()
        assert not (tmp_path / "cli" / "metrics.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_here_reaps_children_blocked_on_full_pipes(
            self, tmp_path, monkeypatch, alarm):
        """This process failing to copy the helper's pipe, while the
        helper writes half of three times the fewest rows (well over the
        64 KiB a pipe holds), raises its own error and leaves no child
        running or unreaped, no pipe open and no trajectory.csv."""
        me = os.getpid()
        real_read = os.read

        def read(fd, n):
            # the reply of the helper passes; the copy of its rows fails
            if os.getpid() == me and n == runner._COPY_CHUNK:
                raise OSError(errno.EIO, "copy failed")
            return real_read(fd, n)

        monkeypatch.setattr(os, "read", read)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak(), pytest.raises(OSError, match="copy failed"):
            emit_outputs(random_trajectory(3 * self.S), None, tmp_path)
        assert not (tmp_path / "trajectory.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_dead_before_its_reply_leaves_no_rows(
            self, tmp_path, monkeypatch, alarm):
        """A helper that exits before it replies leaves this process no
        rows to format: the write raises OSError naming the helper's
        status, and no trajectory.csv is left."""
        me = os.getpid()
        mine = []
        real_rows = runner._csv_rows

        def csv_rows(block):
            if os.getpid() == me:
                mine.append(len(block))
            return real_rows(block)

        monkeypatch.setattr(runner._Formatter, "_serve",
                            lambda self, cmd, text: os._exit(1))
        monkeypatch.setattr(runner, "_csv_rows", csv_rows)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak(), pytest.raises(OSError,
                                         match="exited with status 1"):
            emit_outputs(random_trajectory(2 * self.S), None, tmp_path)
        assert sum(mine) == 0
        assert not (tmp_path / "trajectory.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unopenable_file_forks_no_child(self, tmp_path, monkeypatch,
                                            alarm):
        """trajectory.csv is opened before the helper is forked, so a
        file that cannot be opened raises with no child made; the
        directory in its place stays."""
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        (tmp_path / "trajectory.csv").mkdir()
        with no_fd_leak(), pytest.raises(IsADirectoryError):
            emit_outputs(random_trajectory(2 * self.S), None, tmp_path)
        assert forks == []
        assert (tmp_path / "trajectory.csv").is_dir()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_failed_start_leaves_nothing_open(self, failing, tmp_path,
                                              monkeypatch):
        """A helper whose second pipe or fork fails raises that error
        with no pipe left open, no child and no trajectory.csv."""
        calls = []
        real_pipe, real_fork = os.pipe, os.fork

        def pipe():
            calls.append("pipe")
            if failing == "pipe" and calls.count("pipe") == 2:
                raise OSError(errno.EMFILE, "no pipe")
            return real_pipe()

        def fork():
            calls.append("fork")
            if failing == "fork":
                raise OSError(errno.EAGAIN, "no fork")
            return real_fork()

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak(), pytest.raises(OSError, match=f"no {failing}"):
            emit_outputs(random_trajectory(2 * self.S), None, tmp_path)
        assert calls == (["pipe", "pipe"] if failing == "pipe"
                         else ["pipe", "pipe", "fork"])
        assert not (tmp_path / "trajectory.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_sweep_workers_do_not_split(self, tmp_path, monkeypatch, alarm):
        """A sweep's workers format their rows alone, while the same
        member run in this process splits them.  Every os.fork call
        appends its caller's pid to a file: the sweep forks its workers
        from this process too, so a count kept here could not tell the
        two apart."""
        me = str(os.getpid())
        log = tmp_path / "forks"
        real_fork = os.fork

        def fork():
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        run_sweep(SweepSpec(FAST, "delta_L", (0.3, 0.5)), tmp_path / "sweep")
        callers = log.read_text(encoding="utf-8").split()
        assert callers and set(callers) == {me}
        run_scenario(apply_sweep_value(FAST, "delta_L", 0.3),
                     out_dir=tmp_path / "direct")
        assert log.read_text(encoding="utf-8").split() == callers + [me]
        assert ((tmp_path / "sweep" / "run_000" / "trajectory.csv")
                .read_bytes()
                == (tmp_path / "direct" / "trajectory.csv").read_bytes())


def _prefix_mismatches(rows=2000, splits=40):
    """The prefix lengths k, at random split points, for which the table
    of the first k samples, stored as the helper stores them ((k, 6)
    states transposed), is not bit for bit the first k rows of the table
    of all ``rows`` samples of ``random_trajectory``."""
    traj = random_trajectory(rows)
    full = runner._trajectory_table(traj.t, traj.y, traj.params)
    y_rows = np.ascontiguousarray(traj.y.T)
    points = np.random.default_rng(splits).integers(1, rows, splits)
    return [int(k) for k in (1, 2, *points, rows)
            if runner._trajectory_table(
                traj.t[:k], y_rows[:k].T, traj.params).tobytes()
            != full[:k].tobytes()]


_NUMPY_SIMD = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
_PREFIX_CHILD = """
import json
from numpy._core._multiarray_umath import __cpu_features__
import test_runner
print(json.dumps([test_runner._prefix_mismatches(),
                  [f for f in test_runner._NUMPY_SIMD
                   if __cpu_features__.get(f)]]))
"""


class TestFormatterHelper:
    """run_scenario forks one helper that formats the final rows of
    trajectory.csv while the stepper runs; the bytes do not depend on
    it, and no child outlives a run that fails."""

    DRIFT = ("params.omega32 = 0.0\nparams.delta_L = 0.5\n"
             "init.rho22 = 0.5\ninit.rho33 = 0.5\ninit.rho32 = 0.5\n"
             "run.t_end = 14.0\n")

    @pytest.mark.parametrize("preset", ["fig4", "degenerate"])
    def test_bytes_do_not_depend_on_the_split(self, preset, tmp_path,
                                              monkeypatch, alarm):
        """The helper, one process (one usable CPU) and one process
        beside a second thread write the same bytes; only the first
        forks, once, and it has formatted rows before the run ends."""
        cfg = load_preset(preset)
        forks = count_forks(monkeypatch)
        starts = []
        real_finish = runner._Formatter.finish

        def finish(self, traj):
            starts.append((real_finish(self, traj), traj.t.size))
            return starts[-1][0]

        monkeypatch.setattr(runner._Formatter, "finish", finish)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak():
            run_scenario(cfg, out_dir=tmp_path / "helper")
        assert len(forks) == 1
        [((start, stop, head), rows)] = starts
        assert 0 < start <= stop <= rows and head > 0

        monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
        run_scenario(cfg, out_dir=tmp_path / "one")
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            run_scenario(cfg, out_dir=tmp_path / "thread")
        finally:
            release.set()
            other.join()
        assert len(forks) == 1 and len(starts) == 1
        for name in ("trajectory.csv", "metrics.json", "plot.py"):
            expected = (tmp_path / "one" / name).read_bytes()
            for case in ("helper", "thread"):
                assert (tmp_path / case / name).read_bytes() == expected, \
                    (case, name)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_forks_before_the_stepper_runs(self, tmp_path,
                                                  monkeypatch, alarm):
        """run_scenario forks its helper before it calls integrate, and
        forks no other."""
        forks = count_forks(monkeypatch)
        seen = []
        real_integrate = runner.integrate

        def integrate(*args, **kwargs):
            seen.append(len(forks))
            return real_integrate(*args, **kwargs)

        monkeypatch.setattr(runner, "integrate", integrate)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak():
            run_scenario(FAST, out_dir=tmp_path)
        assert seen == [1] and len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_table_of_every_prefix_is_a_prefix_of_the_table(self):
        """np.unwrap's cumulative sum runs in order and the other columns
        are elementwise, so the rows the helper formats from the samples
        it has are those of the full table."""
        assert _prefix_mismatches() == []

    def test_table_prefixes_without_wide_simd(self):
        """The same comparison with numpy's AVX2 and AVX-512 kernels
        switched off, in a child process."""
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_NUMPY_SIMD))
        src = pathlib.Path(runner.__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(pathlib.Path(__file__).resolve().parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-c", _PREFIX_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [[], []]

    FEEDS = 20_000      # 2.4 times the counts a 64 KiB pipe holds

    def feed_each_row(self, helper, traj):
        """Feed the first FEEDS rows one at a time, as integrate would
        if every sample were checked on its own."""
        for k in range(1, self.FEEDS + 1):
            helper.feed(traj.y.T[:k])

    def test_a_full_pipe_never_blocks_the_stepper(self, tmp_path,
                                                  monkeypatch, alarm):
        """A helper that reads no count until this process has sent them
        all neither blocks it nor loses rows: the counts the pipe refuses
        are superseded by the last.  ``finish`` hands over the rows never
        fed; the helper sends the rows before this process's share and
        formats those after it."""
        me = os.getpid()
        gate = tmp_path / "gate"
        # past the alarm, so that a blocked parent fails rather than hangs
        deadline = time.monotonic() + 40
        real_rows = runner._csv_rows

        def csv_rows(block):
            while (os.getpid() != me and not gate.exists()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return real_rows(block)

        monkeypatch.setattr(runner, "_csv_rows", csv_rows)
        rows = 3 * self.FEEDS
        traj = random_trajectory(rows)
        helper = runner._Formatter(traj.t, traj.params)
        try:
            self.feed_each_row(helper, traj)
            gate.touch()
            start, stop, head = helper.finish(traj)
            text = b"".join(iter(lambda: os.read(helper.text, 1 << 16), b""))
        finally:
            code = helper.close()
        assert code == 0
        assert 0 < start <= stop < rows
        lines = [",".join(map(repr, r)) + "\n"
                 for r in runner._trajectory_table(
                     traj.t, traj.y, traj.params).tolist()]
        assert text[:head].decode() == "".join(lines[:start])
        assert text[head:].decode() == "".join(lines[stop:])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_failing_after_its_reply_raises(self, tmp_path,
                                                   monkeypatch, alarm):
        """A helper that fails once it has told this process where to
        start, on the rows never fed, still makes emit_outputs raise
        OSError naming its status; no trajectory.csv, no metrics.json,
        no child."""
        me = os.getpid()
        real_table = runner._Formatter._table

        def table(self, rows):
            if os.getpid() != me and rows > TestFormatterHelper.FEEDS:
                raise RuntimeError("helper broke")
            return real_table(self, rows)

        monkeypatch.setattr(runner._Formatter, "_table", table)
        rows = 3 * self.FEEDS
        traj = random_trajectory(rows)
        helper = runner._Formatter(traj.t, traj.params)
        try:
            self.feed_each_row(helper, traj)
            with pytest.raises(OSError, match="exited with status 1"):
                emit_outputs(traj, None, tmp_path, formatter=helper)
        finally:
            helper.close()
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "metrics.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_integration_error_reaps_the_helper(self, tmp_path, monkeypatch,
                                                capsys, alarm):
        """The README's drift example fails at t = 5.98, with the helper
        forked before the run: exit 3, no trajectory.csv, no child."""
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dynamics, "_INVARIANT_TOL", 1e-15)
        scenario = tmp_path / "drift.cfg"
        scenario.write_text(self.DRIFT, encoding="utf-8")
        with no_fd_leak():
            code = cli.main(["run", str(scenario), "--out-dir",
                             str(tmp_path / "out")])
        assert code == cli.EXIT_INTEGRATION
        assert "t=5.98" in capsys.readouterr().err
        assert len(forks) == 1
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_helper_raises_and_is_reaped(self, tmp_path, monkeypatch,
                                                 capsys, alarm):
        """A helper that fails makes the run raise OSError naming its exit
        status (the CLI: exit 2, io error), leaves no trajectory.csv,
        writes no metrics.json and leaves no child."""
        me = os.getpid()
        real_rows = runner._csv_rows

        def csv_rows(block):
            if os.getpid() != me:
                raise RuntimeError("helper broke")
            return real_rows(block)

        monkeypatch.setattr(runner, "_csv_rows", csv_rows)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        with no_fd_leak(), pytest.raises(OSError,
                                         match="exited with status 1"):
            run_scenario(FAST, out_dir=tmp_path / "direct")
        assert len(forks) == 1
        assert not (tmp_path / "direct" / "trajectory.csv").exists()
        assert not (tmp_path / "direct" / "metrics.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        scenario = tmp_path / "fast.cfg"
        scenario.write_text(self.DRIFT, encoding="utf-8")
        code = cli.main(["run", str(scenario), "--out-dir",
                         str(tmp_path / "cli")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("io error:") and "exited with status 1" in err
        assert len(forks) == 2
        assert not (tmp_path / "cli" / "trajectory.csv").exists()
        assert not (tmp_path / "cli" / "metrics.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unwritable_output_reaps_the_helper(self, tmp_path, monkeypatch,
                                                alarm):
        """An output directory that cannot be made once integration has
        finished raises its own error with the helper started and
        leaves no child."""
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
        (tmp_path / "file").write_text("", encoding="utf-8")
        with pytest.raises(NotADirectoryError):
            run_scenario(FAST, out_dir=tmp_path / "file" / "out")
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestGoldenBytes:
    """Exact text of the three output formats, from hand-built records.

    No integration runs: the trajectory, metrics and sweep rows are
    written by hand, so these bytes change only when a writer changes.
    """

    TRAJ = Trajectory(
        t=np.array([0.0, 0.5, 1.0]),
        y=np.array([[0.25, 0.0, 0.0],
                    [0.5, 0.5j, -0.5],
                    [0.125 - 0.375j, 0.0, 1e-08j],
                    [0.0, 0.5, 1.0],
                    [0.5, 0.25, 0.0],
                    [0.5, 0.25, 0.0]]),
        params=make_params(0.0, 0.0),
        control=IntegratorControl(),
        steps_accepted=7,
        steps_rejected=2,
        rhs_evals=109,
    )
    QUIET = PulseMetrics(
        t_peak=9.25,
        fwhm=1.5,
        peak_amp=0.4263227820914982,
        oscillation_freq=None,
        final_pops=FinalPopulations(
            rho11=0.999999998927068, rho22=0.5, rho33=1e-09, rho_pp=0.25,
            rho_mm=-9.936199939839151e-12),
        branching=Branching(delta33=0.0625, delta22=-1e-12,
                            blocked_31=True, blocked_21=False),
    )
    BEATING = PulseMetrics(
        t_peak=18.145534246057146,
        fwhm=2.1119820713925996,
        peak_amp=0.5,
        oscillation_freq=4.9755198491185215,
        final_pops=FinalPopulations(
            rho11=1.0, rho22=0.0, rho33=5.489627627394504e-10, rho_pp=0.0,
            rho_mm=0.0),
        branching=Branching(delta33=0.4999999994510372, delta22=0.0,
                            blocked_31=False, blocked_21=True),
    )
    NO_PULSE = ("NoPulse: envelope peaked at 1.000e-08, seed 1.000e-08: "
                "emission never developed")

    def test_trajectory_csv(self, tmp_path):
        emit_outputs(self.TRAJ, self.QUIET, tmp_path)
        assert (tmp_path / "trajectory.csv").read_text(encoding="utf-8") == (
            "t,rho11,rho22,rho33,re_rho32,im_rho32,re_R21,im_R21,re_R31,"
            "im_R31,abs_emitted,abs_acting,phase_unwrapped\n"
            "0.0,0.0,0.5,0.5,0.125,-0.375,0.5,0.0,0.25,0.0,0.75,0.75,0.0\n"
            "0.5,0.5,0.25,0.25,0.0,0.0,0.0,0.5,0.0,0.0,0.5,0.5,"
            "1.5707963267948966\n"
            "1.0,1.0,0.0,0.0,0.0,1e-08,-0.5,0.0,0.0,0.0,0.5,0.5,"
            "3.141592653589793\n")

    def test_metrics_json_of_a_pulse(self, tmp_path):
        emit_outputs(self.TRAJ, self.QUIET, tmp_path)
        assert (tmp_path / "metrics.json").read_text(encoding="utf-8") == """\
{
  "t_peak": 9.25,
  "fwhm": 1.5,
  "peak_amp": 0.4263227820914982,
  "oscillation_freq": null,
  "final_pops": {
    "rho11": 0.999999998927068,
    "rho22": 0.5,
    "rho33": 1e-09,
    "rho_pp": 0.25,
    "rho_mm": -9.936199939839151e-12
  },
  "branching": {
    "delta33": 0.0625,
    "delta22": -1e-12,
    "blocked_31": true,
    "blocked_21": false
  },
  "end_of_run_time": null,
  "steps_accepted": 7,
  "steps_rejected": 2,
  "rhs_evals": 109
}
"""

    def test_metrics_json_without_a_pulse(self, tmp_path):
        from dataclasses import replace
        traj = replace(self.TRAJ, end_of_run_time=12.5, steps_rejected=0)
        emit_outputs(traj, None, tmp_path, error=self.NO_PULSE)
        assert (tmp_path / "metrics.json").read_text(encoding="utf-8") == """\
{
  "error": "NoPulse: envelope peaked at 1.000e-08, seed 1.000e-08: \
emission never developed",
  "end_of_run_time": 12.5,
  "steps_accepted": 7,
  "steps_rejected": 0,
  "rhs_evals": 109
}
"""

    def test_summary_columns_are_the_flattened_metrics(self):
        """Every PulseMetrics field has a summary.csv column and every
        column a value, so a field added to the record cannot be dropped
        from the file unnoticed."""
        record = runner._summary_record(SweepRow(0.5, self.BEATING, None))
        assert sorted(record) == sorted(runner._SUMMARY_COLUMNS)

    def test_summary_csv(self, tmp_path, monkeypatch):
        rows = {
            0.0: SweepRow(0.0, self.QUIET, None),
            0.25: SweepRow(0.25, self.BEATING, None),
            1.0 / 3.0: SweepRow(1.0 / 3.0, None, "InvariantDrift: trace "
                                "drifted by 1.000e-07 at t=3, limit 1e-08"),
            1.0: SweepRow(1.0, None, self.NO_PULSE),
        }
        monkeypatch.setattr(runner, "_sweep_one",
                            lambda cfg, value, run_dir: rows[value])
        run_sweep(SweepSpec(FAST, "delta_L", tuple(rows)), tmp_path)
        assert (tmp_path / "summary.csv").read_text(encoding="utf-8") == (
            "value,t_peak,fwhm,peak_amp,oscillation_freq,rho11_end,rho22_end,"
            "rho33_end,rho_pp_end,rho_mm_end,delta33,delta22,blocked_31,"
            "blocked_21,error\n"
            "0.0,9.25,1.5,0.4263227820914982,,0.999999998927068,0.5,1e-09,"
            "0.25,-9.936199939839151e-12,0.0625,-1e-12,true,false,\n"
            "0.25,18.145534246057146,2.1119820713925996,0.5,"
            "4.9755198491185215,1.0,0.0,5.489627627394504e-10,0.0,0.0,"
            "0.4999999994510372,0.0,false,true,\n"
            "0.3333333333333333,,,,,,,,,,,,,,InvariantDrift: trace drifted "
            "by 1.000e-07 at t=3; limit 1e-08\n"
            "1.0,,,,,,,,,,,,,,NoPulse: envelope peaked at 1.000e-08; seed "
            "1.000e-08: emission never developed\n")
