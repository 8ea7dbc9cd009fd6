"""Command-line interface: subcommands, overrides, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from filmsr import config, dynamics, integrate_bright_dark
from filmsr.cli import (EXIT_INTEGRATION, EXIT_OK, EXIT_VALIDATION,
                        _apply_overrides, build_parser, main)
from filmsr.config import load_preset
from conftest import poison_rhs

SCENARIO = """\
# coherent doublet, no local-field correction
params.omega32 = 5.0
params.delta_L = 0.0
init.rho22 = 0.5
init.rho33 = 0.5
init.rho32 = 0.5
run.t_end = 25.0
"""

# valid, with rho33 = 0 and tiny seeds: its first trial step's
# 3rd-order error estimate is subnormal and the 5th-order one is 0
SUBNORMAL_ERROR = """\
params.omega32 = 0.0
params.delta_L = 0.0
params.mu21 = 0.7520233889327563
params.mu31 = 1.19768978558644
init.rho22 = 0.2606864244128987
init.rho33 = 0.0
init.rho32 = 0.0
init.R21 = 1.2033283439203376e-169-9.278138476620684e-169j
init.R31 = -6.750262056746777e-188-2.742392810576483e-187j
run.t_end = 6.259884028450927
"""

# valid runs far shorter than 1: the step floor and the snap of the last
# step to the end must scale with the run
TINY = """\
params.omega32 = {omega32}
params.delta_L = {delta_L}
init.rho22 = 0.5
init.rho33 = 0.5
run.t_end = {t_end}
run.dt = {dt}
"""

PHYSICAL = """\
physical.wavelength_c = 5e-5
physical.thickness = 5e-6
physical.dipole21 = 6.313e-18
physical.dipole31 = 6.313e-18
physical.concentration = 1e21
physical.tau0 = 1e-8
"""


@pytest.fixture()
def scenario_file(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(SCENARIO, encoding="utf-8")
    return p


class TestRun:
    def test_run_writes_outputs(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(scenario_file), "--out-dir", str(out)])
        assert code == EXIT_OK
        assert (out / "trajectory.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "plot.py").exists()
        captured = capsys.readouterr().out
        assert "t_peak" in captured

    def test_t_end_override(self, scenario_file, tmp_path):
        out = tmp_path / "short"
        code = main(["run", str(scenario_file), "--out-dir", str(out),
                     "--t-end", "10"])
        assert code == EXIT_OK
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(10.0)

    def test_preset_builds_the_initial_state_once(self, tmp_path,
                                                  monkeypatch):
        """The scenario holds its initial state: loading, overriding,
        validating and running a preset build it once."""
        real, calls = config.initial_state, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(config, "initial_state", counted)
        assert main(["preset", "fig4", "--out-dir", str(tmp_path),
                     "--t-end", "5"]) == EXIT_OK
        assert len(calls) == 1

    def test_preset_validates_the_config_once(self, tmp_path, monkeypatch):
        """Loading a preset makes, and so checks, the file's config; with
        no override to make a second one, nothing checks it again, not
        ``--out-dir`` and not ``run_scenario``."""
        real, calls = config.ScenarioConfig.validated, []

        def counted(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(config.ScenarioConfig, "validated", counted)
        assert main(["preset", "fig4", "--out-dir", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1

    def test_overrides_are_checked_together(self):
        """--dt 1e-6 with --t-end 1 asks for 1e6 samples, which a run may
        store; fig4's t_end of 40 at that dt, 4e7 samples, may not, so the
        overrides must be made in one step."""
        args = build_parser().parse_args(["preset", "fig4", "--dt", "1e-6",
                                          "--t-end", "1"])
        cfg = _apply_overrides(load_preset("fig4"), args)
        assert (cfg.t_end, cfg.control.dt) == (1.0, 1e-6)

    def test_error_norm_of_a_subnormal_estimate(self, tmp_path):
        """A config whose first trial step has e5 = 0 and a subnormal e3,
        so that the norm's denominator (e5 + 0.01 e3) * 6 underflows to 0:
        the step's error is 0, and the run ends with NoPulse (exit 0).
        Both integration paths take the same steps."""
        p = tmp_path / "subnormal.cfg"
        p.write_text(SUBNORMAL_ERROR, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["error"].startswith("NoPulse: ")
        counts = (metrics["steps_accepted"], metrics["steps_rejected"],
                  metrics["rhs_evals"])
        assert counts == (5, 0, 73)
        cfg = config.load_scenario(p)
        bd = integrate_bright_dark(cfg.initial_state(), cfg.params,
                                   cfg.t_end, cfg.control)
        assert (bd.steps_accepted, bd.steps_rejected, bd.rhs_evals) == counts

    def test_preset_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "deg"
        code = main(["preset", "degenerate", "--out-dir", str(out),
                     "--t-end", "14"])
        assert code == EXIT_OK
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["t_peak"] == pytest.approx(9.037, abs=0.05)


class TestTinyTimeScales:
    @pytest.mark.parametrize("omega32, delta_L, t_end, dt", [
        (6e11, 0.0, 1e-11, 1e-14), (5.0, 1e12, 2e-11, 3e-14),
        (5.0, 1.0, 2e-310, 0.01), (1e12, 0.0, 1e-11, 1e-14),
    ], ids=["snap_at_large_splitting", "snap_at_large_lfc",
            "t_end_below_floor", "first_step_below_floor"])
    def test_run_ends_at_t_end(self, tmp_path, alarm, omega32, delta_L,
                               t_end, dt):
        """Runs whose last step, once rejected, used to be snapped back to
        its rejected length for ever (the first two), or whose one step or
        first step lay below a step floor absolute below t = 1 (exit 3
        naming the floor): each completes with its last sample at t_end."""
        p = tmp_path / "tiny.cfg"
        p.write_text(TINY.format(omega32=omega32, delta_L=delta_L,
                                 t_end=t_end, dt=dt), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == EXIT_OK
        json.loads((out / "metrics.json").read_text())
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(t_end, rel=1e-12)


class TestValidationFailures:
    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("params.omega32 = 5.0\n", encoding="utf-8")
        assert main(["run", str(p)]) == EXIT_VALIDATION

    def test_garbage_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(SCENARIO + "not a key value line\n", encoding="utf-8")
        assert main(["run", str(p)]) == EXIT_VALIDATION

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == EXIT_VALIDATION

    def test_rel_tol_override_out_of_range(self, scenario_file, tmp_path,
                                           capsys):
        assert main(["run", str(scenario_file), "--out-dir", str(tmp_path),
                     "--rel-tol", "1e-4"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: rel_tol must lie in "
                                           "[1e-13, 1e-9], got 0.0001\n")

    def test_dt_override_too_coarse(self, scenario_file, tmp_path):
        assert main(["run", str(scenario_file), "--out-dir", str(tmp_path),
                     "--dt", "0.02"]) == EXIT_VALIDATION

    def test_strong_local_field_bounds_dt_without_inversion(self, tmp_path,
                                                            capsys):
        """delta_L = 1e3 from rho22 = rho33 = 0.1, whose inversion is
        negative: the grid must still resolve 2 delta_L, so dt 0.01 fails
        at once, before any step, naming run.dt and the bound."""
        p = tmp_path / "lfc.cfg"
        p.write_text("params.omega32 = 5.0\nparams.delta_L = 1e3\n"
                     "init.rho22 = 0.1\ninit.rho33 = 0.1\n"
                     "run.t_end = 10.0\nrun.dt = 0.01\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: run.dt = 0.01 too coarse for the fastest phase scale; "
            "need dt <= 3.142e-05\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("run.abs_tol", "1e-12"),
                                            ("run.invariant_tol", "1e-9")])
    def test_fixed_tolerance_key_is_rejected(self, tmp_path, capsys, key,
                                             value):
        """The error floor and the drift bound are not settable: a file
        that sets either fails as an unknown key, and nothing is run."""
        p = tmp_path / "tol.cfg"
        p.write_text(f"{SCENARIO}{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == EXIT_VALIDATION
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_values(self, scenario_file, tmp_path):
        assert main(["sweep", str(scenario_file), "--param", "delta_L",
                     "--values", "0.1,zap", "--out-dir",
                     str(tmp_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("line, field", [("init.rho32 = nan", "rho32"),
                                             ("init.R21 = nanj", "R21")])
    def test_non_finite_initial_value_is_named(self, tmp_path, capsys, line,
                                               field):
        """A nan initial coherence fails validation (exit 2, naming the
        field) instead of reaching the stepper."""
        p = tmp_path / "nan.cfg"
        p.write_text(SCENARIO.replace("init.rho32 = 0.5\n", line + "\n"),
                     encoding="utf-8")
        assert main(["run", str(p), "--out-dir",
                     str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["preset", "sweep"])
    def test_grid_too_large_to_store(self, scenario_file, tmp_path, capsys,
                                     command):
        """dt = 1e-12 asks for more grid samples than a run may store: exit
        2 naming dt, before any array of the run or any member directory
        exists."""
        argv = {"preset": ["preset", "fig4"],
                "sweep": ["sweep", str(scenario_file), "--param", "delta_L",
                          "--values", "0,0.5"]}[command]
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out),
                            "--dt", "1e-12"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "dt = 1e-12" in err and "at most 10000000" in err
        assert not out.exists()

    def test_unknown_preset_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["preset", "fig9"])
        assert exc_info.value.code == 2


class TestIntegrationFailure:
    def test_exit_code_three(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics, "_INVARIANT_TOL", 1e-16)
        assert main(["run", str(scenario_file), "--out-dir",
                     str(tmp_path)]) == EXIT_INTEGRATION

    def test_non_finite_field_is_named(self, scenario_file, tmp_path,
                                       monkeypatch, capsys):
        """A vector field that turns non-finite fails with exit code 3 and
        says so, instead of shrinking the step until it underflows."""
        poison_rhs(monkeypatch, 1000)
        assert main(["run", str(scenario_file), "--out-dir",
                     str(tmp_path)]) == EXIT_INTEGRATION
        err = capsys.readouterr().err
        assert "integration failed" in err
        assert "non-finite" in err and "underflow" not in err


class TestSweep:
    def test_sweep_end_to_end(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "fam"
        code = main(["sweep", str(scenario_file), "--param", "delta_L",
                     "--values", "0.0,0.5", "--t-end", "14",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("value,")
        assert "summary.csv" in capsys.readouterr().out


class TestTimescales:
    def test_prints_estimate(self, tmp_path, capsys):
        p = tmp_path / "film.cfg"
        p.write_text(PHYSICAL, encoding="utf-8")
        assert main(["timescales", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tau_R_seconds = 6.702064327658223e-15" in out
        assert "ratio_to_tau0" in out

    def test_console_script_wired(self, tmp_path):
        """The ``filmsr`` script declared in this checkout's pyproject.toml
        runs ``timescales`` from the command line.

        The declared ``module:function`` is called in a fresh interpreter
        the way an installed console-script wrapper calls it, with the
        checkout's ``src`` first on the path, so the test needs no
        installation and never picks up a ``filmsr`` from elsewhere.
        """
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "filmsr" in scripts
        module, _, func = scripts["filmsr"].partition(":")
        p = tmp_path / "film.cfg"
        p.write_text(PHYSICAL, encoding="utf-8")
        path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.exit({func}())")
        proc = subprocess.run([sys.executable, "-c", wrapper, "timescales",
                               str(p)], capture_output=True, text=True,
                              timeout=60, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "tau_R_femtoseconds" in proc.stdout


class TestImports:
    @pytest.mark.parametrize("module", ["scipy", "concurrent.futures",
                                        "multiprocessing"])
    def test_cli_import_does_not_load(self, tmp_path, module):
        """The runtime needs numpy alone: scipy, a test dependency, is
        never imported by the command-line entry point, so the DOP853
        table and every other numeric routine live in the package.  The
        process pool is imported by ``run_sweep`` when a sweep starts,
        so no other command pays for it at start-up."""
        root = Path(__file__).resolve().parents[1]
        path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        code = ("import sys, filmsr.cli; "
                "print(sorted(m for m in sys.modules "
                f"if m == {module!r} or m.startswith({module + '.'!r})))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
