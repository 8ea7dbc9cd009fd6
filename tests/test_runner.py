"""File outputs and sweep orchestration: formats, determinism, ordering."""

import json

import numpy as np
import pytest

from filmsr import IntegratorControl, make_params, pulse_metrics
from filmsr.config import (InitialSpec, ScenarioConfig, SweepSpec,
                           scenario_from_mapping)
from filmsr.runner import (TRAJECTORY_COLUMNS, emit_outputs, run_scenario,
                           run_sweep)

# small coherent scenario: full pulse by t = 14, ~1400 output samples
FAST = ScenarioConfig(
    params=make_params(0.0, 0.5),
    init=InitialSpec(rho22=0.5, rho33=0.5, rho32=0.5),
    t_end=14.0,
)

NO_PULSE = ScenarioConfig(
    params=make_params(5.0, 0.0),
    init=InitialSpec(rho22=0.2, rho33=0.2),
    t_end=5.0,
)


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
                                "steps_rejected"}
        assert isinstance(payload["branching"]["blocked_31"], bool)
        assert payload["final_pops"]["rho11"] == pytest.approx(1.0, abs=1e-3)

    def test_plot_script_optional(self, preset_runs, tmp_path):
        traj = preset_runs["fig2"]
        paths = emit_outputs(traj, None, tmp_path / "a", plot_script=False)
        assert not (tmp_path / "a" / "plot.py").exists()
        assert len(paths) == 2
        paths = emit_outputs(traj, None, tmp_path / "b")
        assert (tmp_path / "b" / "plot.py").exists()
        assert len(paths) == 3


class TestRunScenario:
    def test_in_memory_only(self):
        result = run_scenario(FAST, write=False)
        assert result.paths == ()
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

    def test_repeated_sweep_writes_identical_bytes(self, tmp_path):
        spec = SweepSpec(FAST, "delta_L", (0.3, 0.5, 0.8))
        run_sweep(spec, tmp_path / "first")
        run_sweep(spec, tmp_path / "second")
        assert ((tmp_path / "first" / "summary.csv").read_bytes()
                == (tmp_path / "second" / "summary.csv").read_bytes())
        for i in range(3):
            name = f"run_{i:03d}"
            assert ((tmp_path / "first" / name / "trajectory.csv").read_bytes()
                    == (tmp_path / "second" / name
                        / "trajectory.csv").read_bytes())

    def test_failed_run_recorded_in_row(self, tmp_path):
        from dataclasses import replace
        doomed = replace(FAST, t_end=5.0,
                         control=IntegratorControl(invariant_tol=1e-16))
        rows = run_sweep(SweepSpec(doomed, "delta_L", (0.3, 0.5)), tmp_path)
        assert all(row.error is not None for row in rows)
        assert all(row.metrics is None for row in rows)
        header, body = read_csv(tmp_path / "summary.csv")
        assert len(body) == 2
        err = body[0][header.index("error")]
        assert "InvariantDrift" in err
        assert "," not in err
