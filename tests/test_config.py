"""Config parsing, scenario assembly, presets and sweep specifications."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from filmsr import (ConfigError, IntegratorControl, ParameterError,
                    initial_state, make_params)
from filmsr.config import (PRESET_NAMES, SWEEPABLE, apply_sweep_value,
                           load_physical, load_preset, load_scenario,
                           parse_config, physical_from_mapping,
                           scenario_from_mapping, ScenarioConfig, SweepSpec)

MINIMAL = {
    "params.omega32": "5.0",
    "params.delta_L": "0.0",
    "init.rho22": "0.5",
    "init.rho33": "0.5",
    "run.t_end": "40.0",
}

PHYSICAL = {
    "physical.wavelength_c": "5e-5",
    "physical.thickness": "5e-6",
    "physical.dipole21": "6.313e-18",
    "physical.dipole31": "6.313e-18",
    "physical.concentration": "1e21",
    "physical.tau0": "1e-8",
}


# every key scenario_from_mapping reads: its text in a file, the value
# read back, and where the scenario holds it
SCHEMA = {
    "params.omega32": ("4.0", 4.0, "params.omega32"),
    "params.delta_L": ("0.1", 0.1, "params.delta_L"),
    "params.mu21": ("1.0", 1.0, "params.mu21"),
    "params.mu31": ("1.0", 1.0, "params.mu31"),
    "init.rho22": ("0.4", 0.4, "init.rho22"),
    "init.rho33": ("0.3", 0.3, "init.rho33"),
    "init.rho32": ("0.1+0.2j", 0.1 + 0.2j, "init.rho32"),
    "init.R21": ("2e-8", 2e-8 + 0j, "init.R21"),
    "init.R31": ("3e-8j", 3e-8j, "init.R31"),
    "run.rel_tol": ("1e-11", 1e-11, "control.rel_tol"),
    "run.dt": ("0.005", 0.005, "control.dt"),
    "run.stop_on_quiescence": ("no", False, "control.stop_on_quiescence"),
    "run.t_end": ("30.0", 30.0, "t_end"),
    "output.dir": ("out", "out", "out_dir"),
}


def defaults_of(function):
    return {name: p.default for name, p in
            inspect.signature(function).parameters.items()
            if p.default is not p.empty}


def mapping(**overrides):
    m = dict(MINIMAL)
    m.update({k.replace("__", "."): v for k, v in overrides.items()})
    return m


class TestParseConfig:
    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nparams.omega32 = 5.0  # inline\n"
        assert parse_config(text) == {"params.omega32": "5.0"}

    def test_values_kept_verbatim(self):
        assert parse_config("init.rho32 = 0.3+0.1j\n") == {
            "init.rho32": "0.3+0.1j"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("a.b = 1\na.b = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("a.b = 1\ngarbage\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a.b =   # nothing\n")


class TestScenarioFromMapping:
    def test_minimal_with_defaults(self):
        cfg = scenario_from_mapping(mapping())
        assert cfg.params.omega32 == 5.0
        assert cfg.init.rho32 == 0j
        assert cfg.init.R21 == 1e-8 + 0j
        assert cfg.control.dt == 0.01
        assert cfg.control.rel_tol == 1e-10
        assert cfg.out_dir is None

    @pytest.mark.parametrize("key", sorted(SCHEMA))
    def test_every_key_is_read_on_its_own(self, key):
        """Each key the schema has is accepted next to the required ones
        and lands where the scenario holds it."""
        text, value, where = SCHEMA[key]
        cfg = scenario_from_mapping({**MINIMAL, key: text})
        held = cfg
        for name in where.split("."):
            held = getattr(held, name)
        assert held == value and type(held) is type(value)

    def test_minimal_file_takes_the_owners_defaults(self):
        """Optional keys the file leaves out take the defaults of the
        function or dataclass that owns them."""
        cfg = scenario_from_mapping(mapping())
        params, init = defaults_of(make_params), defaults_of(initial_state)
        assert (cfg.params.mu21, cfg.params.mu31) == (params["mu21"],
                                                      params["mu31"])
        assert (cfg.init.R21, cfg.init.R31) == (init["R21_0"], init["R31_0"])
        assert cfg.init.rho32 == 0
        assert cfg.control == IntegratorControl()
        assert cfg.out_dir is None

    def test_complex_initial_coherence(self):
        cfg = scenario_from_mapping(mapping(init__rho32="0.3+0.1j"))
        assert cfg.init.rho32 == 0.3 + 0.1j

    def test_run_overrides(self):
        cfg = scenario_from_mapping(mapping(
            run__dt="0.005", run__rel_tol="1e-9",
            run__stop_on_quiescence="false", output__dir="out"))
        assert cfg.control.dt == 0.005
        assert cfg.control.rel_tol == 1e-9
        assert cfg.control.stop_on_quiescence is False
        assert cfg.out_dir == "out"

    def test_missing_required_key(self):
        m = mapping()
        del m["init.rho33"]
        with pytest.raises(ConfigError, match="init.rho33"):
            scenario_from_mapping(m)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="params.detuning"):
            scenario_from_mapping(mapping(params__detuning="1.0"))

    def test_unreadable_number_rejected(self):
        with pytest.raises(ConfigError, match="params.omega32"):
            scenario_from_mapping(mapping(params__omega32="fast"))

    def test_physics_errors_become_config_errors(self):
        exc_info = pytest.raises(ConfigError,
                                 scenario_from_mapping,
                                 mapping(params__delta_L="-0.1"))
        assert isinstance(exc_info.value, ParameterError)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            scenario_from_mapping(mapping(run__t_end="0"))

    def test_grid_must_resolve_splitting(self):
        with pytest.raises(ConfigError, match="too coarse"):
            scenario_from_mapping(mapping(run__dt="0.02"))

    def test_grid_must_resolve_chirp(self):
        """omega32 = 0 but a strong local field, 2 delta_L = 10, still
        forces a fine grid."""
        with pytest.raises(ConfigError, match="too coarse"):
            scenario_from_mapping(mapping(
                params__omega32="0", params__delta_L="5.0",
                init__rho32="0.5"))

    def test_slow_scenario_allows_coarser_grid(self):
        cfg = scenario_from_mapping(mapping(
            params__omega32="0.5", run__dt="0.05"))
        assert cfg.control.dt == 0.05

    def test_grid_bound_reads_the_parameters_alone(self):
        """omega32 = 5, delta_L = 10: the bound is 0.01 * 2 pi / 20 for
        every state, from Z0 = -1/2 (ground state) to 1/2 (pure bright),
        since the local-field rotation 4 |Z| delta_L can reach 2 delta_L
        in any run.  Each state takes dt at the bound and rejects 1.001
        times it with one message."""
        params = make_params(5.0, 10.0)
        bound = 0.01 * 2.0 * np.pi / 20.0
        messages = set()
        for p in (0.0, 0.125, 0.25, 0.375, 0.5):    # Z0 = 2p - 1/2
            state = initial_state(p, p, p)
            ScenarioConfig(params, state, 1.0, IntegratorControl(dt=bound))
            with pytest.raises(ConfigError) as caught:
                ScenarioConfig(params, state, 1.0,
                               IntegratorControl(dt=1.001 * bound))
            messages.add(str(caught.value))
        assert messages == {"run.dt = 0.00314473 too coarse for the fastest "
                            "phase scale; need dt <= 0.003142"}


class TestScenarioConfig:
    FIG4 = load_preset("fig4")

    @pytest.mark.parametrize("name, value, message", [
        ("t_end", 0.0, "t_end must be finite and > 0, got 0.0"),
        ("t_end", np.nan, "t_end must be finite and > 0, got nan"),
        ("dt", 0.02, "run.dt = 0.02 too coarse for the fastest phase "
                     "scale; need dt <= 0.01257"),
        ("dt", 1e-12, "dt = 1e-12 and t_end = 40 ask for 4e+13 grid "
                      "samples; at most 10000000 are allowed"),
        ("rho32", 0.6 + 0j, "positivity |rho32|^2 <= rho22*rho33 "
                            "violated: 0.36 > 0.25 + 1e-09"),
    ], ids=["t_end_0", "t_end_nan", "dt_coarse", "dt_too_many", "rho32"])
    def test_replace_is_checked(self, name, value, message):
        """A config changed by ``dataclasses.replace`` is checked at the
        replace: a bad t_end, dt or state raises ConfigError there."""
        cfg = self.FIG4
        if name == "dt":
            changes = {"control": replace(cfg.control, dt=value)}
        elif name == "rho32":
            changes = {"init": replace(cfg.init, rho32=value)}
        else:
            changes = {name: value}
        with pytest.raises(ConfigError) as caught:
            replace(cfg, **changes)
        assert str(caught.value) == message


class TestPresets:
    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            cfg = load_preset(name)
            assert isinstance(cfg, ScenarioConfig)
            assert cfg.t_end > 0

    def test_coherent_and_incoherent_variants(self):
        assert load_preset("fig2").init.rho32 == 0.5
        assert load_preset("fig3").init.rho32 == 0j
        assert load_preset("degenerate").params.omega32 == 0.0
        assert load_preset("fig4").params.delta_L == pytest.approx(1.0 / 7.0)
        assert load_preset("fig5").params.delta_L == 1.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="fig9"):
            load_preset("fig9")


    def test_validated_checks_the_initial_state_once(self, monkeypatch):
        """Building the initial state validates it; the grid bound reads
        no state, so nothing checks it a second time."""
        from filmsr import params
        cfg = load_preset("fig5")
        real, calls = params._check_states, [0]

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(params, "_check_states", counted)
        assert cfg.validated() is cfg
        assert calls[0] == 1


class TestSweepSpec:
    BASE = scenario_from_mapping(mapping())

    def test_valid_sweep(self):
        spec = SweepSpec(self.BASE, "delta_L", (0.0, 0.5, 1.0))
        assert spec.values == (0.0, 0.5, 1.0)
        assert [m.params.delta_L for m in spec.members] == [0.0, 0.5, 1.0]

    def test_unsweepable_parameter(self):
        with pytest.raises(ConfigError, match="mu21"):
            SweepSpec(self.BASE, "mu21", (1.0,))

    def test_empty_values(self):
        with pytest.raises(ConfigError):
            SweepSpec(self.BASE, "delta_L", ())

    def test_nonfinite_value(self):
        with pytest.raises(ConfigError):
            SweepSpec(self.BASE, "delta_L", (0.0, np.nan))

    def test_value_breaking_base_rejected_up_front(self):
        with pytest.raises(ConfigError):
            SweepSpec(self.BASE, "delta_L", (0.0, -1.0))

    @pytest.mark.parametrize("param, values, message", [
        ("rho32_0", (0.0, 0.6), "sweep value 0.6 is invalid: positivity"),
        ("omega32", (5.0, 50.0), "sweep value 50.0 is invalid: run.dt")],
        ids=["rho32_0", "omega32"])
    def test_rejected_value_names_itself(self, param, values, message):
        """A member that fails the state or grid check of the scenario
        names its value, as a member failing in make_params does."""
        with pytest.raises(ConfigError, match=message):
            SweepSpec(self.BASE, param, values)

    def test_apply_each_parameter(self):
        assert apply_sweep_value(self.BASE, "delta_L",
                                 0.3).params.delta_L == 0.3
        assert apply_sweep_value(self.BASE, "omega32",
                                 6.0).params.omega32 == 6.0
        assert apply_sweep_value(self.BASE, "rho32_0",
                                 0.4).init.rho32 == 0.4 + 0j

    def test_sweepable_tuple_is_closed(self):
        assert set(SWEEPABLE) == {"delta_L", "omega32", "rho32_0"}


class TestPhysicalInputs:
    def test_builds_from_mapping(self):
        phys = physical_from_mapping(dict(PHYSICAL))
        assert phys.wavelength_c == 5e-5
        assert phys.concentration == 1e21

    def test_missing_key(self):
        m = dict(PHYSICAL)
        del m["physical.tau0"]
        with pytest.raises(ConfigError, match="physical.tau0"):
            physical_from_mapping(m)

    def test_unknown_key(self):
        m = dict(PHYSICAL)
        m["physical.temperature"] = "300"
        with pytest.raises(ConfigError, match="temperature"):
            physical_from_mapping(m)


class TestFileLoading:
    def test_scenario_round_trip(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in MINIMAL.items()),
                     encoding="utf-8")
        cfg = load_scenario(p)
        assert cfg.params.omega32 == 5.0
        assert cfg.t_end == 40.0

    def test_physical_round_trip(self, tmp_path):
        p = tmp_path / "film.cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in PHYSICAL.items()),
                     encoding="utf-8")
        assert load_physical(p).tau0 == 1e-8
