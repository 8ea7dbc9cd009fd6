"""Scenario configuration: plain-text configs, presets, and sweep specs.

Config files are UTF-8 ``key = value`` lines with dotted section prefixes
and ``#`` comments, for example::

    # coherent preparation
    params.omega32 = 5.0
    params.delta_L = 0.0
    init.rho22 = 0.5
    init.rho33 = 0.5
    init.rho32 = 0.5
    run.t_end = 40.0

Unknown keys are rejected rather than ignored, so a typo cannot silently
run the wrong scenario.  Complex values use Python literal syntax
without spaces (``0.5``, ``1e-8j``, ``0.3+0.1j``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from importlib import resources

from .dynamics import IntegratorControl, _phase_rate, _sample_count
from .params import (DensityState, ParameterError, PhysicalInputs,
                     SystemParams, initial_state)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "PRESET_NAMES",
    "SWEEPABLE",
    "parse_config",
    "scenario_from_mapping",
    "load_scenario",
    "load_preset",
    "physical_from_mapping",
    "load_physical",
    "apply_sweep_value",
]

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "degenerate")
SWEEPABLE = ("delta_L", "omega32", "rho32_0")

# the output grid must resolve the fastest phase rate of the parameters,
# dynamics._phase_rate: dt <= _GRID_SAFETY * 2 pi / rate
_GRID_SAFETY = 0.01


class ConfigError(ParameterError):
    """Malformed or inconsistent configuration input."""


@contextmanager
def _config_errors(prefix=""):
    """Re-raise a ValueError (ParameterError and ConfigError included) of
    the block as a ConfigError, ``prefix`` before its message."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run: parameters, initial state, controls.

    ``init`` is the state at t = 0, as :func:`params.initial_state`
    builds it.  Construction runs :meth:`validated`, so every instance,
    one made by ``dataclasses.replace`` included, is checked."""

    params: SystemParams
    init: DensityState
    t_end: float
    control: IntegratorControl = IntegratorControl()
    out_dir: str | None = None

    def __post_init__(self):
        self.validated()

    def initial_state(self) -> DensityState:
        return self.init

    def validated(self) -> "ScenarioConfig":
        """Check cross-field consistency (raises ConfigError): the state,
        t_end and the grid by the rule of :func:`dynamics._sample_count`,
        and dt against the parameters' fastest phase rate, whatever the
        state.  Construction runs it; the benchmark harness calls it by
        name."""
        with _config_errors():
            self.init.validate()
            _sample_count(self.t_end, self.control.dt)
        bound = _GRID_SAFETY * 2.0 * math.pi / _phase_rate(self.params)
        if self.control.dt > bound * (1.0 + 1e-12):
            raise ConfigError(
                f"run.dt = {self.control.dt:g} too coarse for the fastest "
                f"phase scale; need dt <= {bound:.4g}")
        return self


@dataclass(frozen=True)
class SweepSpec:
    """A family of runs varying one parameter of a base scenario;
    construction checks it and builds ``members``, one per value."""

    base: ScenarioConfig
    param: str
    values: tuple[float, ...]
    members: tuple[ScenarioConfig, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ConfigError(
                f"sweep parameter must be one of {SWEEPABLE}, "
                f"got {self.param!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError(f"sweep values must be finite: {self.values}")
        members = []
        for v in self.values:
            with _config_errors(f"sweep value {v!r} is invalid: "):
                members.append(apply_sweep_value(self.base, self.param, v))
        object.__setattr__(self, "members", tuple(members))


def apply_sweep_value(base: ScenarioConfig, param: str,
                      value: float) -> ScenarioConfig:
    """Base scenario with one swept parameter replaced; the new scenario
    is checked when it is made."""
    if param in ("delta_L", "omega32"):
        return replace(base, params=replace(base.params, **{param: value}))
    if param == "rho32_0":
        return replace(base, init=replace(base.init, rho32=complex(value)))
    raise ConfigError(f"unknown sweep parameter {param!r}")


# ---------------------------------------------------------------------
# parsing

def parse_config(text: str) -> dict[str, str]:
    """``key = value`` lines to a flat mapping; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _take(mapping, key, kind, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return None
    raw = mapping.pop(key)
    try:
        return _CONVERTERS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot read {raw!r} as {kind}") from exc


def _to_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


_CONVERTERS = {"float": float, "complex": complex, "bool": _to_bool,
               "str": str}


def scenario_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig`, checked, from parsed keys."""
    m = dict(mapping)
    take = partial(_take, m)

    def given(kind, **keys):
        """``{argument: value}`` of each ``argument=key`` the file sets, so
        every default stays with the function or field that owns it."""
        return {arg: take(key, kind) for arg, key in keys.items() if key in m}

    with _config_errors():
        params = SystemParams(
            take("params.omega32", "float", required=True),
            take("params.delta_L", "float", required=True),
            **given("float", mu21="params.mu21", mu31="params.mu31"))
    rho22 = take("init.rho22", "float", required=True)
    rho33 = take("init.rho33", "float", required=True)
    init = given("complex", rho32="init.rho32", R21_0="init.R21",
                 R31_0="init.R31")
    control = {**given("float", rel_tol="run.rel_tol", dt="run.dt"),
               **given("bool", stop_on_quiescence="run.stop_on_quiescence")}
    t_end = take("run.t_end", "float", required=True)
    out_dir = take("output.dir", "str")
    if m:
        raise ConfigError(f"unknown config keys: {sorted(m)}")
    with _config_errors():
        state = initial_state(rho22, rho33, **init)
        control = IntegratorControl(**control)
    return ScenarioConfig(params, state, t_end, control, out_dir)


def physical_from_mapping(mapping: dict[str, str]) -> PhysicalInputs:
    """Build :class:`PhysicalInputs` (CGS units) from parsed keys."""
    m = dict(mapping)
    take = partial(_take, m)
    values = [take(f"physical.{f.name}", "float", required=True)
              for f in fields(PhysicalInputs)]
    with _config_errors():
        phys = PhysicalInputs(*values)
    if m:
        raise ConfigError(f"unknown config keys: {sorted(m)}")
    return phys


def load_scenario(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as handle:
        return scenario_from_mapping(parse_config(handle.read()))


def load_physical(path) -> PhysicalInputs:
    with open(path, encoding="utf-8") as handle:
        return physical_from_mapping(parse_config(handle.read()))


def load_preset(name: str) -> ScenarioConfig:
    """One of the shipped scenarios: fig2, fig3, fig4, fig5, degenerate."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"choose from {PRESET_NAMES}")
    text = (resources.files("filmsr") / "presets" / f"{name}.cfg").read_text(
        encoding="utf-8")
    return scenario_from_mapping(parse_config(text))
