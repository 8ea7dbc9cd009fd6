"""The three workloads: seeded inputs, one timed pass each, and checks.

Every workload drives filmsr through its public entry points only, from
one process, one call after another (a closed loop with one client).
A pass returns its wall and CPU time, the number of scenario runs it
attempted, the number that failed, and a fingerprint of everything that
must repeat exactly.

Why these three:

presets    the five shipped figure scenarios through ``cli.main``: what a
           user reproducing the paper runs.  Nearly all time is
           ``dynamics`` stepping at the default grid; never touches the
           sweep machinery, so sweep batching must leave it unchanged.
lfc_sweep  ``runner.run_sweep`` over delta_L on the fig4 base, around the
           critical local-field strength: the paper's channel-blocking
           map and the only user of the thread pool and summary writer.
fine_grid  fig5 (chirped, modulated) on a 5x finer output grid, through
           both integration paths, the observables and the writer: the
           output-heavy use of the same layers, where every step is
           clamped to a grid point today.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from filmsr import analytics, basis, cli, config, dynamics, observables, runner

WORKLOADS = ("presets", "lfc_sweep", "fine_grid")
PRESETS = ("fig2", "fig3", "fig4", "fig5", "degenerate")

# critical local-field strength omega32/(4 W^2 t_D) of the fig4 base;
# the fig4 preset sits exactly there (params.delta_L = 1/7)
DELTA_L_CRITICAL = 1.0 / 7.0
# one draw per equal-width stratum of [0, 1]: members cover the whole
# range on every seed, so the cost of a sweep barely depends on the seed
SWEEP_DRAWS = 6
FINE_DT = 0.002
SEED_COHERENCE = 1e-8

# acceptance criterion 1, and the stored preset references
PRESET_TOL = 1e-6
# acceptance criterion 8: bare and bright/dark paths, sample by sample
PATH_TOL = 1e-8
TRACE_TOL = 1e-9
POPULATION_TOL = 1e-9

# outputs documented as byte-deterministic; only these are fingerprinted
DETERMINISTIC_FILES = ("trajectory.csv", "metrics.json", "summary.csv",
                       "plot.py")

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload as plain data; the same seed, the same inputs."""
    rng = random.Random(seed)
    if workload == "presets":
        return {"presets": PRESETS}
    if workload == "lfc_sweep":
        draws = tuple((i + rng.random()) / SWEEP_DRAWS
                      for i in range(SWEEP_DRAWS))
        return {"base": "fig4", "param": "delta_L",
                "values": (0.0, DELTA_L_CRITICAL) + draws}
    if workload == "fine_grid":
        return {"base": "fig5", "dt": FINE_DT,
                "phase": rng.uniform(0.0, 2.0 * math.pi)}
    raise ValueError(f"unknown workload {workload!r}")


class Stopwatch:
    """Wall and CPU time summed over the segments that call filmsr.

    Between segments a pass calls ``gap()``, where the benchmark times
    its reference kernel; that time is not the program's.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0

    @contextlib.contextmanager
    def segment(self):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall0
            self.cpu += time.process_time() - cpu0


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    fingerprint: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _failure(problems: list, what: str) -> None:
    problems.append(what)
    print(f"check failed: {what}", file=sys.stderr)


def _checked(check, problems: list, *args):
    """Run a check; None when it cannot read the output it checks."""
    try:
        return check(*args)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        _failure(problems, f"{check.__name__}: unreadable output: {exc!r}")
        return None


def fingerprint(out_dir: Path) -> dict:
    """Hash and size of every deterministic output, plus step counts."""
    digest = hashlib.sha256()
    size = accepted = rejected = 0
    for path in sorted(out_dir.rglob("*")):
        if path.name not in DETERMINISTIC_FILES:
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
        size += len(data)
        if path.name == "metrics.json":
            # a malformed file still changes the hash; the checks fail it
            with contextlib.suppress(ValueError, AttributeError):
                payload = json.loads(data)
                accepted += payload.get("steps_accepted", 0)
                rejected += payload.get("steps_rejected", 0)
    return {"outputs_sha256": digest.hexdigest(), "output_bytes": size,
            "steps_accepted": accepted, "steps_rejected": rejected}


# ---------------------------------------------------------------------
# presets

def _check_preset(name: str, run_dir: Path, problems: list) -> bool:
    ok = True
    metrics = json.loads((run_dir / "metrics.json").read_text())
    ref = REFERENCE["presets"][name]
    got = {"t_peak": metrics["t_peak"], "fwhm": metrics["fwhm"],
           **metrics["final_pops"]}
    for key, want in ref.items():
        if not abs(got[key] - want) <= PRESET_TOL:
            _failure(problems, f"{name}: {key} = {got[key]!r}, "
                               f"reference {want!r}")
            ok = False
    if name == "degenerate":
        ok = _check_degenerate(run_dir / "trajectory.csv", problems) and ok
    return ok


def _check_degenerate(csv_path: Path, problems: list) -> bool:
    """Written trajectory against the closed-form sech/tanh pulse."""
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    col = {name: data[:, i] for i, name in enumerate(header)}
    # pure bright preparation with unit moments: Z0 = 1/2 and
    # |R+1(0)| = (R21 + R31)/sqrt(2) = sqrt(2) * 1e-8
    sol = analytics.degenerate_solution(0.5, math.sqrt(2.0) * SEED_COHERENCE,
                                        1.0)
    ref = sol.evaluate(col["t"])
    rho_pp = 0.5 * (col["rho22"] + col["rho33"]) + col["re_rho32"]
    z_err = np.max(np.abs(0.5 * (rho_pp - col["rho11"]) - ref["Z"]))
    r_err = np.max(np.abs(col["abs_emitted"] / math.sqrt(2.0)
                          - ref["R_plus_abs"]))
    if z_err < PRESET_TOL and r_err < PRESET_TOL:
        return True
    _failure(problems, f"degenerate: closed form off by Z {z_err:.3e}, "
                       f"|R+| {r_err:.3e}")
    return False


def presets_pass(program_inputs: dict, out_dir: Path, gap) -> PassResult:
    names = program_inputs["presets"]
    codes = {}
    watch = Stopwatch()
    for k, name in enumerate(names):
        if k:
            gap()
        with watch.segment(), contextlib.redirect_stdout(io.StringIO()):
            try:
                codes[name] = cli.main(["preset", name, "--out-dir",
                                        str(out_dir / name)])
            except SystemExit as exc:      # argparse rejected the command
                codes[name] = exc.code
            except Exception:
                traceback.print_exc()
                codes[name] = None

    problems: list = []
    failed = 0
    for name in names:
        if codes[name] != 0:
            _failure(problems, f"{name}: cli.main returned {codes[name]!r}")
            failed += 1
        elif not _checked(_check_preset, problems, name, out_dir / name,
                          problems):
            failed += 1
    return PassResult(watch.wall, watch.cpu, len(names), failed,
                      fingerprint(out_dir), problems)


# ---------------------------------------------------------------------
# lfc_sweep

def _sweep_program_inputs(inputs: dict) -> dict:
    base = config.load_preset(inputs["base"])
    values = tuple(inputs["values"])
    return {"spec": config.SweepSpec(base=base, param=inputs["param"],
                                     values=values),
            "members": [config.apply_sweep_value(base, inputs["param"], v)
                        for v in values]}


def _check_summary(values, summary: Path, problems: list) -> int:
    """Number of members whose summary row is missing or unphysical."""
    with open(summary, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = max(0, len(values) - len(rows))
    if len(rows) != len(values):
        _failure(problems, f"summary has {len(rows)} rows for "
                           f"{len(values)} values")
    for value, row in zip(values, rows):
        what = []
        if float(row["value"]) != value:
            what.append(f"value {row['value']}")
        if row["error"]:
            what.append(f"error {row['error']!r}")
        else:
            pops = [float(row[k]) for k in ("rho11_end", "rho22_end",
                                            "rho33_end", "rho_pp_end",
                                            "rho_mm_end")]
            trace = sum(pops[:3])
            if not abs(trace - 1.0) <= TRACE_TOL:
                what.append(f"trace {trace!r}")
            if not all(-POPULATION_TOL <= p <= 1.0 + POPULATION_TOL
                       for p in pops):
                what.append(f"populations {pops}")
        if what:
            _failure(problems, f"sweep delta_L={value!r}: {', '.join(what)}")
            failed += 1
    return failed


def lfc_sweep_pass(program_inputs: dict, out_dir: Path, gap) -> PassResult:
    # one run_sweep call, so ``gap`` is never called: splitting the
    # family would shrink the batch a batched sweep could advance at once
    spec = program_inputs["spec"]
    values = spec.values
    watch = Stopwatch()
    problems: list = []
    raised = False
    with watch.segment():
        try:
            runner.run_sweep(spec, out_dir)
        except Exception:
            traceback.print_exc()
            raised = True
    if raised:
        _failure(problems, "run_sweep raised")
        failed = len(values)
    else:
        failed = _checked(_check_summary, problems, values,
                          out_dir / "summary.csv", problems)
        if failed is None:
            failed = len(values)
    return PassResult(watch.wall, watch.cpu, len(values), failed,
                      fingerprint(out_dir), problems)


# ---------------------------------------------------------------------
# fine_grid

def _fine_grid_program_inputs(inputs: dict) -> dict:
    cfg = config.load_preset(inputs["base"])
    seed = SEED_COHERENCE * cmath.exp(1j * inputs["phase"])
    cfg = replace(cfg, init=replace(cfg.init, R21=seed, R31=seed),
                  control=replace(cfg.control, dt=inputs["dt"])).validated()
    return {"cfg": cfg}


def fine_grid_pass(program_inputs: dict, out_dir: Path, gap) -> PassResult:
    cfg = program_inputs["cfg"]
    state0 = cfg.initial_state()
    problems: list = []
    bare = bright_dark = None
    watch = Stopwatch()
    try:
        with watch.segment():
            bare = dynamics.integrate(state0, cfg.params, cfg.t_end,
                                      cfg.control)
        gap()
        with watch.segment():
            bright_dark = basis.integrate_bright_dark(state0, cfg.params,
                                                      cfg.t_end, cfg.control)
        gap()
        with watch.segment():
            metrics = observables.pulse_metrics(bare)
            observables.instantaneous_frequency(bare)
            runner.emit_outputs(bare, metrics, out_dir)
    except Exception:
        traceback.print_exc()
        _failure(problems, "fine_grid raised")

    if bright_dark is not None:
        if not np.array_equal(bare.t, bright_dark.t):
            _failure(problems, "bare and bright/dark sample times differ")
        else:
            diff = float(np.max(np.abs(bare.y - bright_dark.y)))
            if not diff <= PATH_TOL:
                _failure(problems, f"bare vs bright/dark differ by {diff:.3e}")
    result = PassResult(watch.wall, watch.cpu, 1, 1 if problems else 0,
                        fingerprint(out_dir), problems)
    if bright_dark is not None:
        result.fingerprint["bright_dark_steps_accepted"] = \
            bright_dark.steps_accepted
    return result


def prepare(workload: str, inputs: dict) -> dict:
    """Turn generated data into the objects a pass hands to filmsr.

    Done once per run, before any pass, so neither timing nor tracing
    sees the benchmark building its inputs.
    """
    if workload == "lfc_sweep":
        return _sweep_program_inputs(inputs)
    if workload == "fine_grid":
        return _fine_grid_program_inputs(inputs)
    return dict(inputs)


PASSES = {"presets": presets_pass, "lfc_sweep": lfc_sweep_pass,
          "fine_grid": fine_grid_pass}
