"""Seeded fuzz of the CLI: every valid config completes or fails as
documented, and every config text gets a documented exit code.

The tests run ``cli.main`` in process on config files written from a
fixed seed, so a failure names a reproducible input.  A failure class
they find is mended or recorded in ROADMAP's "Known failures", never
filtered out of the inputs.
"""

import json
import math
import random

import numpy as np

from filmsr.cli import EXIT_INTEGRATION, EXIT_OK, EXIT_VALIDATION, main


def _mixed_state(rng, empty_level3):
    """(rho22, rho33, rho32, R21, R31) of a random mixture of two pure
    states, or of one, with level 3 empty where asked: convex sums of
    pure states are valid density matrices."""
    def pure():
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        if empty_level3:
            v[2] = 0.0
        return v / np.linalg.norm(v)

    p = 1.0 if rng.random() < 0.3 else rng.uniform(0.0, 1.0)
    rho = sum(w * np.outer(v, v.conj()) for w, v in ((p, pure()),
                                                    (1.0 - p, pure())))
    return (float(rho[1, 1].real), float(rho[2, 2].real), complex(rho[2, 1]),
            complex(rho[1, 0]), complex(rho[2, 0]))


def _valid_config(rng, extreme=False) -> str:
    """A random scenario that passes validation by construction.

    - dipoles on the normalization circle mu21^2 + mu31^2 = 2;
    - omega32 and delta_L at their edges (omega32 in {0, +-5e-324},
      delta_L = 0) a quarter of the time each;
    - mixed and pure states, with rho33 = 0 a quarter of the time;
    - the optical coherences scaled to a seed from 1e-300 to 1e-1, which
      dephases level 1 from the doublet and so keeps the state valid; with
      rho33 = 0, an R31 of at most 1e-6, inside the positivity tolerance;
    - rel_tol log-uniform over [1e-13, 1e-9], dt from half the grid
      bound 0.01 * 2 pi / max(|omega32|, 2 delta_L, 1) to the bound, and
      t_end log-uniform over [0.1, 30].

    With ``extreme``, |omega32| and delta_L are log-uniform over
    [1e-2, 1e13], dt is at the bound, and t_end is log-uniform from
    1e-300 dt to 2000 dt.
    """
    phi = rng.uniform(0.0, math.pi / 2)
    mu21, mu31 = math.sqrt(2.0) * math.cos(phi), math.sqrt(2.0) * math.sin(phi)
    if extreme:
        omega32 = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(
            -2.0, 13.0)
        delta_L = 10.0 ** rng.uniform(-2.0, 13.0)
    else:
        omega32 = (float(rng.choice([0.0, 5e-324, -5e-324]))
                   if rng.random() < 0.25 else rng.uniform(-10.0, 10.0))
        delta_L = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 3.0)
    empty_level3 = rng.random() < 0.25
    rho22, rho33, rho32, R21, R31 = _mixed_state(rng, empty_level3)
    seed = 10.0 ** rng.uniform(-300.0, -1.0)
    scale = min(1.0, seed / max(abs(R21), abs(R31)))
    R21, R31 = R21 * scale, R31 * scale
    if empty_level3:
        R31 = 10.0 ** rng.uniform(-300.0, -6.0) * np.exp(
            2j * math.pi * rng.random())
    fastest = max(abs(omega32), 2.0 * delta_L, 1.0)
    dt = 0.01 * 2.0 * math.pi / fastest
    if extreme:
        t_end = dt * 10.0 ** rng.uniform(-300.0, math.log10(2000.0))
    else:
        dt *= rng.uniform(0.5, 1.0)
        t_end = 10.0 ** rng.uniform(-1.0, math.log10(30.0))
    lines = {
        "params.omega32": omega32, "params.delta_L": delta_L,
        "params.mu21": mu21, "params.mu31": mu31,
        "init.rho22": rho22, "init.rho33": rho33, "init.rho32": rho32,
        "init.R21": R21, "init.R31": complex(R31),
        "run.t_end": t_end,
        "run.dt": dt, "run.rel_tol": 10.0 ** rng.uniform(-13.0, -9.0),
        "run.stop_on_quiescence": rng.random() < 0.5,
    }
    return "".join(f"{key} = {value!r}\n" for key, value in lines.items())


def _run(tmp_path, i, text):
    """Exit code of ``filmsr run`` on ``text``, written as config ``i``,
    and the run's output directory."""
    cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"out{i}"
    cfg.write_text(text, encoding="utf-8")
    return main(["run", str(cfg), "--out-dir", str(out)]), out


class TestValidConfigs:
    def test_every_valid_config_completes_or_fails_as_documented(
            self, tmp_path, capsys):
        """150 valid configs: each exits 0, or 3 with a message that starts
        ``integration failed:``; no exception escapes, and every
        metrics.json written parses."""
        rng = np.random.default_rng(31)
        for i in range(150):
            text = _valid_config(rng)
            code, out = _run(tmp_path, i, text)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_INTEGRATION), (text, err)
            if code == EXIT_INTEGRATION:
                assert err.startswith("integration failed: "), (text, err)
            else:
                json.loads((out / "metrics.json").read_text())

    def test_extreme_scales_complete(self, tmp_path, capsys, alarm):
        """50 valid configs at |omega32| and delta_L up to 1e13 and runs
        from 1e-300 dt to 2000 dt: each exits 0, or 2 with an error that
        names its cause.  An exit 3 (a step below the floor at t = 0, a
        spent step budget) or a run that does not end fails."""
        rng = np.random.default_rng(32)
        for i in range(50):
            text = _valid_config(rng, extreme=True)
            code, out = _run(tmp_path, i, text)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_VALIDATION), (text, err)
            if code == EXIT_VALIDATION:
                assert err.startswith("error: "), (text, err)
            else:
                json.loads((out / "metrics.json").read_text())


# values that probe the parser and the checks behind it
_ODD_VALUES = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "5e-324",
               "-5e-324", "1e-320", "2e-310", "1e-300", "0", "-0.0", "1",
               "-1", "2", "0.5", "1e308", "1+2j", "(0.1+0.2j)", "1e-8j",
               "nanj", "1e400j", "j", "1e", "abc", "true", "no", "0x10",
               "1_0", "(1)", "1e-400", "30", "1e7", "1e-13", "1e-9", "=",
               "0.1 0.2", "3+", "inf+infj"]
_KEYS = ["params.omega32", "params.delta_L", "params.mu21", "params.mu31",
         "init.rho22", "init.rho33", "init.rho32", "init.R21", "init.R31",
         "run.t_end", "run.dt", "run.rel_tol", "run.stop_on_quiescence"]
_BASE = {"params.omega32": "5.0", "params.delta_L": "1.0",
         "init.rho22": "0.5", "init.rho33": "0.5", "init.rho32": "0.5",
         "run.t_end": "2.0"}


def _random_text(rng) -> str:
    """A config text one to three edits away from a small valid one: odd
    values, most often, then unknown, duplicate and dropped keys, empty
    values and lines without ``=``."""
    lines = [[key, value] for key, value in _BASE.items()]
    for _ in range(rng.choice([1, 1, 2, 3])):
        kind = rng.choice("vvvvkudxe-")
        if kind == "v":     # an odd value for a key the text sets
            rng.choice(lines)[1] = rng.choice(_ODD_VALUES)
        elif kind == "k":   # a key the base leaves out, with an odd value
            lines.append([rng.choice(_KEYS), rng.choice(_ODD_VALUES)])
        elif kind == "u":   # an unknown key
            lines.append([rng.choice(["params.omega", "run.abs_tol", "x",
                                      "init.rho11", "params.omega32.x"]),
                          "1.0"])
        elif kind == "d":   # a duplicate key
            lines.append(list(rng.choice(lines)))
        elif kind == "x" and len(lines) > 1:   # a dropped key
            lines.remove(rng.choice(lines))
        elif kind == "e":   # an empty value
            rng.choice(lines)[1] = ""
        else:               # a line without '=': a key, blank or comment
            lines.append([rng.choice(_KEYS + ["", "# note"]), None])
    return "".join(key + "\n" if value is None else f"{key} = {value}\n"
                   for key, value in lines)


class TestParser:
    def test_every_config_text_gets_a_documented_exit_code(self, tmp_path,
                                                           capsys):
        """400 random config texts exit 0, 2 or 3; no exception escapes."""
        rng = random.Random(31)
        for i in range(400):
            text = _random_text(rng)
            code, _ = _run(tmp_path, i, text)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INTEGRATION), (
                text, err)

