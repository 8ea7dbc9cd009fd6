"""SHA-256 of every output file of a fixed set of runs, for byte checks.

A change that promises the same output bytes runs this before and after
and compares the two listings.  The runs, each in a temporary directory:

- the five shipped presets through ``cli.main`` (``presets/<name>/``);
- fig4 through ``cli.main`` with ``--t-end 40.005``, whose last grid
  interval is partial, 0.005 at dt 0.01 (``off_grid/``);
- a config without inversion through ``cli.main``: rho22 = rho33 = 0.1,
  omega32 = 5, delta_L = 3, t_end 20, whose fastest phase rate is
  2 delta_L and whose run ends with NoPulse (``no_inversion/``);
- fig5 at dt 0.002 through ``integrate``, ``pulse_metrics`` and
  ``emit_outputs`` (``fine_grid/``);
- a delta_L sweep on fig4 over 0, 0.1, 1/7 and 0.3 (``sweep/``).

It prints one ``sha256  relative/path`` line per file, sorted by path.
The bright/dark path writes no file, so one more line per preset and
grid, ``sha256  bright_dark/<name>@<dt>``, hashes what
``integrate_bright_dark`` returns at the preset's own dt and at 0.002:
the ``t`` and ``y`` bytes, the three step counters and the stop time.

``filmsr`` is imported from ``PYTHONPATH``, so the same script can hash
the outputs of another checkout's ``src``:

    PYTHONPATH=src python tests/output_digest.py > digest.txt

With ``--against SRC`` it compares this listing with that of the
``filmsr`` in ``SRC``, which it takes by running itself again in a second
interpreter with ``PYTHONPATH=SRC``.  It prints both listings, then every
line found in only one of them, and exits 1 on any difference, else 0:

    PYTHONPATH=src python tests/output_digest.py --against ../parent/src

It also prints the hand-written lines of both packages: the lines of
``filmsr/*.py`` without the generated ``_dop853.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import replace

NO_INVERSION = """\
params.omega32 = 5.0
params.delta_L = 3.0
init.rho22 = 0.1
init.rho33 = 0.1
run.t_end = 20.0
"""


def write_outputs(root: pathlib.Path) -> None:
    from filmsr import cli, integrate, pulse_metrics
    from filmsr.config import PRESET_NAMES, SweepSpec, load_preset
    from filmsr.runner import emit_outputs, run_sweep

    runs = [(["preset", name], f"presets/{name}") for name in PRESET_NAMES]
    runs.append((["preset", "fig4", "--t-end", "40.005"], "off_grid"))
    config = root / "no_inversion.cfg"
    config.write_text(NO_INVERSION, encoding="utf-8")
    runs.append((["run", str(config)], "no_inversion"))
    for args, out in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*args, "--out-dir", str(root / out)])
        if code != cli.EXIT_OK:
            raise SystemExit(f"{' '.join(args)} exited with {code}")
    config.unlink()

    cfg = load_preset("fig5")
    cfg = replace(cfg, control=replace(cfg.control, dt=0.002))
    traj = integrate(cfg.initial_state(), cfg.params, cfg.t_end, cfg.control)
    emit_outputs(traj, pulse_metrics(traj), root / "fine_grid")

    run_sweep(SweepSpec(load_preset("fig4"), "delta_L",
                        (0.0, 0.1, 1 / 7, 0.3)), root / "sweep")


def bright_dark_lines() -> list[str]:
    from filmsr.basis import integrate_bright_dark
    from filmsr.config import PRESET_NAMES, load_preset

    lines = []
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        for dt in (cfg.control.dt, 0.002):
            control = replace(cfg.control, dt=dt)
            traj = integrate_bright_dark(cfg.initial_state(), cfg.params,
                                         cfg.t_end, control)
            h = hashlib.sha256(traj.t.tobytes())
            h.update(traj.y.tobytes())
            h.update(repr((traj.steps_accepted, traj.steps_rejected,
                           traj.rhs_evals, traj.end_of_run_time)).encode())
            lines.append(f"{h.hexdigest()}  bright_dark/{name}@{dt!r}")
    return lines


def digest_lines(root: pathlib.Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(root).as_posix()}"
            for path in sorted(p for p in root.rglob("*") if p.is_file())]


def digest() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        write_outputs(root)
        return digest_lines(root) + bright_dark_lines()


def hand_written_lines(package: pathlib.Path) -> int:
    """Lines of the package's modules, the generated ``_dop853.py`` left
    out."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in package.glob("*.py") if path.name != "_dop853.py")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC",
                        help="a src directory whose digest to compare")
    args = parser.parse_args(argv)
    mine = digest()
    if args.against is None:
        print("\n".join(mine))
        return 0
    theirs = subprocess.run(
        [sys.executable, __file__], stdout=subprocess.PIPE, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=args.against),
    ).stdout.splitlines()
    print("# this checkout", *mine, f"# {args.against}", *theirs, sep="\n")
    import filmsr
    here = hand_written_lines(pathlib.Path(filmsr.__file__).parent)
    there = hand_written_lines(pathlib.Path(args.against) / "filmsr")
    print(f"# hand-written lines: {here} in this checkout, {there} in "
          f"{args.against}")
    differ = sorted(set(mine) ^ set(theirs),
                    key=lambda line: (line.split("  ", 1)[-1],
                                      line not in mine))
    print(f"# {len(differ)} differing lines",
          *(f"{'<' if line in mine else '>'} {line}" for line in differ),
          sep="\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
