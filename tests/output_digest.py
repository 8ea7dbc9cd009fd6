"""SHA-256 of every output file of a fixed set of runs, for byte checks.

A change that promises the same output bytes runs this before and after
and compares the two listings.  The runs, each in a temporary directory:

- the five shipped presets through ``cli.main`` (``presets/<name>/``);
- fig5 at dt 0.002 through ``integrate``, ``pulse_metrics`` and
  ``emit_outputs`` (``fine_grid/``);
- a delta_L sweep on fig4 over 0, 0.1, 1/7 and 0.3 (``sweep/``).

It prints one ``sha256  relative/path`` line per file, sorted by path:

    PYTHONPATH=src python tests/output_digest.py > digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
from dataclasses import replace


def write_outputs(root: pathlib.Path) -> None:
    from filmsr import cli, integrate, pulse_metrics
    from filmsr.config import PRESET_NAMES, SweepSpec, load_preset
    from filmsr.runner import emit_outputs, run_sweep

    for name in PRESET_NAMES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["preset", name, "--out-dir",
                             str(root / "presets" / name)])
        if code != cli.EXIT_OK:
            raise SystemExit(f"preset {name} exited with {code}")

    cfg = load_preset("fig5")
    cfg = replace(cfg, control=replace(cfg.control, dt=0.002)).validated()
    traj = integrate(cfg.initial_state(), cfg.params, cfg.t_end, cfg.control)
    emit_outputs(traj, pulse_metrics(traj), root / "fine_grid")

    run_sweep(SweepSpec(load_preset("fig4"), "delta_L",
                        (0.0, 0.1, 1 / 7, 0.3)), root / "sweep")


def digest_lines(root: pathlib.Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(root).as_posix()}"
            for path in sorted(p for p in root.rglob("*") if p.is_file())]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        write_outputs(root)
        print("\n".join(digest_lines(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
