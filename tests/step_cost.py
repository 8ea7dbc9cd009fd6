"""Per-layer cost of the stepper and of the trajectory.csv formatter.

Each figure is the minimum over 7 runs, in this process:

- ``field_us/<basis>``: one call of the vector field, bare (``_rhs``)
  and bright/dark (``_rhs_bd``), at fig5's state at t = 20, during
  its pulse;
- ``trial_us``: one DOP853 trial step from that state with the three
  extra stages of its continuous extension (``_dop853_step`` and
  ``_extra_stages``), at step 0.05;
- ``trial_ops``: the Python opcodes that the same trial step executes,
  in every frame it runs, counted from ``sys.settrace`` opcode events;
  unlike the timings it does not depend on the host;
- ``chunk_us@<dt>``: one call of ``_dense_chunk``, the evaluation of a
  flush, averaged over the chunks a fig5 run at dt 0.01 and 0.002
  flushes (each chunk's own minimum, then the mean);
- ``integrate_s/<preset>``: ``integrate`` on each shipped preset, and
  ``integrate_s/all``, the sum of those minima;
- ``csv_ns/float``: ``runner._csv_rows`` over fig5's trajectory.csv
  table at dt 0.002, in blocks of ``runner._CHUNK_ROWS`` rows, per
  float written;
- ``sweep_us/member``: ``runner.run_sweep`` over 64 members with
  ``runner._sweep_one`` patched to return a row at once, per member:
  what handing out the members and collecting their rows costs.

``filmsr`` is imported from ``PYTHONPATH``, as in
``tests/output_digest.py``, and pytest does not collect this script:

    PYTHONPATH=src python tests/step_cost.py

With ``--against SRC`` it runs itself in fresh interpreters, ROUNDS
times with the ``PYTHONPATH`` it was given and ROUNDS times with
``PYTHONPATH=SRC``, alternating, and prints per line the minimum of each
side and their ratio (this checkout over ``SRC``):

    PYTHONPATH=src python tests/step_cost.py --against ../parent/src

Timings on a small shared machine vary by up to 2x between runs made
minutes apart, which the alternation and the minima are there to damp.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import timeit
from dataclasses import astuple, replace

REPEAT = 7
ROUNDS = 3


def best(call, number: int) -> float:
    """The minimum over REPEAT runs of the time of one call, in s."""
    return min(timeit.repeat(call, number=number, repeat=REPEAT)) / number


def opcodes(call) -> int:
    """The Python opcodes one call of ``call`` executes, in every frame."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def costs() -> dict[str, float]:
    from filmsr import basis, dynamics, integrate, runner
    from filmsr.config import PRESET_NAMES, SweepSpec, load_preset

    out = {}
    cfg = load_preset("fig5")
    params = cfg.params
    physical = astuple(params)
    traj = integrate(cfg.initial_state(), params, cfg.t_end, cfg.control)
    at = int(round(20.0 / cfg.control.dt))
    fields = {
        "bare": (dynamics._rhs, dynamics._constants(*physical),
                 dynamics._scalars(traj.y[:, at])),
        "bright_dark": (basis._rhs_bd, basis._constants_bd(*physical),
                        dynamics._scalars(basis._bare_to_bd(traj.y[:, at],
                                                            params))),
    }
    for name, (rhs, args, y) in fields.items():
        out[f"field_us/{name}"] = 1e6 * best(lambda: rhs(y, *args), 2000)

    rhs, args, y = fields["bare"]
    ctrl, abs_y, k1 = cfg.control, dynamics._moduli(y), rhs(y, *args)

    def trial():
        K = dynamics._dop853_step(rhs, args, y, k1, abs_y, 0.05, ctrl)[1]
        dynamics._extra_stages(rhs, args, y, K, 0.05)

    out["trial_us"] = 1e6 * best(trial, 200)
    out["trial_ops"] = opcodes(trial)

    real = dynamics._dense_chunk
    for dt in (0.01, 0.002):
        chunks = []

        def record(steps, grid):
            chunks.append((steps, grid))
            return real(steps, grid)

        dynamics._dense_chunk = record
        try:
            integrate(cfg.initial_state(), params, cfg.t_end,
                      replace(cfg.control, dt=dt))
        finally:
            dynamics._dense_chunk = real
        out[f"chunk_us@{dt}"] = 1e6 * sum(
            best(lambda: real(*chunk), 5) for chunk in chunks) / len(chunks)

    total = 0.0
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        state = cfg.initial_state()
        seconds = best(lambda: integrate(state, cfg.params, cfg.t_end,
                                         cfg.control), 1)
        out[f"integrate_s/{name}"] = seconds
        total += seconds
    out["integrate_s/all"] = total

    cfg = load_preset("fig5")
    traj = integrate(cfg.initial_state(), cfg.params, cfg.t_end,
                     replace(cfg.control, dt=0.002))
    table = runner._trajectory_table(traj.t, traj.y, traj.params)
    rows = runner._CHUNK_ROWS

    def csv():
        for lo in range(0, len(table), rows):
            runner._csv_rows(table[lo:lo + rows])

    out["csv_ns/float"] = 1e9 * best(csv, 1) / table.size

    members = 64
    spec = SweepSpec(cfg, "delta_L", tuple(i / members
                                           for i in range(members)))
    real = runner._sweep_one
    runner._sweep_one = lambda cfg, value, run_dir: runner.SweepRow(
        value, None, None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out["sweep_us/member"] = 1e6 * best(
                lambda: runner.run_sweep(spec, tmp), 1) / members
    finally:
        runner._sweep_one = real
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC",
                        help="a src directory whose costs to compare")
    parser.add_argument("--json", action="store_true",
                        help="print the figures as one JSON object")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps(costs()))
        return 0
    if args.against is None:
        for name, value in costs().items():
            print(f"{name:28s} {value:12.6g}")
        return 0
    sides = [(os.environ.get("PYTHONPATH", ""), []), (args.against, [])]
    for _ in range(ROUNDS):
        for path, runs in sides:
            runs.append(json.loads(subprocess.run(
                [sys.executable, __file__, "--json"], stdout=subprocess.PIPE,
                text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
            ).stdout))
    mine, theirs = ({name: min(run[name] for run in runs) for name in runs[0]}
                    for _, runs in sides)
    print(f"{'':28s} {'this':>12s} {args.against:>12s} {'ratio':>7s}")
    for name, value in mine.items():
        print(f"{name:28s} {value:12.6g} {theirs[name]:12.6g} "
              f"{value / theirs[name]:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
