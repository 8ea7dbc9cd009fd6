"""Command-line front end.

Subcommands:

    filmsr run <config>                 integrate one scenario
    filmsr sweep <config> --param ... --values v1,v2,...
    filmsr preset <name>                run a shipped scenario
    filmsr timescales <physical-config> estimate tau_R from lab units

Exit codes: 0 success, 2 validation error or I/O failure (reported as
``io error:``), 3 integration failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .analytics import AnalyticsError
from .config import (PRESET_NAMES, SWEEPABLE, ScenarioConfig, SweepSpec,
                     _config_errors, load_physical, load_preset, load_scenario)
from .dynamics import IntegrationError
from .params import ParameterError, estimate_timescales
from .runner import run_scenario, run_sweep

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTEGRATION = 3


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out-dir", default=None,
                     help="directory for output files (default: config "
                          "output.dir, else current directory)")
    sub.add_argument("--rel-tol", type=float, default=None,
                     help="override the integrator relative tolerance")
    sub.add_argument("--t-end", type=float, default=None,
                     help="override the scenario end time (tau_R units)")
    sub.add_argument("--dt", type=float, default=None,
                     help="override the output grid spacing (tau_R units)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filmsr",
        description="Collective emission from an ultrathin film of "
                    "three-level V-type emitters")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="integrate one scenario config")
    run.add_argument("config", help="scenario config file")
    _add_run_flags(run)

    sweep = commands.add_parser("sweep",
                                help="run a family varying one parameter")
    sweep.add_argument("config", help="base scenario config file")
    sweep.add_argument("--param", required=True, choices=SWEEPABLE,
                       help="parameter to vary")
    sweep.add_argument("--values", required=True,
                       help="comma-separated list of values")
    _add_run_flags(sweep)

    preset = commands.add_parser("preset", help="run a shipped scenario")
    preset.add_argument("name", choices=PRESET_NAMES)
    _add_run_flags(preset)

    times = commands.add_parser(
        "timescales",
        help="estimate the collective time constant from physical inputs")
    times.add_argument("config", help="physical-inputs config file")
    return parser


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """The config with the --rel-tol, --dt and --t-end overrides, made in
    one step, so that only the final config is checked."""
    control = {k: v for k, v in (("rel_tol", args.rel_tol), ("dt", args.dt))
               if v is not None}
    changes = {} if args.t_end is None else {"t_end": args.t_end}
    with _config_errors():
        if control:
            changes["control"] = replace(cfg.control, **control)
        return replace(cfg, **changes) if changes else cfg


def _report(result) -> None:
    for path in result.paths:
        print(f"wrote {path}")
    if result.error is not None:
        print(result.error)
    elif result.metrics is not None:
        m = result.metrics
        osc = "-" if m.oscillation_freq is None else repr(m.oscillation_freq)
        print(f"t_peak = {m.t_peak!r}  fwhm = {m.fwhm!r}  "
              f"oscillation_freq = {osc}")


def _cmd_run(args) -> int:
    """``run`` and ``preset``: one scenario, from a file or by name."""
    cfg = (load_preset(args.name) if args.command == "preset"
           else load_scenario(args.config))
    _report(run_scenario(_apply_overrides(cfg, args), args.out_dir))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_scenario(args.config), args)
    with _config_errors("cannot parse --values: "):
        values = tuple(float(v) for v in args.values.split(",") if v.strip())
    spec = SweepSpec(base=cfg, param=args.param, values=values)
    out_dir = (cfg.out_dir if args.out_dir is None else args.out_dir) or "."
    rows = run_sweep(spec, out_dir)
    print(f"wrote {out_dir}/summary.csv ({len(rows)} rows)")
    failures = [row for row in rows if row.error is not None]
    for row in failures:
        print(f"value {row.value!r}: {row.error}")
    return EXIT_OK


def _cmd_timescales(args) -> int:
    phys = load_physical(args.config)
    times = estimate_timescales(phys)
    tau = times["tau_R_seconds"]
    print(f"tau_R_seconds = {tau!r}")
    print(f"tau_R_femtoseconds = {tau * 1e15!r}")
    print(f"ratio_to_tau0 = {times['ratio_to_tau0']!r}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "preset": _cmd_run,
    "timescales": _cmd_timescales,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, AnalyticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
