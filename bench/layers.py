"""Which filmsr names the traced pass wraps, and the per-layer metrics.

Layers are modules of ``src/filmsr``: cli, config, runner, dynamics,
basis, observables.  A name is wrapped where callers look it up, so
``runner.integrate`` (used by ``run_scenario``) and ``dynamics.integrate``
(called by the fine_grid workload) are both timed as
``dynamics.integrate``.  ``params`` and ``analytics`` cost microseconds
per run and are not timed as layers.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from filmsr import basis, cli, config, dynamics, observables, runner

from spans import Recorder, self_times

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "cli.overhead_s": ("s", "lower"),
    "config.validate_s": ("s", "lower"),
    "runner.run_scenario_s": ("s", "lower"),
    "runner.emit_outputs_s": ("s", "lower"),
    "runner.bytes_written": ("B", "lower"),
    "runner.emit_us_per_row": ("us", "lower"),
    "runner.run_sweep_s": ("s", "lower"),
    "runner.sweep_member_s": ("s", "lower"),
    "runner.sweep_speedup": ("ratio", "higher"),
    "runner.sweep_threads": ("count", "higher"),
    "dynamics.integrate_s": ("s", "lower"),
    "dynamics.steps_accepted": ("count", "lower"),
    "dynamics.steps_rejected": ("count", "lower"),
    "dynamics.accept_ratio": ("ratio", "higher"),
    "dynamics.samples": ("count", "higher"),
    "dynamics.steps_per_sample": ("ratio", "lower"),
    "dynamics.rhs_evals": ("count", "lower"),
    "dynamics.step_us": ("us", "lower"),
    "basis.integrate_bright_dark_s": ("s", "lower"),
    "basis.steps_accepted": ("count", "lower"),
    "observables.pulse_metrics_s": ("s", "lower"),
    "observables.instantaneous_frequency_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly from one traced pass to the next
EXACT = ("runner.bytes_written", "dynamics.steps_accepted",
         "dynamics.steps_rejected", "dynamics.samples", "dynamics.rhs_evals",
         "basis.steps_accepted")


def _trajectory_attrs(traj, *args, **kwargs) -> dict:
    t = getattr(traj, "t", None)
    return {"steps_accepted": getattr(traj, "steps_accepted", None),
            "steps_rejected": getattr(traj, "steps_rejected", None),
            "samples": None if t is None else len(t)}


def _emit_attrs(paths, traj=None, *args, **kwargs) -> dict:
    t = getattr(traj, "t", None)
    return {"bytes": sum(os.path.getsize(p) for p in paths),
            "rows": None if t is None else len(t)}


def install(recorder: Recorder) -> None:
    """Wrap every traced name; names that no longer exist are noted absent."""
    wrap = recorder.wrap
    wrap(cli, "main", "cli.main")
    wrap(cli, "load_preset", "config.load_preset")
    wrap(config.ScenarioConfig, "validated", "config.validated")
    wrap(config.SweepSpec, "validated", "config.sweep_validated")
    wrap(cli, "run_scenario", "runner.run_scenario")
    wrap(runner, "run_scenario", "runner.run_scenario")
    wrap(runner, "run_sweep", "runner.run_sweep")
    wrap(runner, "emit_outputs", "runner.emit_outputs", _emit_attrs)
    wrap(runner, "integrate", "dynamics.integrate", _trajectory_attrs)
    wrap(runner, "pulse_metrics", "observables.pulse_metrics")
    wrap(dynamics, "integrate", "dynamics.integrate", _trajectory_attrs)
    wrap(basis, "integrate_bright_dark", "basis.integrate_bright_dark",
         _trajectory_attrs)
    wrap(observables, "pulse_metrics", "observables.pulse_metrics")
    wrap(observables, "instantaneous_frequency",
         "observables.instantaneous_frequency")
    # the vector field the stepper looks up on every stage
    recorder.count_calls(dynamics, "_rhs", "dynamics.rhs_evals")


def _sum_attr(spans, key):
    values = [s.attrs.get(key) for s in spans]
    return None if None in values else sum(values)


def _ratio(num, den):
    return num / den if num is not None and den else None


def derive(spans, counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and why any is absent.

    ``*_s`` metrics of a named function sum its span durations over the
    pass; ``cli.overhead_s`` and ``config.validate_s`` are self times,
    because those layers call into the others.  ``sweep_speedup`` and
    ``trace.overhead_s`` need more than one pass and are filled in by
    the caller.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def total(name):
        found = by_name[name]
        return sum(s.duration for s in found) if found else None

    sweep_ids = {s.id for s in by_name["runner.run_sweep"]}
    members = [s for s in by_name["runner.run_scenario"]
               if s.parent in sweep_ids]
    cli_spans = by_name["cli.main"]
    config_spans = [s for s in spans if s.layer == "config"]
    integrate = by_name["dynamics.integrate"]
    accepted = _sum_attr(integrate, "steps_accepted")
    rejected = _sum_attr(integrate, "steps_rejected")
    steps = (None if accepted is None or rejected is None
             else accepted + rejected)
    emit = by_name["runner.emit_outputs"]
    bright_dark = by_name["basis.integrate_bright_dark"]

    values = {
        "cli.overhead_s": (sum(own[s.id] for s in cli_spans)
                           if cli_spans else None),
        "config.validate_s": (sum(own[s.id] for s in config_spans)
                              if config_spans else None),
        "runner.run_scenario_s": total("runner.run_scenario"),
        "runner.emit_outputs_s": total("runner.emit_outputs"),
        "runner.bytes_written": _sum_attr(emit, "bytes") if emit else None,
        "runner.emit_us_per_row": _ratio(
            None if not emit else 1e6 * total("runner.emit_outputs"),
            _sum_attr(emit, "rows")),
        "runner.run_sweep_s": total("runner.run_sweep"),
        "runner.sweep_member_s": (statistics.median(s.duration
                                                    for s in members)
                                  if members else None),
        "runner.sweep_threads": (len({s.thread for s in members})
                                 if members else None),
        "dynamics.integrate_s": total("dynamics.integrate"),
        "dynamics.steps_accepted": accepted if integrate else None,
        "dynamics.steps_rejected": rejected if integrate else None,
        "dynamics.accept_ratio": _ratio(accepted, steps),
        "dynamics.samples": (_sum_attr(integrate, "samples")
                             if integrate else None),
        "dynamics.steps_per_sample": _ratio(
            accepted, _sum_attr(integrate, "samples")),
        "dynamics.rhs_evals": counts.get("dynamics.rhs_evals"),
        "dynamics.step_us": _ratio(
            None if not integrate else 1e6 * total("dynamics.integrate"),
            steps),
        "basis.integrate_bright_dark_s": total("basis.integrate_bright_dark"),
        "basis.steps_accepted": (_sum_attr(bright_dark, "steps_accepted")
                                 if bright_dark else None),
        "observables.pulse_metrics_s": total("observables.pulse_metrics"),
        "observables.instantaneous_frequency_s": total(
            "observables.instantaneous_frequency"),
    }
    absent = {name: "not exercised by this workload, or the name it is "
                    "measured at is gone"
              for name, v in values.items() if v is None}
    return values, absent
