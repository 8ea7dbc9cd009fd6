#!/usr/bin/env python3
"""filmsr benchmark: time one workload end to end, or layer by layer.

    python3 bench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of traced passes.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it, and ``.bench_run/<run>.json``, hold
the full report (machine facts, raw and calibrated timings, sample
counts, exact counts).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# workloads.WORKLOADS, repeated so that --help works without the package
WORKLOADS = ("presets", "lfc_sweep", "fine_grid")

# a fresh interpreter imports the CLI and loads and validates every
# preset: what each `filmsr` command pays before its first step
SETUP_CODE = """\
import filmsr.cli
from filmsr import config
for name in ("fig2", "fig3", "fig4", "fig5", "degenerate"):
    config.load_preset(name).validated()
"""
SETUP_REPEATS = 9
MAX_SWEEP_THREADS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program() -> None:
    """Import filmsr from this checkout's src/, or raise BenchmarkError."""
    if not (SRC / "filmsr" / "__init__.py").is_file():
        raise BenchmarkError(f"no filmsr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import filmsr
    if Path(filmsr.__file__).resolve().parent != SRC / "filmsr":
        raise BenchmarkError(f"imported filmsr from {filmsr.__file__}, "
                             f"not from {SRC}")


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "loadavg_start": os.getloadavg()}


def summary(values) -> dict:
    values = list(values)
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


class Run:
    """One invocation: set-up, warm-up, timed passes, checks, report."""

    def __init__(self, args, workloads, layers, spans, calibrate):
        self.args = args
        self.workloads = workloads
        self.layers = layers
        self.recorder = spans.Recorder()
        # filmsr threads the pass runs; the kernel is split as many ways
        self.threads = (min(MAX_SWEEP_THREADS, len(os.sched_getaffinity(0)))
                        if args.workload == "lfc_sweep" else 1)
        self.calibrate = calibrate
        self.calibration = calibrate.Calibration(self.threads)
        self.work_dir = RUN_DIR / (f"{args.workload}-seed{args.seed}-"
                                   f"trace{args.trace}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exact: dict = {}
        self.spans: list[dict] = []
        self.dirs = 0
        self.inputs = workloads.generate(args.workload, args.seed)
        self.program_inputs = workloads.prepare(args.workload, self.inputs)
        self.run_pass = workloads.PASSES[args.workload]

    def _fresh_dir(self, tag: str) -> Path:
        self.dirs += 1
        out = self.work_dir / f"{self.dirs:03d}-{tag}"
        out.mkdir(parents=True)
        return out

    def _same_as_before(self, kind: str, counts: dict) -> bool:
        first = self.exact.setdefault(kind, counts)
        if counts == first:
            return True
        self.problems.append(f"{kind} counts changed between repeats: "
                             f"{first} then {counts}")
        return False

    # -- set-up ------------------------------------------------------------

    def measure_setup(self, repeats: int) -> tuple[list, list, list]:
        """Raw and calibrated seconds of fresh-interpreter set-up, and
        the reference start-ups around them."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)

        def fresh_interpreter(code: str) -> float:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise BenchmarkError(f"set-up failed:\n{proc.stderr}")
            return elapsed

        reference = [fresh_interpreter(self.calibrate.STARTUP_REFERENCE_CODE)]
        raw, scaled = [], []
        for _ in range(repeats):
            raw.append(fresh_interpreter(SETUP_CODE))
            reference.append(
                fresh_interpreter(self.calibrate.STARTUP_REFERENCE_CODE))
            scaled.append(raw[-1] * self.calibrate.STARTUP_NOMINAL_S * 2.0
                          / (reference[-2] + reference[-1]))
        return raw, scaled, reference

    # -- passes ------------------------------------------------------------

    def one_pass(self, traced: bool) -> dict:
        """Run, check and fingerprint one pass; return its figures."""
        out = self._fresh_dir("traced" if traced else "plain")
        gc.collect()
        cal = self.calibration
        if traced:
            self.layers.install(self.recorder)
        cal.begin()
        try:
            result = self.run_pass(self.program_inputs, out, gap=cal.sample)
        finally:
            self.recorder.uninstall()
        bracket = cal.end()
        shutil.rmtree(out)

        self.attempted += result.attempted
        self.problems.extend(result.problems)
        same = self._same_as_before("outputs", result.fingerprint)
        figures = {"wall_raw": result.wall_s, "cpu_raw": result.cpu_s,
                   "bracket": bracket, "runs": result.attempted}
        if traced:
            spans, counts = self.recorder.take()
            self.spans.extend(asdict(s) for s in spans)
            values, absent = self.layers.derive(spans, counts)
            same = self._same_as_before(
                "traced", {k: values[k] for k in self.layers.EXACT}) and same
            figures.update(layers=values, absent=absent)
        self.failed += result.failed if same else result.attempted
        return figures

    def solo_members(self) -> float:
        """Each sweep member run alone, traced; their summed time."""
        from filmsr import runner
        out = self._fresh_dir("solo")
        self.layers.install(self.recorder)
        try:
            for i, cfg in enumerate(self.program_inputs["members"]):
                self.attempted += 1
                try:
                    result = runner.run_scenario(cfg, out_dir=out / f"{i:03d}")
                except Exception as exc:
                    self.problems.append(f"solo member {i} raised {exc!r}")
                    self.failed += 1
                    continue
                if result.error is not None:
                    self.problems.append(f"solo member {i}: {result.error}")
                    self.failed += 1
        finally:
            self.recorder.uninstall()
        shutil.rmtree(out)
        spans, _ = self.recorder.take()
        self.spans.extend(asdict(s) for s in spans)
        return sum(s.duration for s in spans
                   if s.name == "runner.run_scenario" and s.parent is None)

    def timed_passes(self, kinds: list[bool]) -> list[dict]:
        """Cycle through ``kinds`` (traced or not) until time is up.

        Every kind runs at least once; a pass starts only if the last
        pass of its kind, checks included, would still end in time.
        """
        done: list[dict] = []
        cost: dict[bool, float] = {}
        deadline = time.perf_counter() + self.args.seconds
        while True:
            traced = kinds[len(done) % len(kinds)]
            started = time.perf_counter()
            figures = self.one_pass(traced)
            figures["traced"] = traced
            done.append(figures)
            cost[traced] = time.perf_counter() - started
            if self.args.smoke and len(done) >= len(kinds):
                return done
            nxt = kinds[len(done) % len(kinds)]
            if (len(done) >= len(kinds)
                    and time.perf_counter() + cost[nxt] > deadline):
                return done

    # -- the whole run -------------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        args = self.args
        report: dict = {"workload": args.workload, "seed": args.seed,
                        "trace": args.trace, "seconds": args.seconds,
                        "smoke": args.smoke, "inputs": self.inputs,
                        "machine": machine_facts()}
        if args.workload == "lfc_sweep":
            os.environ["SR_THREADS"] = str(self.threads)
            report["SR_THREADS"] = self.threads

        metrics: dict = {}
        if not args.trace:
            raw, scaled, reference = self.measure_setup(
                1 if args.smoke else SETUP_REPEATS)
            report["setup_raw_s"] = summary(raw)
            report["setup_s"] = summary(scaled)
            report["setup_reference_s"] = summary(reference)
            metrics["setup_s"] = report["setup_s"]["median"]
        if not args.smoke:
            self.one_pass(traced=False)             # warm-up, not timed
        solo_s = None
        if args.trace and args.workload == "lfc_sweep" and not args.smoke:
            solo_s = self.solo_members()

        if args.smoke:
            kinds = [bool(args.trace)]
        else:
            kinds = [False, True] if args.trace else [False]
        passes = self.timed_passes(kinds)
        for p in passes:
            wall_factor, cpu_factor = self.calibration.factors(p["bracket"])
            p["wall"] = p["wall_raw"] * wall_factor
            p["cpu"] = p["cpu_raw"] * cpu_factor
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]

        report["machine"]["loadavg_end"] = os.getloadavg()
        report["calibration_threads"] = self.threads
        report["calibration_s"] = summary(self.calibration.samples)
        report["calibration_cpu_s"] = summary(self.calibration.cpu_samples)
        for name, group in (("plain", plain), ("traced", traced)):
            for key in ("wall", "wall_raw", "cpu", "cpu_raw"):
                if group:
                    report[f"{name}_{key}_s"] = summary(p[key] for p in group)
        report["exact"] = self.exact
        report["problems"] = self.problems
        report["unwrapped"] = self.recorder.absent

        if args.trace:
            metrics.update(self._layer_metrics(passes, solo_s, report))
        else:
            metrics.update({
                "wall_s": statistics.median(p["wall"] for p in plain),
                "cpu_s": statistics.median(p["cpu"] for p in plain),
                "runs_per_s": statistics.median(p["runs"] / p["wall"]
                                                for p in plain),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
        return metrics, report

    def _layer_metrics(self, passes, solo_s, report) -> dict:
        traced = [p for p in passes if p["traced"]]
        absent: dict = {}
        for p in traced:
            absent.update(p["absent"])
        metrics = {}
        for name in self.layers.PER_LAYER:
            got = [p["layers"][name] for p in traced
                   if p["layers"].get(name) is not None]
            if name in self.layers.EXACT:
                # equal on every pass, or the run already failed
                metrics[name] = got[0] if got else 0
            else:
                metrics[name] = statistics.median(got) if got else 0.0
        sweep_s = metrics["runner.run_sweep_s"]
        if solo_s and sweep_s:
            metrics["runner.sweep_speedup"] = solo_s / sweep_s
            absent.pop("runner.sweep_speedup", None)
            report["solo_members_s"] = solo_s
        else:
            absent["runner.sweep_speedup"] = (
                "needs the solo member runs of a full lfc_sweep run")
        # each traced pass against the untraced pass just before it
        paired = [b["wall"] - a["wall"] for a, b in zip(passes, passes[1:])
                  if b["traced"] and not a["traced"]]
        if paired:
            metrics["trace.overhead_s"] = statistics.median(paired)
        else:
            metrics["trace.overhead_s"] = 0.0
            absent["trace.overhead_s"] = "smoke mode runs no untraced pass"
        report["absent"] = absent
        return metrics

    def write(self, report: dict) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        RUN_DIR.mkdir(exist_ok=True)
        name = self.work_dir.name
        (RUN_DIR / f"{name}.json").write_text(json.dumps(report, indent=1))
        if self.spans:
            (RUN_DIR / f"{name}.spans.json").write_text(
                json.dumps(self.spans))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes may run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass, no warm-up, one set-up: a quick "
                             "check that the workload runs and passes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
        sys.path.insert(0, str(HERE))
        import calibrate
        import layers
        import spans
        import workloads
        run = Run(args, workloads, layers, spans, calibrate)
        metrics, report = run.execute()
    except (BenchmarkError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    run.write(report)
    units = ({name: unit for name, (unit, _) in layers.PER_LAYER.items()}
             if args.trace else END_TO_END)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
