"""End-to-end and per-layer benchmark of the hartogs-geom CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tg-slices --seed 1 --seconds 30 --trace 0

One process runs closed-loop passes of a workload's reports through
`hartogs_geom.cli.main(argv)`: the next report starts when the previous one
has finished.  Passes repeat until `--seconds` is used up, and every timing is
the median over passes.  Every report must exit 0 with `overall: pass` (and
`status: completed` for a geodesic, every cell consistent for a scan), and
its bytes must equal those of the same report in the first pass.

`--trace 0` reports the end-to-end metrics, with the program untouched.
`--trace 1` alternates untraced and traced passes; traced passes wrap the
public calls of every layer (see tracer.py) and give the per-layer metrics,
and the ratio of the two pass times gives the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
the machine, each report's sha256 and every metric with its name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import numpy
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 2  # so that every run compares report bytes across passes

END_TO_END = {m["name"]: m["unit"] for m in layers.SPEC["end_to_end"]}

# Each workload's own names for its primary/secondary throughput, printed as aliases.
FAMILY_ALIASES = {
    "verify_tg": "verify_tg.samples_per_s",
    "verify_tg_lu": "verify_tg.lu_samples_per_s",
    "geodesic": "geodesic.reports_per_s",
    "linear_scan": "linear_scan.cells_per_s",
    "verify_immersion": "verify_immersion.samples_per_s",
    "embed_residual": "embed_residual.points_per_s",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import hartogs_geom.cli
import workloads
workloads.warm_up(workloads.WORKLOADS[{name!r}]({seed}, tiny={tiny}))
print(time.perf_counter() - t0)
"""


# -- one pass ---------------------------------------------------------------------


@dataclass
class Outcome:
    report: workloads.Report
    seconds: float
    rc: int
    text: str
    error: str = ""
    digest: str = ""
    problem: str = ""


def _run_report(cli, report) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    argv = [*report.argv, "--config", f"{report.name}.json"]
    if report.trace_csv:  # each pass must write its own trace
        with contextlib.suppress(FileNotFoundError):
            os.remove(report.trace_csv)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback counts as a failed report
        return Outcome(report, time.perf_counter() - t0, -1, "", repr(exc))
    return Outcome(report, time.perf_counter() - t0, rc, out.getvalue(), err.getvalue())


def _verify(outcome: Outcome) -> None:
    """Fill in the report digest and the reason it failed, if it did."""
    rep = outcome.report
    data = outcome.text.encode()
    if rep.trace_csv and os.path.exists(rep.trace_csv):
        with open(rep.trace_csv, "rb") as fh:
            data += fh.read()
    outcome.digest = hashlib.sha256(data).hexdigest()
    if outcome.rc != 0:
        outcome.problem = f"exit {outcome.rc}: {outcome.error.strip()[-200:]}"
        return
    payload = json.loads(outcome.text)
    if payload.get("overall") != "pass":
        outcome.problem = "overall: fail"
    elif payload["command"] == "geodesic" and payload.get("status") != "completed":
        outcome.problem = f"geodesic status {payload.get('status')}"
    elif payload["command"] == "linear-scan":
        records = payload["records"]
        if len(records) != rep.scan_cells or not all(r["consistent"] for r in records):
            outcome.problem = "inconsistent scan cell"
    elif rep.trace_csv and not os.path.exists(rep.trace_csv):
        outcome.problem = "no trace CSV written"


def run_pass(cli, workload):
    t0 = time.perf_counter()
    outcomes = [_run_report(cli, rep) for rep in workload.reports]
    wall = time.perf_counter() - t0
    for o in outcomes:
        _verify(o)
    return wall, outcomes


def family_rates(outcomes) -> dict:
    """Units of work per second of report time, per throughput family."""
    units, seconds = {}, {}
    for o in outcomes:
        for fam in o.report.families:
            units[fam] = units.get(fam, 0.0) + o.report.units
            seconds[fam] = seconds.get(fam, 0.0) + o.seconds
    return {fam: units[fam] / seconds[fam] for fam in units}


# -- set-up -----------------------------------------------------------------------


def measure_setup(code: str) -> float:
    """Import plus warm-up time in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- machine ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # not a clone: do not ask an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(cli) -> dict:
    with cli._pool() as pool:
        workers = pool._max_workers
    # outside a git repository the commit reads "unknown"; the digest of the
    # package sources still tells two programs apart
    digest = hashlib.sha256()
    for path in sorted((SRC / "hartogs_geom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_workers": workers,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# -- runs -------------------------------------------------------------------------


class Run:
    """Passes of one workload and the failures found in them."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.reference: dict[str, str] = {}
        self.seconds: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self):
        wall, outcomes = run_pass(self.cli, self.workload)
        for o in outcomes:
            ref = self.reference.setdefault(o.report.name, o.digest)
            self.seconds.setdefault(o.report.name, []).append(round(o.seconds, 4))
            if not o.problem and o.digest != ref:
                o.problem = "report bytes differ from the first pass"
            self.attempted += 1
            if o.problem:
                self.failed += 1
                self.problems.append(f"{o.report.name}: {o.problem}")
        return wall, outcomes


def end_to_end(args, run: Run) -> dict:
    code = SETUP_CODE.format(
        src=str(SRC), bench=str(BENCH_DIR), name=args.workload, seed=args.seed,
        tiny=args.size == "tiny",
    )
    setup, walls, primary, secondary = [], [], [], []
    start = time.perf_counter()
    elapsed = 0.0
    while True:
        # spread the set-ups over the run, so they see the same host as the passes
        while len(setup) <= SETUP_REPEATS * elapsed / args.seconds:
            setup.append(measure_setup(code))
        wall, outcomes = run.one_pass()
        walls.append(wall)
        rates = family_rates(outcomes)
        primary.append(rates[run.workload.primary])
        secondary.append(rates[run.workload.secondary])
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + wall > args.seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(code))
    print(f"passes {len(walls)} wall_s {walls}")
    print(f"setup_s samples {setup}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
        "primary_per_s": statistics.median(primary),
        "secondary_per_s": statistics.median(secondary),
    }
    return {name: metrics[name] for name in END_TO_END}


def traced(args, run: Run) -> dict:
    plain, passes = [], []
    start = time.perf_counter()
    while True:
        if len(plain) <= len(passes):
            wall, _ = run.one_pass()
            plain.append(wall)
        else:
            tracer = Tracer()
            try:
                tracer.install()
                wall, _ = run.one_pass()
            finally:
                tracer.uninstall()
            passes.append((wall, tracer))
        elapsed = time.perf_counter() - start
        if passes and elapsed + wall > args.seconds:
            break
    metrics, mismatch = layers.per_layer(passes, plain)
    if mismatch:
        run.problems.append(f"deterministic counters differ between traced passes: {mismatch}")
        run.failed += 1
    print(f"passes untraced {len(plain)} {plain} traced {len(passes)} {[w for w, _ in passes]}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "fields": ["id", "parent", "name", "thread", "start", "end"],
                "passes": [t.spans for _, t in passes],
            },
            fh,
        )
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every report, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (SRC / "hartogs_geom" / "__init__.py").is_file():
        print(f"perfbench: no hartogs_geom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # measure the thread pool users get by default
    os.environ.pop("HARTOGS_GEOM_THREADS", None)

    from hartogs_geom import cli

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    workloads.warm_up(workload)
    print("machine " + json.dumps(machine(cli), sort_keys=True))

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        for rep in workload.reports:
            with open(f"{rep.name}.json", "w") as fh:
                json.dump(rep.config, fh)
        run = Run(cli, workload)
        metrics = traced(args, run) if args.trace else end_to_end(args, run)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    for name, digest in run.reference.items():
        print(f"report {name} sha256 {digest} seconds {run.seconds[name]}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    units = layers.UNITS if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    if not args.trace:
        print(f"alias failed_ratio {run.failed / run.attempted!r} ratio")
        print(f"alias {FAMILY_ALIASES[workload.primary]} = primary_per_s")
        print(f"alias {FAMILY_ALIASES[workload.secondary]} = secondary_per_s")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
