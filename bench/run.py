"""genquot benchmark: `genquot verify` throughput on three workloads.

    python3 bench/run.py --workload opnorm --seed 7 --seconds 30 --trace 0

Each workload is a closed loop in one process: it calls
`genquot.cli.main(["verify", suite, ...])` in-process for each of its suites
in turn (one pass is a *cycle*), and starts the next cycle when the previous
one returns, for about `--seconds` (whole cycles only). Every suite keeps its default
size grid and runs the trial count fixed below. Cycle c uses master seed
`--seed + c * CYCLE_SEED_STRIDE`, so cycle 0 runs at the workload seed itself.

Workloads (why each was chosen):
  opnorm    hsbound, thm32, thm22 at --threads 1. Nearly all time is
            max-of-gauges LPs on the full-LP path inside operator_norm, plus
            the thm22 restriction certificate: warm starts and pruning show
            here. The plain single-threaded baseline.
  sections  fact31, prop41, prop42 at --threads 2 (os.cpu_count() on a
            2-core machine). Independent gauges of arbitrary points
            (body_norm_many with n > 6, section distortion, witness
            re-verification) and the column-generation path at 24x576 and
            36x1296; the only workload that runs the experiments thread pool.
  geometry  lemmaD, corC at --threads 1. No LP solves: radii descent,
            volume_ratio and the samplers. The no-change control for any
            linprog, gauge or pool change.

With --trace 0 the last stdout line carries the end-to-end metrics:
  trials_per_s  trial records per wall second over all cycles
  setup_s       median of SETUP_PROBES fresh-interpreter set-ups (import,
                thresholds load, warm-up; see setup_probe.py)
  peak_rss_mb   peak resident memory of this process after the timed phase
failed_share (failed operations over attempted trials) is printed on its own
line and is `failed / attempted` of the result line.

With --trace 1 the loop alternates untraced and traced cycles at the
workload seed, and the last line carries per-layer metrics per traced cycle
(see LAYER_METRICS): exact work counts, which must repeat in every cycle,
and self times (span duration minus the time its child spans cover), as
medians over traced cycles. trace.overhead_s is the median traced cycle
wall minus the median untraced one.

A failure is a trial error record, a suite exit code of 2 or 3, a sampled
value that disagrees with the HiGHS reference (reference.py), or, at the
default seed, a PASS/FAIL verdict that differs from expected.json. Report
bytes that differ from expected.json are noted, not counted. Traced runs
also count reports or work counts that differ between cycles of one seed.

Full results (environment, cycles, checks) go to .bench_out/, and spans of
a traced run to a JSON-lines file beside them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from setup_probe import pin_blas_threads  # noqa: E402

pin_blas_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from functools import cached_property  # noqa: E402

from setup_probe import ROOT, THRESHOLDS, set_up  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

DEFAULT_SEED = 7
CYCLE_SEED_STRIDE = 1_000_003
SETUP_PROBES = 5

# workload -> (--threads, ((suite, --trials), ...))
WORKLOADS = {
    "opnorm": (1, (("hsbound", 4), ("thm32", 2), ("thm22", 4))),
    "sections": (2, (("fact31", 1), ("prop41", 10), ("prop42", 10))),
    "geometry": (1, (("lemmaD", 2), ("corC", 10))),
}

END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; counts are exact and must repeat across cycles
COUNT_METRICS = {
    "linprog.solve_lp.calls": "count",
    "linprog.pivots": "count",
    "linprog.pivots_per_solve": "pivot/solve",
    "body.operator_norm.calls": "count",
    "body.gauges_per_opnorm": "gauge/opnorm",
    "body.body_norm.calls": "count",
    "body.solves_per_gauge": "solve/gauge",
    "body.body_norm_many.points": "count",
}
SELF_TIME_SPANS = (
    "linprog.solve_lp", "body.operator_norm", "body.body_norm", "body.radii",
    "body.volume_ratio", "body.mean_width", "body.make_body",
    "snumbers.gelfand_bracket", "snumbers.min_over_shifts",
    "snumbers.gelfand_sum_bracket", "snumbers.hs_of_normalized",
    "constructions.find_l1_subspace", "constructions.find_l2_subspace",
    "constructions.verify_witness", "constructions.complementation_norm",
    "sampler.gaussian_matrix", "sampler.haar_subspace", "linalg.svd",
    "linalg.orthonormalize", "experiments.run_suite", "experiments.write_report",
    "cli.main",
)
LAYER_METRICS = {
    **COUNT_METRICS,
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    "linprog.us_per_pivot": "us",
    "experiments.cpu_per_wall": "s/s",
    "trace.overhead_s": "s",
}


@dataclass
class SuiteRun:
    suite: str
    trials: int
    exit_code: int
    report: bytes | None  # JSON report bytes; None when the suite wrote none

    @cached_property
    def payload(self) -> dict | None:
        return json.loads(self.report) if self.report is not None else None


@dataclass
class Cycle:
    master: int
    traced: bool
    wall: float
    runs: list[SuiteRun] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return sum(len(r.payload["trials"]) for r in self.runs if r.report is not None)


def run_cycle(cli, workload: str, master: int, work_dir: Path, tracer=None) -> Cycle:
    """One pass over the workload's suites at one master seed."""
    threads, suites = WORKLOADS[workload]
    exit_codes = []
    start = time.perf_counter()
    for suite, trials in suites:
        out = work_dir / f"{suite}.json"
        out.unlink(missing_ok=True)
        argv = ["verify", suite, "--trials", str(trials), "--seed", str(master),
                "--thresholds", str(THRESHOLDS), "--threads", str(threads),
                "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                exit_codes.append(cli.main(argv))
            else:
                tracer.run += 1
                exit_codes.append(tracer.span("cli.main", cli.main, argv))
    wall = time.perf_counter() - start
    cycle = Cycle(master, tracer is not None, wall)
    for (suite, trials), code in zip(suites, exit_codes):
        out = work_dir / f"{suite}.json"
        cycle.runs.append(SuiteRun(suite, trials, code,
                                   out.read_bytes() if out.exists() else None))
    return cycle


def suite_failures(run: SuiteRun) -> tuple[int, int]:
    """(attempted, failed) operations of one suite run."""
    payload = run.payload
    if run.exit_code in (2, 3) or payload is None:
        return 1, 1
    records = payload["trials"]
    return len(records), sum(1 for r in records if "error" in r)


def setup_seconds() -> list[float]:
    """Time SETUP_PROBES set-ups, each in a fresh interpreter, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def correctness(cycle0: Cycle, seed: int) -> tuple[list[dict], list[str], int]:
    """Reference checks and verdict checks on the first cycle's reports.

    Returns (reference checks, notes, failed count).
    """
    import reference  # imports genquot, which set_up put on sys.path

    checks, notes, failed = [], [], 0
    expected = json.loads(EXPECTED.read_text())["reports"] if seed == DEFAULT_SEED else {}
    for suite_run in cycle0.runs:
        payload = suite_run.payload
        if payload is None:
            continue
        checks += reference.check_report(suite_run.suite, payload, cycle0.master)
        want = expected.get(suite_run.suite)
        if want is not None and want["trials"] == suite_run.trials:
            if payload["pass"] != want["pass"]:
                failed += 1
                notes.append(f"{suite_run.suite}: verdict {payload['pass']} "
                             f"!= recorded {want['pass']}")
            if hashlib.sha256(suite_run.report).hexdigest() != want["sha256"]:
                notes.append(f"{suite_run.suite}: report bytes differ from the recorded digest")
    failed += sum(1 for c in checks if not c["ok"])
    return checks, notes, failed


def layer_values(spans) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced cycle."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls, self_s, work, dur = {}, {}, {}, {}
    child_of: dict[tuple[str, str], int] = {}
    cpu = 0.0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        work[s.name] = work.get(s.name, 0) + s.work
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
        cpu += s.cpu
        if s.parent is not None:
            key = (by_id[s.parent].name, s.name)
            child_of[key] = child_of.get(key, 0) + 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves, pivots = calls.get("linprog.solve_lp", 0), work.get("linprog.solve_lp", 0)
    values = {
        "linprog.solve_lp.calls": solves,
        "linprog.pivots": pivots,
        "linprog.pivots_per_solve": ratio(pivots, solves),
        "body.operator_norm.calls": calls.get("body.operator_norm", 0),
        "body.gauges_per_opnorm": ratio(child_of.get(("body.operator_norm", "body.body_norm"), 0),
                                        calls.get("body.operator_norm", 0)),
        "body.body_norm.calls": calls.get("body.body_norm", 0),
        "body.solves_per_gauge": ratio(child_of.get(("body.body_norm", "linprog.solve_lp"), 0),
                                       calls.get("body.body_norm", 0)),
        "body.body_norm_many.points": work.get("body.body_norm_many", 0),
        "linprog.us_per_pivot": ratio(dur.get("linprog.solve_lp", 0.0) * 1e6, pivots),
        "experiments.cpu_per_wall": ratio(cpu, dur.get("experiments.run_suite", 0.0)),
    }
    for name in SELF_TIME_SPANS:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    return values


def timed_phase(cli, workload: str, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Closed loop for about `seconds`; returns (cycles, tracer or None)."""
    tracer = Tracer() if trace else None
    cycles: list[Cycle] = []
    steps = 0
    start = time.perf_counter()
    while True:
        if trace:
            cycles.append(run_cycle(cli, workload, seed, work_dir))
            tracer.install()
            try:
                cycles.append(run_cycle(cli, workload, seed, work_dir, tracer))
            finally:
                tracer.uninstall()
        else:
            master = seed + len(cycles) * CYCLE_SEED_STRIDE
            cycles.append(run_cycle(cli, workload, master, work_dir))
        steps += 1
        elapsed = time.perf_counter() - start
        # whole cycles keep the trial mix fixed; start another one only if
        # it is expected to end nearer to the deadline than stopping now
        if elapsed + 0.5 * elapsed / steps >= seconds:
            return cycles, tracer


def trace_metrics(cycles: list[Cycle], tracer) -> tuple[dict[str, float], int, list[str]]:
    """Per-layer metrics over the traced cycles; (values, failed, notes)."""
    # tracer.run counts cli.main calls of traced cycles from 1
    runs_per_cycle = len(cycles[0].runs)
    per_cycle = []
    for i in range(sum(c.traced for c in cycles)):
        first, last = i * runs_per_cycle + 1, (i + 1) * runs_per_cycle
        per_cycle.append(layer_values([s for s in tracer.spans if first <= s.run <= last]))
    failed, notes = 0, []
    for values in per_cycle[1:]:
        for name in COUNT_METRICS:
            if values[name] != per_cycle[0][name]:
                failed += 1
                notes.append(f"{name}: {values[name]} != {per_cycle[0][name]} between cycles")
    reports = [[r.report for r in c.runs] for c in cycles]
    for rep in reports[1:]:
        if rep != reports[0]:
            failed += 1
            notes.append("report bytes differ between cycles at one seed")
    out = {name: per_cycle[0][name] for name in COUNT_METRICS}
    for name in LAYER_METRICS:
        if name not in COUNT_METRICS and name != "trace.overhead_s":
            out[name] = statistics.median(v[name] for v in per_cycle)
    out["trace.overhead_s"] = (statistics.median(c.wall for c in cycles if c.traced)
                               - statistics.median(c.wall for c in cycles if not c.traced))
    return out, failed, notes


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, run the timed phase, check outputs; returns (result, tracer or None)."""
    cli = set_up()
    env = environment(seed)
    setups = setup_seconds()
    work_dir = OUT_DIR / f"work-{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        cycles, tracer = timed_phase(cli, workload, seed, seconds, trace, work_dir)
    finally:
        for f in work_dir.iterdir():
            f.unlink()
        work_dir.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    for cycle in cycles:
        for r in cycle.runs:
            a, f = suite_failures(r)
            attempted, failed = attempted + a, failed + f
    checks, notes, ref_failed = correctness(cycles[0], seed)
    failed += ref_failed

    if trace:
        metrics, trace_failed, trace_notes = trace_metrics(cycles, tracer)
        failed += trace_failed
        notes += trace_notes
        units = LAYER_METRICS
    else:
        metrics = {
            "trials_per_s": sum(c.trials for c in cycles) / sum(c.wall for c in cycles),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return {
        "workload": workload, "env": env, "seconds": seconds, "trace": trace,
        "threads": WORKLOADS[workload][0], "trials": dict(WORKLOADS[workload][1]),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / max(attempted, 1),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "setup_probes_s": setups,
        "cycles": [{"master": c.master, "traced": c.traced, "wall_s": c.wall,
                    "trials": c.trials, "exit_codes": [r.exit_code for r in c.runs]}
                   for c in cycles],
        "checks": checks, "notes": notes,
    }, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    print("env " + json.dumps(result["env"], sort_keys=True))
    for note in result["notes"]:
        print(f"note {note}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_share {result['failed_share']:.6g} 1")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
