"""shiftlab benchmark: scenario workloads timed end to end, or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pair-grid --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's scenarios in a closed loop,
each through the command-line entry point exactly as a user would
(``shiftlab run <file> --format json --out <file>``), and checks every report
against an independent reference answer (see workloads.py).  It cycles
through the scenario list for a fixed number of executions, sized from
``--seconds`` by the workload's nominal rate (workloads.NOMINAL_RATE), so
``attempted`` and ``failed`` repeat exactly for a given workload, seed and
``--seconds`` on any machine.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a traced
pass and reports the per-layer metrics (see tracing.py and README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record (environment,
per-scenario latencies, failures, the function and stage tables) goes to
``.perfbench_out/`` in the checkout.

The benchmark leaves BLAS threading as the user's environment sets it and
records the thread count in effect.
"""

import argparse
import ctypes
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

SETUP_PROBES = 7
MAX_RUN_SECONDS = 150  # safety stop for a very slow machine; the first full pass always runs
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"

END_TO_END = (
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_FN = "{}.{}".format
PER_LAYER = (
    # (metric, unit, source): source is ("fn", function, field), ("count", key),
    # ("module", layer), ("stage", stage) or ("ratio", numerator, denominator)
    *[(_FN(f, k), u, ("fn", f, k)) for f in (
        "subspaces.orthonormalize", "subspaces.principal_angles", "subspaces.opnorm",
        "subspaces.compress", "subspaces.complement_within", "multiplicity.local_corank",
        "multiplicity.multiplicity", "multiplicity.krylov_closure",
    ) for k, u in (("calls", "count"), ("self_s", "s"))],
    *[(_FN(f, k), u, ("count", _FN(f, k))) for f in tracing.KERNELS
      for k, u in (("flops", "flop"), ("bytes", "byte"))],
    ("multiplicity.closure_iterations", "count", ("count", "multiplicity.closure_iterations")),
    ("multiplicity.corank_hit_ratio", "ratio",
     ("ratio", "multiplicity.corank_hits", "multiplicity.local_corank.calls")),
    ("multiplicity.default_lambda_samples.self_s", "s",
     ("fn", "multiplicity.default_lambda_samples", "self_s")),
    ("multiplicity.generator_trials", "count", ("count", "multiplicity.generator_trials")),
    ("multiplicity.trial_success_ratio", "ratio",
     ("ratio", "multiplicity.generator_successes", "multiplicity.generator_trials")),
    ("multiplicity.shifted_closure_check.calls", "count",
     ("fn", "multiplicity.shifted_closure_check", "calls")),
    *[(_FN(f, "total_s"), "s", ("fn", f, "total_s")) for f in (
        "multiplicity.has_gws", "multiplicity.wandering_subspace",
        "tensorized.build_system", "tensorized.f_chain",
        "tensorized.verify_compression_structure", "tensorized.wandering_E",
        "tensorized.coinvariant_eigenpairs", "scenarios.load_scenario",
        "scenarios.resolve_factor", "scenarios.run_scenario",
    )],
    ("scenarios.run_scenario.self_s", "s", ("fn", "scenarios.run_scenario", "self_s")),
    ("models.total_s", "s", ("module", "models")),
    ("cli.main.self_s", "s", ("fn", "cli.main", "self_s")),
    *[(f"stage.{s}_s", "s", ("stage", s)) for s in tracing.STAGE_NAMES],
    ("trace.overhead_ratio", "ratio", ("overhead",)),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, bad arguments)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; use one of {list(workloads.WORKLOADS)}")
    if args.seed < 0:
        raise SetupError("--seed must be non-negative")
    if args.seconds < 1:
        raise SetupError("--seconds must be positive")
    return args


def import_program(root):
    """Import shiftlab from the checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "shiftlab" / "__init__.py").is_file():
        raise SetupError(f"no shiftlab sources under {src}")
    if not workloads.shipped_exists(root):
        raise SetupError("the shipped scenarios/ files are missing")
    sys.path.insert(0, str(src))
    shiftlab = importlib.import_module("shiftlab")
    if Path(shiftlab.__file__).resolve().parent != (src / "shiftlab").resolve():
        raise SetupError(f"imported shiftlab from {shiftlab.__file__}, not from {src}")
    return importlib.import_module("shiftlab.cli")


class Workload:
    """A workload's scenario files in a private work directory of the checkout."""

    def __init__(self, root, name, seed):
        self.root = root
        self.dir = root / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cases = workloads.WORKLOADS[name](seed)
        self.files = [self._materialize(i, c) for i, c in enumerate(self.cases)]
        self.warmup_files = self._materialize("warmup", workloads.WARMUP)

    def _materialize(self, tag, case):
        if case.path is not None:
            return str(self.root / case.path), str(self.dir / f"{tag}.out.json")
        path = self.dir / f"{tag}.json"
        path.write_text(json.dumps(case.scenario), encoding="utf-8")
        return str(path), str(self.dir / f"{tag}.out.json")

    def warm_up(self, cli):
        run_case(cli, workloads.WARMUP, self.warmup_files)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_case(cli, case, files):
    """Run one scenario through the CLI; returns (seconds, failure or None, mismatches)."""
    scenario, out = files
    argv = ["run", scenario, "--format", "json", "--out", out]
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed scenario, not a benchmark error
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", []
    dt = time.perf_counter() - t0
    if code != 0 and code != 1:
        return dt, f"exit code {code}", []
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out)
    mismatches, problems = workloads.check_report(case, report)
    if code == 1 and not problems:
        problems.append("exit code 1")
    failure = "; ".join(mismatches + problems) or None
    return dt, failure, mismatches


class Loop:
    """Closed-loop execution with per-scenario latencies and failure accounting."""

    def __init__(self, cli, wl):
        self.cli, self.wl = cli, wl
        self.latencies = defaultdict(list)
        self.attempted = 0
        self.failures = []  # (case name, description)
        self.mismatches = []
        self.truncated = False  # stopped at MAX_RUN_SECONDS before its planned executions

    def run(self, i):
        case = self.wl.cases[i]
        dt, failure, mismatches = run_case(self.cli, case, self.wl.files[i])
        self.attempted += 1
        if failure is not None:
            self.failures.append((case.name, failure))
        self.mismatches += [(case.name, m) for m in mismatches]
        return dt


def setup_probe(root, args):
    """Child side of a set-up measurement: import, generate, warm up, then say so."""
    cli = import_program(root)
    wl = Workload(root, args.workload, args.seed)
    planned = workloads.executions(args.workload, len(wl.cases), args.seconds)
    try:
        wl.warm_up(cli)
        print("ready", flush=True)
    finally:
        wl.close()


def measure_setup(root, args):
    """Median wall time from process start to ready, over several fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up probe failed (exit code {code})")
    return statistics.median(times), times


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "shiftlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root):
    """HEAD of the checkout, read from .git without leaving it; None if not a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_untraced(cli, wl, executions):
    """Cycle through the scenarios for a fixed number of executions."""
    loop = Loop(cli, wl)
    n = len(wl.cases)
    deadline = time.perf_counter() + MAX_RUN_SECONDS
    for k in range(executions):
        if k >= n and time.perf_counter() > deadline:
            loop.truncated = True
            break
        loop.latencies[k % n].append(loop.run(k % n))
    return loop


def run_traced(cli, wl, executions):
    """One traced pass, then the first scenarios again, each untraced and traced.

    The repeats fill the run's fixed number of executions (at least the first
    scenario is repeated).  They give the tracing overhead (traced against
    untraced latency of the same scenario) and a second traced execution
    whose counters must equal the first pass's.
    """
    loop = Loop(cli, wl)
    tracer = tracing.Tracer()
    n = len(wl.cases)
    repeats = min(n, max(1, (executions - n) // 2))
    deadline = time.perf_counter() + MAX_RUN_SECONDS
    tracer.install()
    try:
        for i in range(n):
            tracer.scenario = (0, i)
            loop.latencies[i].append(loop.run(i))
    finally:
        tracer.uninstall()
    first_pass = len(tracer.spans)
    untraced, retraced = {}, {}
    for i in range(repeats):
        if i > 0 and time.perf_counter() > deadline:
            loop.truncated = True
            break
        untraced[i] = loop.run(i)
        tracer.install()
        try:
            tracer.scenario = (1, i)
            retraced[i] = loop.run(i)
        finally:
            tracer.uninstall()
    return loop, tracer.spans, first_pass, untraced, retraced


def traced_metrics(spans, first_pass, untraced, retraced):
    """Per-layer metrics of the first traced pass, plus the record's trace tables."""
    pass_spans = spans[:first_pass]
    functions = tracing.function_table(pass_spans)
    counts = tracing.counters(pass_spans)
    modules = tracing.module_totals(pass_spans)
    stages, run_total = tracing.stage_table(pass_spans)
    by_scenario = tracing.counters_by_scenario(spans)
    repeat_mismatch = [i for i in retraced if by_scenario[(0, i)] != by_scenario[(1, i)]]
    overhead = sum(retraced.values()) / sum(untraced.values()) - 1.0

    def value(source):
        kind = source[0]
        if kind == "fn":
            return float(functions.get(source[1], {}).get(source[2], 0.0))
        if kind == "count":
            return counts.get(source[1], 0.0)
        if kind == "module":
            return modules[source[1]]
        if kind == "stage":
            return stages[source[1]]
        if kind == "ratio":
            den = counts.get(source[2], 0.0)
            return counts.get(source[1], 0.0) / den if den else 0.0
        return overhead

    metrics = {name: {"value": value(src), "unit": unit} for name, unit, src in PER_LAYER}
    detail = {
        "functions": functions,
        "counters": counts,
        "kernel_work_basis": "computed from input shapes (dense textbook SVD counts), not measured",
        "modules_total_s": modules,
        "stages_s": stages,
        "stages_sum_over_run_scenario": sum(stages.values()) / run_total,
        "run_scenario_total_s": run_total,
        "tracing_overhead": {
            "scenarios": sorted(retraced),
            "untraced_s": sum(untraced.values()),
            "traced_s": sum(retraced.values()),
            "ratio": overhead,
        },
        "counters_repeat_in_run": {
            "scenarios_compared": len(retraced),
            "mismatched": repeat_mismatch,
        },
        "spans_total": len(spans),
    }
    return metrics, detail


def counters_repeat_across_runs(previous, record):
    """Compare with the last traced run of the same workload and seed, if there is one.

    Returns None when there is no comparable earlier run (none, or different
    sources or BLAS threads), else whether the first-pass counters are equal.
    """
    if previous is None:
        return None
    env, old_env = record["environment"], previous["environment"]
    if any(env[k] != old_env[k] for k in ("src_sha256", "blas_threads", "thread_env")):
        return None
    return previous["trace_detail"]["counters"] == record["trace_detail"]["counters"]


def write_spans(path, spans):
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for s in spans:
            fh.write(json.dumps(s[:tracing.INFO]) + "\n")


def main(argv=None):
    started = time.perf_counter()
    root = Path.cwd()
    try:
        args = parse_args(argv)
        if args.setup_probe:
            setup_probe(root, args)
            return 0
        cli = import_program(root)
        setup_s, setup_samples = (None, None) if args.trace else measure_setup(root, args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wl = Workload(root, args.workload, args.seed)
    planned = workloads.executions(args.workload, len(wl.cases), args.seconds)
    try:
        wl.warm_up(cli)
        if args.trace:
            loop, spans, first_pass, untraced, retraced = run_traced(cli, wl, planned)
        else:
            loop = run_untraced(cli, wl, planned)
    finally:
        wl.close()

    medians = [statistics.median(v) for v in loop.latencies.values()]
    e2e = {
        "scenarios_per_s": len(medians) / sum(medians),
        "scenario_p50_s": statistics.median(medians),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "loop": "closed, one client, one process",
        "scenarios": len(wl.cases),
        "planned_executions": planned,
        "truncated": loop.truncated,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failed_ratio": len(loop.failures) / loop.attempted,
        "failures": loop.failures,
        "reference_mismatches": loop.mismatches,
        # in a traced run these come from the traced pass and carry its overhead
        "end_to_end": e2e,
        "scenario_p90_s": (
            statistics.quantiles(medians, n=10, method="inclusive")[8]
            if len(medians) >= 100 else None
        ),
        "setup_samples_s": setup_samples,
        "latencies_s": {wl.cases[i].name: v for i, v in loop.latencies.items()},
    }
    correct = not loop.mismatches
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, record["trace_detail"] = traced_metrics(spans, first_pass, untraced, retraced)
        previous = out / f"{stem}.json"
        previous = json.loads(previous.read_text()) if previous.is_file() else None
        across = counters_repeat_across_runs(previous, record)
        record["trace_detail"]["counters_repeat_across_runs"] = across
        correct = correct and not record["trace_detail"]["counters_repeat_in_run"]["mismatched"]
        correct = correct and across is not False
        write_spans(out / f"{stem}-spans.jsonl.gz", spans)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    record["correct"] = correct
    record["wall_s"] = time.perf_counter() - started
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {record['failed_ratio']:.4g} ({loop.attempted} attempted, "
          f"{record['failed']} failed)")
    if record["scenario_p90_s"] is not None:
        print(f"scenario_p90_s = {record['scenario_p90_s']:.6g} s (over {len(medians)} scenarios)")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
