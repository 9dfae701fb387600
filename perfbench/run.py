"""treecap benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload lowerbound --seed 1 --seconds 30 --trace 0

``--workload`` is ``lowerbound``, ``compare`` or ``carrier`` (see
workloads.py for why each exists).  Inputs come only from ``--seed``.  The
run repeats whole rounds of ops until ``--seconds`` have passed, runs the
workload's README CLI line in-process, and prints one JSON object as the
last line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it is a record with the machine and provenance, the tail
percentile and sample count, every op's label, status and latency, and any
failures; the same record goes to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` reports per-layer metrics: rounds alternate between a pass
with span wrappers installed and the same round without them, so the
tracing overhead is measured on identical ops.  Its spans are written to
``perfbench/out/`` at the end.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.

Times are reported at nominal machine speed.  Between ops, around the CLI
runs and after set-up the run times a fixed reference workload that belongs
to the benchmark (``harness.reference_seconds``), and scales every op, CLI
run and set-up by the reference's nominal time over its time then
(``harness.Reference``).  On a shared machine whose single-thread speed
drifts by up to 2x, this takes most of the machine's speed out of the
figures and leaves treecap's in.  The record line keeps the unscaled values
(``raw_metrics``) and the samples.

The process is single-threaded: BLAS and OpenMP are pinned to one thread
before numpy loads, and per-op time limits are SIGALRM timers.  The only
child processes are the set-up probes, run one at a time and waited for.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

OP_LIMIT = 30.0  # seconds an op may take before it counts as a timeout
RUN_BUDGET = 170.0  # the whole process, start to result line
CLI_RESERVE = 45.0  # kept free after the rounds for CLI runs and set-up probes
# The CLI line runs at least CLI_MIN_RUNS times, or as often as fills
# CLI_MIN_SECONDS going by its first run (at most CLI_MAX_RUNS), spread over
# the run; the median is reported.  Single-thread speed on a shared machine
# can switch by up to 2x within seconds, and a median of a few back-to-back
# runs caught one speed, not the run's mix.
CLI_MIN_RUNS, CLI_MAX_RUNS, CLI_MIN_SECONDS = 5, 30, 7.0
CLI_LIMIT = 30.0
SETUP_PROBES = 2  # extra fresh interpreters timing set-up, beside this one
SETUP_REFERENCES = 3  # reference samples timed right after each set-up

END_TO_END = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def _elapsed() -> float:
    return time.perf_counter() - _T0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time set-up and print it (used for the setup_s median)",
    )
    return p.parse_args(argv)


def setup(name: str, seed: int):
    """Build the workload's inputs and run one untimed, checked warm-up op.

    Returns the workload, the warm-up outcome, the set-up wall time since
    the interpreter started timing, and that time at nominal machine speed,
    going by reference samples timed right after it.
    """
    from harness import reference_scale, reference_seconds, run_op
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    label, fn = workload.round(0)[0]
    warm, _ = run_op(label, fn, OP_LIMIT)
    took = _elapsed()
    refs = [reference_seconds() for _ in range(SETUP_REFERENCES)]
    return workload, warm, took, took * reference_scale(refs)


def blas_threads():
    """Threads the loaded BLAS will use: asked of OpenBLAS when it is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return f"env OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(args) -> dict:
    import numpy
    import treecap

    try:
        from treecap import _kernels

        backend = _kernels.backend_name()
    except ImportError:
        backend = "numpy (no kernel module)"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "treecap": treecap.__version__,
        "backend": backend,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def run_cli(argv):
    """Run ``treecap.cli.main(argv)`` once, in-process; returns (seconds, stdout, error)."""
    from harness import OpTimeout, time_limit
    from treecap import cli

    budget = min(CLI_LIMIT, RUN_BUDGET - 10.0 - _elapsed())
    if budget <= 1.0:
        return None, "", "no time left for the CLI line"
    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with time_limit(budget), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except OpTimeout:
        return None, "", f"CLI timed out after {budget:.0f} s"
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, out.getvalue(), f"CLI exited with {code}"
    return seconds, out.getvalue(), None


def check_cli(workload, text: str):
    from harness import CheckFailed

    try:
        workload.check_cli(json.loads(text))
    except (ValueError, CheckFailed) as exc:
        return f"CLI output rejected: {exc}"
    return None


def setup_probes(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, one after another: raw and nominal."""
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        budget = RUN_BUDGET - _elapsed()
        if budget < 10.0:
            break
        try:
            done = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--setup-probe",
                ],
                capture_output=True,
                text=True,
                timeout=min(60.0, budget),
                cwd=str(ROOT),
            )
        except subprocess.TimeoutExpired:
            break
        if done.returncode == 0:
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            raw.append(probe["setup_s"])
            nominal.append(probe["setup_nominal_s"])
    return raw, nominal


def measure(workload, seconds: float):
    """Untraced whole rounds and the CLI line until ``seconds`` pass.

    The CLI runs are spread over the run (at least CLI_MIN_RUNS of them, and
    enough to take CLI_MIN_SECONDS, at most CLI_MAX_RUNS), so that their
    median sees the same machine as the ops.  The reference is timed after
    every op and every CLI run.  Returns the op outcomes, the rounds' wall
    time, the CLI times and their Reference marks, the Reference and the
    first CLI failure.
    """
    from harness import Reference, run_round

    stop_at = time.perf_counter() + min(seconds + 60.0, RUN_BUDGET - CLI_RESERVE - _elapsed())
    outcomes, wall, r, reference = [], 0.0, 0, Reference()
    cli_times, cli_marks, planned, error = [], [], CLI_MIN_RUNS, None

    def cli_due(progress):
        nonlocal planned, error
        while error is None and len(cli_times) < min(planned, math.ceil(planned * progress)):
            took, text, error = run_cli(workload.cli_argv)
            mark = reference.mark()
            if error is None:
                error = check_cli(workload, text)
            if took is None:
                return
            cli_times.append(took)
            cli_marks.append(mark)
            planned = max(CLI_MIN_RUNS, min(CLI_MAX_RUNS, math.ceil(CLI_MIN_SECONDS / cli_times[0])))

    # a round starts only if, going by the last one, it ends before
    # ``seconds`` plus half a round: runs end within half a round of it
    last = 0.0
    while wall + sum(cli_times) + last / 2 < seconds and time.perf_counter() < stop_at:
        done, last = run_round(workload.round(r), stop_at, OP_LIMIT, reference=reference)
        outcomes += done
        wall += last
        r += 1
        cli_due((wall + sum(cli_times)) / seconds)
    cli_due(1.0)
    return outcomes, wall, (cli_times, cli_marks), reference, error


def measure_traced(workload, seconds: float):
    """Rounds run twice, traced and untraced, alternating which goes first."""
    from harness import run_round
    from spans import LayerTracer, Recorder, count_tries

    recorder = Recorder()
    tracer = LayerTracer(recorder)
    stop_at = time.perf_counter() + min(seconds + 60.0, RUN_BUDGET - CLI_RESERVE - _elapsed())
    outcomes, walls, r = [], {True: 0.0, False: 0.0}, 0
    while walls[True] + walls[False] < seconds and time.perf_counter() < stop_at:
        ops = workload.round(r)
        for traced in ((True, False) if r % 2 == 0 else (False, True)):
            if traced:
                with tracer.installed():
                    done, took = run_round(
                        ops, stop_at, OP_LIMIT, wrap=recorder.span,
                        after=lambda sets: count_tries(recorder, sets or ()),
                    )
            else:
                done, took = run_round(ops, stop_at, OP_LIMIT)
            outcomes += done
            walls[traced] += took
        r += 1
    return outcomes, walls, recorder, tracer


def end_to_end(outcomes, wall, cli, reference, setup_raw, setup_nominal):
    """The end-to-end metrics at nominal machine speed, and the record's detail.

    Op and CLI times are scaled by the reference samples around each, and
    the throughput counts ops per second of their scaled slots; each set-up
    time was scaled in its own process by the samples taken after it.
    """
    from harness import OK, TIMEOUT, tail_percentile

    timed = [o for o in outcomes if o.status != TIMEOUT]
    failed = sum(o.status != OK for o in outcomes)
    cli_raw, cli_marks = cli
    cli_nominal = [t * reference.scale(m) for t, m in zip(cli_raw, cli_marks)]

    def figures(latencies, wall, cli_times, setup_times):
        tail = tail_percentile(latencies)[0] if latencies else 0.0
        return {
            "throughput_ops_s": len(latencies) / wall if wall > 0 else 0.0,
            "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
            "op_tail_ms": 1e3 * tail,
            "cli_s": statistics.median(cli_times) if cli_times else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - failed / len(outcomes) if outcomes else 0.0,
        }

    scales = [reference.scale(o.mark) for o in outcomes]
    nominal = [o.seconds * f for o, f in zip(outcomes, scales) if o.status != TIMEOUT]
    nominal_wall = sum(o.slot * f for o, f in zip(outcomes, scales))
    metrics = figures(nominal, nominal_wall, cli_nominal, setup_nominal)
    _, percentile, n = tail_percentile(nominal) if nominal else (0.0, 0.0, 0)
    detail = {
        "raw_metrics": figures([o.seconds for o in timed], wall, cli_raw, setup_raw),
        "nominal_wall_s": nominal_wall,
        "reference_ms": [1e3 * t for t in reference.samples],
        "ops": [
            [o.label, o.status]
            + ([None, None] if o.seconds is None else [1e3 * o.seconds, 1e3 * o.seconds * f])
            for o, f in zip(outcomes, scales)
        ],
        "op_tail_percentile": percentile,
        "op_samples": n,
        "op_tail_beyond": min(10, n),
        "run_wall_s": wall,
        "cli_times_s": cli_raw,
        "cli_nominal_s": cli_nominal,
        "setup_times_s": setup_raw,
        "setup_nominal_s": setup_nominal,
    }
    return metrics, detail


def write_out(name: str, obj) -> None:
    try:
        OUT.mkdir(exist_ok=True)
        (OUT / name).write_text(json.dumps(obj))
    except OSError as exc:
        print(f"could not write {OUT / name}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treecap" / "__init__.py").is_file():
        print(f"error: no treecap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from harness import OK
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workload, warm, setup_s, setup_nominal_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({
            "setup_s": setup_s, "setup_nominal_s": setup_nominal_s, "warm_up": warm.status,
        }))
        return 0 if warm.status == OK else 1

    problems = [] if warm.status == OK else [f"warm-up {warm.label}: {warm.status} {warm.detail}"]
    record = {"provenance": provenance(args)}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        from spans import layer_metrics

        outcomes, walls, recorder, tracer = measure_traced(workload, args.seconds)
        with tracer.installed():
            _, text, error = run_cli(workload.cli_argv)
        if error is None:
            error = check_cli(workload, text)
        overhead = walls[True] / walls[False] - 1.0 if walls[False] > 0 else 0.0
        metrics = layer_metrics(recorder, overhead)
        record["traced_wall_s"], record["untraced_wall_s"] = walls[True], walls[False]
        write_out(f"spans-{tag}.json", recorder.to_json_obj())
    else:
        outcomes, wall, cli, reference, error = measure(workload, args.seconds)
        probes_raw, probes_nominal = setup_probes(args)
        values, detail = end_to_end(
            outcomes, wall, cli, reference,
            [setup_s] + probes_raw, [setup_nominal_s] + probes_nominal,
        )
        record.update(detail)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    if error is not None:
        problems.append(error)
    failures = [f"{o.label}: {o.status} {o.detail}" for o in outcomes if o.status != OK]
    problems += failures
    record["problems"] = problems[:20]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    write_out(f"result-{tag}.json", record)
    print(json.dumps(record))

    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # one thread for BLAS and OpenMP, set before anything imports numpy
    for _var in THREAD_VARIABLES:
        os.environ[_var] = "1"
    sys.exit(main())
