"""dispdiff benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `dispdiff` from
`src/` and fails with exit 1 when that is missing.

--trace 0 runs the workload's `python -m dispdiff.cli` commands as child
processes, one at a time (a closed loop with one client), repeating whole
passes until --seconds have gone, and reports medians over the passes.
The JSON carries the metrics every workload has (setup_s, pass_s,
peak_rss_mb); construct_s, verify_s and explore_s are zero on some
workloads, so they and fail_ratio are printed as text lines only.

--trace 1 runs one pass of every workload in-process through
`dispdiff.cli.main`, timing the calls into each layer (see tracing.py).
Each layer is exercised by one or two workloads only, so tracing all of
them gives every per-layer metric a measured value on every run.
trace.overhead_s is the traced in-process pass of the named workload
minus the mean of an untraced pass before and one after. It is a
difference of single passes, so on a machine whose speed drifts by more
than the tracing cost it is noise and can read negative.

Every output is checked by the oracles in workloads.py. Human-readable
lines come first; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

from workloads import WORKLOADS, Pass, setup_call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPANS = ROOT / ".perfbench-out"

SETUP_PER_PASS = 2
MIN_PASSES = 4
CHILD_TIMEOUT_S = 150

# For each per-layer metric of BENCHMARK.json: the end-to-end figure it
# should move, and the workload where it does.
LAYER_MOVES = {
    "diffusive.g_table_s": ("construct_s, peak_rss_mb", "table-roundtrip"),
    "f2linear.serialize_truth_table_s": ("construct_s, peak_rss_mb", "table-roundtrip"),
    "cli.self_s": ("construct_s, verify_s", "table-roundtrip"),
    "cli.file_bytes": ("construct_s, verify_s", "table-roundtrip"),
    "f2linear.parse_map_file_s": ("verify_s, peak_rss_mb", "table-roundtrip"),
    "f2linear.is_injective_s": ("verify_s", "table-roundtrip"),
    "_scan.table_values_s": ("verify_s, peak_rss_mb", "table-roundtrip"),
    "bitword.objects_created": ("verify_s, peak_rss_mb", "table-roundtrip"),
    "f2linear.tabulate_s": ("verify_s", "linear-scan"),
    "_scan.bit_sums_s": ("verify_s", "linear-scan"),
    "_scan.first_distance_violation_s": ("verify_s", "linear-scan"),
    "_scan.pairs": ("verify_s", "linear-scan"),
    "_scan.patterns": ("verify_s", "linear-scan"),
    "_scan.chunks": ("verify_s", "linear-scan"),
    "_scan.pairs_per_s": ("verify_s", "linear-scan"),
    "dispersive.verify_s": ("verify_s", "linear-scan"),
    "diffusive.verify_s": ("verify_s", "table-roundtrip, linear-scan"),
    "explorer.verify_k_s": ("verify_s", "table-roundtrip, linear-scan"),
    "dispersive.format_report_s": ("verify_s", "linear-scan"),
    "diffusive.format_report_s": ("verify_s", "table-roundtrip, linear-scan"),
    "explorer.search_s": ("explore_s", "search"),
    "explorer.candidates_examined": ("explore_s", "search"),
    "explorer.candidates_per_s": ("explore_s", "search"),
    "f2linear.rank_s": ("explore_s", "search"),
    "trace.overhead_s": ("none", "all"),
}
# Spans whose metric is inclusive of their children; the rest are self time.
INCLUSIVE = {"explorer.search"}

# Set for every child: one BLAS thread, fixed string hashing.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def git_commit() -> str:
    """The checkout's HEAD commit, read without running git: HEAD names a
    loose ref file, or a line of packed-refs once refs have been packed."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return f"unknown ({ref} not found)"


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def environment(seed: int, workload: str, threads: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "verify_threads": threads,
        "child_env": PINNED_ENV,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), **PINNED_ENV}


def child_runner(work: Path, log: list):
    """Runner that starts `python -m dispdiff.cli` and appends
    (kind, seconds, peak RSS in MB) to `log`. The peak comes from
    os.wait4 on this child alone: RUSAGE_CHILDREN is a running maximum
    over every child reaped so far."""
    env = child_env()

    def run(kind: str, argv: list[str]) -> tuple[int, str]:
        with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "dispdiff.cli", *argv],
                stdout=out, stderr=err, env=env, cwd=work,
            )
            reaped = threading.Event()
            timer = threading.Timer(
                CHILD_TIMEOUT_S, lambda: reaped.is_set() or proc.kill()
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                reaped.set()
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
            if stderr:
                sys.stderr.write(f"[{' '.join(argv)}] {stderr}")
            log.append((kind, seconds, usage.ru_maxrss * 1024 / 1e6))
            return proc.returncode, out.read().decode(errors="replace")

    return run


def inprocess_runner(main, log: list):
    """Runner that calls `main(argv)` in this process and appends
    (kind, seconds, bytes of the files it names) to `log`."""

    def run(kind: str, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf):
            rc = main(argv)
        seconds = time.perf_counter() - start
        files = sum(Path(a).stat().st_size for a in argv if os.path.isfile(a))
        log.append((kind, seconds, files))
        return rc, buf.getvalue()

    return run


def summary(values: list[float]) -> str:
    # With fewer than 11 samples no percentile has ten beyond it, so the
    # maximum is the highest order statistic reported.
    return (f"median={statistics.median(values)!r} max={max(values)!r} "
            f"n={len(values)}")


def end_to_end(workload: str, seed: int, seconds: float, work: Path,
               threads: int) -> tuple[dict, int, list[str]]:
    run_workload = WORKLOADS[workload]
    start = time.perf_counter()
    setup_log: list = []
    setup = Pass(child_runner(work, setup_log))
    setup_call(setup, work)  # warm-up: byte-compiles dispdiff, fills caches
    del setup_log[:]

    errors: list[str] = []
    attempted = 0
    passes: list[list] = []
    iteration_s: list[float] = []
    while True:
        began = time.perf_counter()
        # Set-up samples are spread over the run, so that they see the
        # same slow and fast phases of a shared machine as the passes.
        for _ in range(SETUP_PER_PASS):
            setup_call(setup, work)
        log: list = []
        p = Pass(child_runner(work, log))
        run_workload(p, work, seed, threads)
        attempted += p.attempted
        errors += p.errors
        passes.append(log)
        iteration_s.append(time.perf_counter() - began)
        projected = time.perf_counter() - start + statistics.median(iteration_s)
        if len(passes) >= MIN_PASSES and projected > seconds:
            break
    setup_times = [s for _, s, _ in setup_log]
    pass_times = [sum(s for _, s, _ in ops) for ops in passes]
    attempted += setup.attempted
    errors += setup.errors

    rss = [max(r for _, _, r in ops) for ops in passes]
    print(f"passes {len(passes)} (closed loop, one client, commands run one at a time)")
    for i, ops in enumerate(passes, start=1):
        print(f"pass {i}: " + " ".join(f"{k}={s:.4f}s" for k, s, _ in ops))
    print(f"setup_s {summary(setup_times)} s")
    print(f"pass_s {summary(pass_times)} s")
    for kind in ("construct", "verify", "explore"):
        per_pass = [sum(s for k, s, _ in ops if k == kind) for ops in passes]
        if any(per_pass):
            print(f"{kind}_s {summary(per_pass)} s")
    print(f"peak_rss_mb {summary(rss)} MB")
    print(f"fail_ratio {len(errors)}/{attempted} "
          "(operations with a wrong output or exit status / operations attempted)")
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in declared_units("end_to_end").items()}
    return metrics, attempted, errors


def traced(workload: str, seed: int, work: Path, threads: int,
           spans_out: Path) -> tuple[dict, int, list[str]]:
    units = declared_units("per_layer")
    if units.keys() != LAYER_MOVES.keys():
        fail("BENCHMARK.json's per_layer metrics differ from LAYER_MOVES")
    sys.path.insert(0, str(SRC))
    import dispdiff.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"dispdiff imported from {cli.__file__}, not from {SRC}")
    from tracing import Tracer

    passes: list[Pass] = []

    def one_pass(main, run_workload) -> list:
        log: list = []
        passes.append(Pass(inprocess_runner(main, log)))
        run_workload(passes[-1], work, seed, threads)
        return log

    # The untraced passes bracket the traced ones, so that warm-up and
    # drift of the machine's speed do not all fall on one side.
    untraced_s = [sum(s for _, s, _ in one_pass(cli.main, WORKLOADS[workload]))]
    tracer = Tracer()
    traced_s = {}
    file_bytes = 0
    with tracer.installed():
        for name, run_workload in WORKLOADS.items():
            log = one_pass(tracer.main, run_workload)
            traced_s[name] = sum(s for _, s, _ in log)
            file_bytes += sum(b for _, _, b in log)
    untraced_s.append(sum(s for _, s, _ in one_pass(cli.main, WORKLOADS[workload])))
    attempted = sum(p.attempted for p in passes)
    errors = [e for p in passes for e in p.errors]

    self_s = tracer.self_times()
    incl_s = tracer.inclusive_times()
    counts = tracer.counts
    scan_s = self_s["_scan.bit_sums"] + self_s["_scan.first_distance_violation"]
    values = {}
    for name, unit in units.items():
        if unit == "s":
            layer = "cli" if name == "cli.self_s" else name[:-2]
            values[name] = (incl_s if layer in INCLUSIVE else self_s)[layer]
        elif unit == "count":
            values[name] = counts[name]
    values.update({
        "cli.file_bytes": file_bytes,
        "_scan.pairs_per_s": counts["_scan.pairs"] / scan_s,
        "explorer.candidates_per_s":
            counts["explorer.candidates_examined"] / incl_s["explorer.search"],
        "trace.overhead_s": traced_s[workload] - statistics.mean(untraced_s),
    })

    for name, unit in units.items():
        moves, where = LAYER_MOVES[name]
        print(f"{name} {values[name]!r} {unit}  (moves {moves}; on {where})")
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_out, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(vars(s)) + "\n")
    print(f"spans {len(tracer.spans)} written to {spans_out.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return metrics, attempted, errors


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that a running child is killed and
    # reaped (see child_runner) before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "dispdiff" / "cli.py").is_file():
        fail(f"no dispdiff source at {SRC}; run from a dispdiff checkout")
    # _scan starts one OS thread per requested worker.
    threads = min(2, os.cpu_count() or 1)
    print("env " + json.dumps(environment(args.seed, args.workload, threads)))

    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.trace:
            spans_out = SPANS / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, errors = traced(
                args.workload, args.seed, work, threads, spans_out
            )
        else:
            metrics, attempted, errors = end_to_end(
                args.workload, args.seed, args.seconds, work, threads
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
