"""Run the benchmark as its acceptance check does and summarise the spread.

    python3 perfbench/collect.py --out FILE

Runs `perfbench/run.py` with tracing off on every workload of
BENCHMARK.json for seeds 1-10, twice over (two sets), then once per
workload with tracing on, all from the repository root. For every
end-to-end metric it prints, per set, the median and the distance between
the quartiles of `statistics.quantiles(n=4)` as a share of the median,
and how far the second set's median is worse than the first's, next to
the metric's bound. `--out` gets all of it, with every run's values, as
JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # run.py stops its own child on SIGTERM
        proc.wait()
        raise
    if proc.returncode:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    *text, last = stdout.splitlines()
    result = json.loads(last)
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "text": text,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    sets = []
    for set_no in range(1, SETS + 1):
        entry = {}
        for workload in workloads:
            runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
            spread = {}
            for m in metrics:
                values = [r["metrics"][m["name"]] for r in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                     "iqr_share": (q3 - q1) / median}
                print(f"set {set_no} {workload:16} {m['name']:12} median={median:.4f} "
                      f"iqr/median={(q3 - q1) / median:.4f} bound={m['bound']}",
                      flush=True)
            entry[workload] = {"runs": runs, "end_to_end": spread}
        sets.append(entry)

    drift = {}
    for workload in workloads:
        drift[workload] = {}
        for m in metrics:
            first, *later = (s[workload]["end_to_end"][m["name"]]["median"] for s in sets)
            worse = [(v - first if m["better"] == "lower" else first - v) / first
                     for v in later]
            drift[workload][m["name"]] = worse
            print(f"drift {workload:16} {m['name']:12} "
                  f"worse by {', '.join(f'{w:+.4f}' for w in worse)} bound={m['bound']}")

    traced = {w: run(w, SEEDS[0], seconds, 1) for w in workloads}
    report = {"run_seconds": seconds, "seeds": list(SEEDS),
              "bounds": {m["name"]: m["bound"] for m in metrics},
              "sets": sets, "drift": drift, "traced": traced}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
