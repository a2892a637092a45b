"""The pinned end-to-end benchmark of the CoRa reproduction.

    python3 benchmarks/e2e/run.py                       # all workloads, both passes
    python3 benchmarks/e2e/run.py --workload enc_short --seed 3 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --smoke               # ~1/10 length, not comparable
    python3 benchmarks/e2e/run.py --repeat-check 10     # spread of every metric

Each workload runs in a fresh ``worker.py`` process with
``OPENBLAS/OMP/MKL_NUM_THREADS=1`` exported before NumPy is imported.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` repeats the workload with the tracing wrappers plugged in and reports
the per-layer metrics.  Every metric is printed by name with its unit, the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``), everything measured is written to
``benchmarks/e2e/results/e2e.json``, and the exit code is non-zero when an
output failed the oracle or a kernel fell back from the vector backend.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RESULTS = os.path.join(HERE, "results")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A worker that has not finished by then is killed (the contract allows a
#: run 180 s in all).
WORKER_TIMEOUT_S = 160


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_state() -> dict:
    """Commit and dirty flag of the checkout (``unknown`` outside git)."""
    def git(*args):
        return subprocess.run(("git", "-C", ROOT) + args, capture_output=True,
                              text=True, timeout=30)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"sha": "unknown", "dirty": None}
        return {"sha": head.stdout.strip(),
                "dirty": bool(git("status", "--porcelain").stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": "unknown", "dirty": None}


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, setup_only: bool = False) -> dict:
    """Run one worker to its end and return its JSON result, with the
    process's return code and wall time added."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    elif trace:
        os.makedirs(RESULTS, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(RESULTS, f"trace_{workload}.json")]
    started = time.time()
    cmd += ["--spawned-at", repr(started)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if not result:
        sys.stderr.write(proc.stderr[-4000:])
    result["returncode"] = proc.returncode
    result["process_wall_s"] = time.time() - started
    return result


def measure_workload(workload: str, seed: int, seconds: float, trace: int,
                     smoke: bool = False) -> dict:
    """One run of one workload.  An untraced run sets up ``SETUPS`` times
    (the extra ones in processes that stop when the timed section would
    begin; none under ``smoke``) and reports the median as ``setup_s``."""
    setups = []
    if not trace and not smoke:
        for _ in range(SETUPS - 1):
            extra = spawn_worker(workload, seed, seconds, trace,
                                 setup_only=True)
            if "setup_s" in extra:
                setups.append(extra["setup_s"])
    result = spawn_worker(workload, seed, seconds, trace, smoke)
    if not trace and "metrics" in result:
        setups.append(result["metrics"]["setup_s"])
        result["setup_runs_s"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return result


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness measure of the benchmark contract."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def report(result: dict, spec: dict, comparable: bool) -> None:
    """Print one run: every metric by name, with unit, direction and bound."""
    declared = {m["name"]: m for m in
                spec["per_layer" if result["trace"] else "end_to_end"]}
    verdict = "correct" if result.get("correct") else "NOT CORRECT"
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']:g}  trace={result['trace']}  "
          f"{verdict}, {result.get('attempted', 0)} attempted, "
          f"{result.get('failed', '?')} failed"
          f"{'' if comparable else '  [smoke: NOT COMPARABLE]'} ==")
    metrics = result.get("metrics", {})
    for name, m in declared.items():
        value = metrics[name]
        bound = f", bound {m['bound']:.0%}" if "bound" in m else ""
        print(f"  {name:<34} {value:>16.6g} {m['unit']:<8} "
              f"({m['better']} is better{bound})")
    for name, value in result.get("extra", {}).items():
        print(f"  . {name:<32} {value:>16.6g}")
    for error in result.get("errors", []):
        print(f"  ! {error}")


def final_line(result: dict, spec: dict) -> str:
    """The contract's result object: exactly four keys, every metric with
    its declared unit."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    })


def repeat_check(runs: list, spec: dict) -> bool:
    """Print, per workload and end-to-end metric, the quartile spread of
    the repeated runs against the metric's bound."""
    steady = True
    print(f"{'workload':<12}{'metric':<22}{'median':>14}{'spread':>10}"
          f"{'bound':>8}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["metrics"] for r in runs if r["workload"] == workload]
        for m in spec["end_to_end"]:
            values = [metrics[m["name"]] for metrics in mine]
            spread = quartile_spread(values)
            if m["name"] == "setup_s" or spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict, steady = "UNSTEADY", False
            print(f"{workload:<12}{m['name']:<22}"
                  f"{statistics.median(values):>14.6g}{spread:>10.2%}"
                  f"{m['bound']:>8.0%}  {verdict}")
    return steady


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: one pass of each)")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the length; same checks, numbers "
                             "not comparable")
    parser.add_argument("--repeat-check", type=int, metavar="N", default=0,
                        help="N untraced sets on seeds SEED..SEED+N-1, then "
                             "each metric's spread against its bound")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    passes = [args.trace] if args.trace is not None else [0, 1]
    seconds = args.seconds / 10 if args.smoke else args.seconds
    seeds = [args.seed]
    if args.repeat_check:
        if args.repeat_check < 2:
            parser.error("--repeat-check needs at least 2 sets")
        passes = [0]
        seeds = list(range(args.seed, args.seed + args.repeat_check))

    runs = []
    for seed in seeds:
        for workload in workloads:
            for trace in passes:
                result = measure_workload(workload, seed, seconds, trace, args.smoke)
                runs.append(result)
                if "metrics" in result:
                    report(result, spec, comparable=not args.smoke)
                else:
                    print(f"== {workload}: worker failed "
                          f"(exit {result['returncode']}) ==")
    complete = all("metrics" in r for r in runs)
    steady = True
    if args.repeat_check and complete:
        steady = repeat_check(runs, spec)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "e2e.json")
    with open(path, "w") as fh:
        json.dump({"git": git_state(), "comparable": not args.smoke,
                   "command": sys.argv, "runs": runs}, fh, indent=1)
        fh.write("\n")
    print(f"results: {os.path.relpath(path)}")
    if complete and len(runs) == 1:
        print(final_line(runs[0], spec))
    ok = complete and steady and all(r["returncode"] == 0 for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
