"""Ragged vs padded at *equal cores* on the two encoder workloads.

``benchmarks/e2e`` pins BLAS to one thread, so since compiled steps run
one chunk per usable core its ``ragged_over_padded`` on ``enc_*`` compares
a two-core ragged program with a one-core padded baseline.  This script
makes the honest row next to it, outside the pinned harness: the same
batches, weights and ``PaddedEncoder`` (imported from ``benchmarks/e2e``),
each side in a process of its own with ``OPENBLAS_NUM_THREADS`` set before
NumPy loads:

    padded, 1 BLAS thread      the harness's baseline
    padded, N BLAS threads     the dense baseline given the same cores
    ragged, 1 BLAS thread      this repo (split steps use the cores)
    ragged, N BLAS threads     what un-pinning BLAS alone does

    python3 benchmarks/equal_cores.py [--seed 1000] [--seconds 6]

Prints the median ms of one batch per row (round-robin over the workload's
eight batches for ``--seconds`` after a warm-up of the same length: a
second core takes a while to arrive in a sandbox) and the ratios.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(workload: str, side: str, seed: int, seconds: float) -> float:
    sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "e2e")]
    import numpy as np
    import workloads as wl
    from padded_baseline import PaddedEncoder
    from repro.core.session import Session
    from repro.models.transformer import run_encoder_stack_numeric

    w = wl.WORKLOADS[workload]
    rng = np.random.default_rng([seed, 0])
    weights = wl.make_weights(w.config, rng)
    lengths = wl.typical_batches(w.dataset, w.batch_size, seed)
    batches = [wl.random_hidden(l, w.config.hidden_size, rng) for l in lengths]
    if side == "padded":
        run = PaddedEncoder([weights] * w.n_layers, w.config.num_heads,
                            w.masked).run
    else:
        session = Session(backend="vector")

        def run(hidden):
            return run_encoder_stack_numeric(
                hidden, weights, w.config, masked=w.masked,
                n_layers=w.n_layers, session=session)

    times = []
    for timed in (False, True):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for hidden in batches:
                start = time.perf_counter()
                run(hidden)
                if timed:
                    times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "SIDE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(*args.one, args.seed, args.seconds)))
        return 0
    cores = len(os.sched_getaffinity(0))
    print(f"{cores} usable cores, seed {args.seed}")
    for workload in ("enc_short", "enc_long"):
        ms = {}
        for side in ("padded", "ragged"):
            for threads in (1, cores):
                env = dict(os.environ, **{v: str(threads) for v in THREAD_VARS})
                out = subprocess.run(
                    [sys.executable, __file__, "--one", workload, side,
                     "--seed", str(args.seed), "--seconds", str(args.seconds)],
                    env=env, check=True, capture_output=True, text=True)
                ms[side, threads] = json.loads(out.stdout)
                print(f"{workload:10s} {side}, {threads} BLAS thread(s): "
                      f"{ms[side, threads]:7.2f} ms")
        print(f"{workload:10s} padded/ragged at equal cores "
              f"(padded {cores} BLAS threads vs ragged 1): "
              f"{ms['padded', cores] / ms['ragged', 1]:.2f}x; both with "
              f"{cores} BLAS threads: "
              f"{ms['padded', cores] / ms['ragged', cores]:.2f}x; the "
              f"harness's ratio (padded 1 vs ragged 1): "
              f"{ms['padded', 1] / ms['ragged', 1]:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
