"""Quickstart: express, schedule, compile and run a ragged operator.

This walks through the example of Figure 1 / Listing 1 of the CoRa paper:
an elementwise operator over a batch of variable-length sequences.  It
shows the three stages of the pipeline -- describing the computation,
scheduling it (padding + loop fusion), and executing the generated kernel --
and prints the generated Python kernel so you can see the prelude-built
auxiliary arrays being indexed.  The final sections lift the operator
into the program runtime: declared as a one-node :class:`repro.Program`
and executed through a :class:`repro.Session`, which compiles ahead of
time and replays mini-batches without per-op dispatch, then chained into
a two-stage pipeline with :meth:`repro.Session.run_stack`.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import Program, Session
from repro.core.dims import Dim
from repro.core.executor import Executor
from repro.core.extents import ConstExtent, VarExtent
from repro.core.operator import compute, input_tensor
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Describe the computation (the Ragged API of Listing 1).
    # ------------------------------------------------------------------ #
    lengths = np.array([5, 2, 3])
    batch, seq = Dim("batch"), Dim("seq")

    A = input_tensor("A", [batch, seq],
                     [ConstExtent(len(lengths)), VarExtent(batch, lengths)])
    op = compute("B", [batch, seq],
                 [ConstExtent(len(lengths)), VarExtent(batch, lengths)],
                 lambda o, i: 2.0 * A[o, i])
    print("operator:", op)

    # ------------------------------------------------------------------ #
    # 2. Schedule it: pad the vloop to 2, the output storage to 4, and
    #    fuse the batch and sequence loops (exactly Listing 1).
    # ------------------------------------------------------------------ #
    schedule = Schedule(op)
    schedule.pad_loop(seq, 2)
    schedule.pad_dimension(seq, 4)
    schedule.pad_input_dimension("A", seq, 2)
    schedule.fuse_loops(batch, seq)

    # ------------------------------------------------------------------ #
    # 3. Compile and run.
    #
    # The executor compiles through a codegen *backend*:
    #   - "vector" (default): the inner loops collapse into NumPy
    #     matmul / ufunc operations computed straight into views of the
    #     flat buffers -- orders of magnitude faster, with automatic fallback to the scalar backend for
    #     constructs it cannot vectorize (this fused schedule is one);
    #   - "scalar": the readable reference emitter, one Python loop per
    #     axis, used here so the printed kernel shows the loop nest.
    # Compiled kernels are cached: re-running the same schedule performs
    # zero re-lowers (see executor.lower_count / cache_hits).
    # ------------------------------------------------------------------ #
    executor = Executor(backend="scalar")
    compiled = executor.compile(schedule)
    print("\n--- generated kernel (scalar backend) ----------------------")
    print(compiled.source)

    vector_executor = Executor(backend="vector")
    unfused_compiled = vector_executor.compile(Schedule(op))
    print("--- generated kernel (vector backend, unfused schedule) -----")
    print(unfused_compiled.source)

    input_layout = RaggedLayout(
        [batch, seq],
        [ConstExtent(len(lengths)), VarExtent(batch, lengths)],
        storage_padding={seq: 2},
    )
    a = RaggedTensor.random(input_layout, seed=0)
    out, report = executor.run(compiled, {"A": a})

    print("--- results ------------------------------------------------")
    for b in range(len(lengths)):
        valid = int(lengths[b])
        expected = 2 * a.valid_slice(b)[:valid]
        got = out.valid_slice(b)[:valid]
        print(f"sequence {b} (length {valid}): max error "
              f"{np.abs(expected - got).max():.2e}")
    # The fused kernel's own report no longer "sees" the raggedness (the
    # fused loop has a single constant bound), so quantify the padding that
    # a fully dense execution would have needed using the unfused schedule.
    unfused = Schedule(op)
    unfused.pad_input_dimension("A", seq, 2)
    _, unfused_report = executor.build_and_run(unfused, {"A": a})
    print(f"\nragged FLOPs executed : {unfused_report.flops}")
    print(f"fully padded FLOPs    : {unfused_report.dense_flops}")
    print(f"padding waste avoided : {unfused_report.padding_waste:.2f}x")

    # ------------------------------------------------------------------ #
    # 4. The Session API: declare the operator as a (one-node) program
    #    and let the session compile it ahead of time.  Real programs
    #    chain many nodes; the session plans all intermediate buffers
    #    into a reusable arena and replays batches with a flat dispatch
    #    loop (see examples/transformer_encoder.py for the full encoder).
    # ------------------------------------------------------------------ #
    program = Program("quickstart")
    a_val = program.add_input("A", layout=input_layout)
    out_layout = RaggedLayout(
        [batch, seq],
        [ConstExtent(len(lengths)), VarExtent(batch, lengths)])
    scaled = program.add_kernel("scale", unfused, {"A": a_val}, out_layout)
    program.mark_output(scaled)

    session = Session(backend="vector")
    result = session.run(program, {"A": a})[scaled]
    print("\n--- Session API --------------------------------------------")
    print(f"program output matches op-by-op run: "
          f"{result.allclose(out)}")
    print(f"session stats: {session.stats()['codegen']['backend']} backend, "
          f"{session.stats()['program_compiles']} program compile(s)")

    # ------------------------------------------------------------------ #
    # 5. Program stacks: run_stack pipes one program's output into the
    #    next program's input -- here the doubling program followed by a
    #    second (unpadded-input) doubling stage, so the result is 4 * A.
    #    An N-layer transformer declared as ONE stacked program goes
    #    further: a single arena plan spans all layers (see
    #    examples/transformer_encoder.py and repro.serving for the
    #    continuous-batching scheduler built on top).
    # ------------------------------------------------------------------ #
    stage2 = Program("quickstart-stage2")
    a2 = stage2.add_input("A", layout=out_layout)
    scaled2 = stage2.add_kernel("scale", Schedule(op), {"A": a2}, out_layout)
    stage2.mark_output(scaled2)
    stacked = session.run_stack([program, stage2], {"A": a})[scaled2]
    quadrupled = all(
        np.allclose(stacked.valid_slice(b)[:int(lengths[b])],
                    4 * a.valid_slice(b)[:int(lengths[b])])
        for b in range(len(lengths)))
    print(f"run_stack([program, stage2]) doubles twice (4*A): {quadrupled}")

    # ------------------------------------------------------------------ #
    # 6. In-place planning: an element-wise node may write its output
    #    over its dying input's arena slab instead of a second buffer --
    #    bit-identical by construction, because steps run in plan order
    #    and the planner only aliases an input no later step reads.
    # ------------------------------------------------------------------ #
    inplace = Session(backend="vector", inplace=True)
    result2 = inplace.run(program, {"A": a})[scaled]
    print("\n--- in-place planning --------------------------------------")
    print(f"in-place plan matches double-buffered: "
          f"{np.array_equal(result2.data, result.data)}")
    print(f"values aliased in place: "
          f"{inplace.compile(program).plan.inplace_values} (only element-wise "
          f"host nodes alias; this program is one kernel)")


if __name__ == "__main__":
    main()
