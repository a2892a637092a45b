"""Example: a ragged transformer encoder layer, CoRa-style vs fully padded.

Builds a mini-batch with the sequence-length distribution of the MNLI
dataset, runs the encoder layer through the ragged program runtime (the
whole layer declared once as a program graph, compiled ahead of time by a
:class:`repro.Session`, SDPA kernels vectorized, intermediates planned
into reusable arena slabs), stacks N layers into a single whole-model
program whose arena plan spans every layer, serves a stream of individual
ragged requests through the continuous-batching
:class:`repro.BatchScheduler`, verifies the result against a fully padded
dense reference, and then uses the simulated V100 device model to compare
the latency of the four execution strategies of the paper's Table 4.

Run with:  python examples/transformer_encoder.py
"""

import numpy as np

from repro import BatchScheduler, Session
from repro.data.datasets import sample_lengths
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    encoder_layer_workload,
    encoder_program,
    encoder_stack_program,
    run_encoder_layer_dense_reference,
    run_encoder_layer_numeric,
)
from repro.substrates.costmodel import CostModel
from repro.substrates.device import v100_gpu


def main() -> None:
    # A small configuration so the numeric forward pass is quick.
    config = TransformerConfig(hidden_size=64, num_heads=4, head_size=16,
                               ff_size=128, num_layers=2, loop_pad=8,
                               bulk_pad=16, attention_tile=16)
    lengths = sample_lengths("MNLI", 8, seed=0) // 4 + 4
    print("sequence lengths:", list(lengths))

    rng = np.random.default_rng(0)
    hidden = [rng.standard_normal((int(n), config.hidden_size)).astype(np.float32)
              for n in lengths]
    weights = EncoderWeights.random(config, seed=1)

    # Ragged (CoRa-style) execution through the program runtime: the
    # session compiles the whole encoder once for this raggedness
    # signature; repeated mini-batches replay the flat dispatch loop.
    session = Session(backend="vector")
    ragged = run_encoder_layer_numeric(hidden, weights, config,
                                       session=session)

    program = encoder_program([h.shape[0] for h in hidden], weights, config,
                              session=session)
    plan = session.compile(program).plan
    print(f"program: {len(program.nodes)} nodes "
          f"({len(program.kernel_nodes)} compiled kernels), "
          f"arena {plan.arena_bytes / 1024:.0f} KiB across "
          f"{plan.num_slabs} slabs vs {plan.naive_bytes / 1024:.0f} KiB "
          f"per-op ({plan.reuse_savings:.0%} saved)")

    # In-place scheduling: the residual adds and the ReLU overwrite their
    # dying inputs' slabs, and the program still runs bit-identically.
    inplace = Session(backend="vector", inplace=True)
    ragged_inplace = run_encoder_layer_numeric(hidden, weights, config,
                                               session=inplace)
    plan_ip = inplace.compile(program).plan
    identical = all(np.array_equal(a, b) for a, b in
                    zip(ragged.hidden, ragged_inplace.hidden))
    print(f"in-place plan bit-identical to double-buffered: {identical}; "
          f"in-place arena {plan_ip.arena_bytes / 1024:.0f} KiB "
          f"({plan_ip.inplace_values} values aliased in place, "
          f"{(plan.arena_bytes - plan_ip.arena_bytes) / 1024:.0f} KiB below "
          "the double-buffered plan)")

    # The whole *model* as one program: every layer of the stack is
    # declared in a single graph, so the planner's liveness spans layer
    # boundaries and layer k+1 reuses layer k's dead arena slabs -- peak
    # intermediate bytes stay near ONE layer's working set.
    stack = encoder_stack_program([h.shape[0] for h in hidden], weights,
                                  config, n_layers=config.num_layers,
                                  session=session)
    stack_plan = session.compile(stack).plan
    print(f"{config.num_layers}-layer stack: arena "
          f"{stack_plan.arena_bytes / 1024:.0f} KiB vs "
          f"{config.num_layers * plan.arena_bytes / 1024:.0f} KiB for "
          f"{config.num_layers} per-layer plans "
          f"({1 - stack_plan.arena_bytes / (config.num_layers * plan.arena_bytes):.0%} "
          "saved across layers)")

    # Serving: individual ragged requests, continuously batched.  The
    # scheduler buckets sequence lengths (tolerance 16, causal-masked) so
    # recurring raggedness signatures hit the compiled-program cache;
    # with overlap_demux the demultiplexing of each batch's outputs runs
    # on a background worker while the next batch executes.
    scheduler = BatchScheduler(weights, config, session=session, masked=True,
                               n_layers=config.num_layers, max_batch_size=4,
                               bucket_tolerance=16, overlap_demux=True)
    request_stream = [
        rng.standard_normal((int(n), config.hidden_size)).astype(np.float32)
        for n in sample_lengths("MNLI", 16, seed=2) // 4 + 4
    ]
    scheduler.submit_many(request_stream)
    responses = scheduler.drain()
    stats = scheduler.stats()
    print(f"served {stats['num_completed']} requests in "
          f"{stats['num_batches']} batches: "
          f"{stats['signature_hits']} signature hits / "
          f"{stats['program_compiles']} compiles, "
          f"{stats['padding_overhead']:.1%} padding overhead, "
          f"first response shape {responses[0].shape}")

    # Fully padded dense reference.
    max_len = int(max(lengths))
    dense_in = np.zeros((len(lengths), max_len, config.hidden_size), np.float32)
    for b, h in enumerate(hidden):
        dense_in[b, :h.shape[0]] = h
    dense = run_encoder_layer_dense_reference(dense_in, lengths, weights, config)

    worst = max(
        float(np.abs(ragged.hidden[b] - dense[b, :int(n)]).max())
        for b, n in enumerate(lengths)
    )
    print(f"max |ragged - dense reference| over valid region: {worst:.2e}")

    # Simulated latency comparison at paper scale.
    print("\nSimulated V100 latency of one encoder layer (paper hyperparameters):")
    model = CostModel(v100_gpu())
    paper_lengths = sample_lengths("MNLI", 128, seed=0)
    for strategy in ("pytorch", "ft", "ft-eff", "cora"):
        workload = encoder_layer_workload(paper_lengths, strategy)
        latency = model.latency_ms(workload)
        print(f"  {strategy:>8s}: {latency:7.2f} ms   "
              f"({len(workload.kernels)} kernels, "
              f"{workload.total_flops() / 1e9:.1f} GFLOP)")


if __name__ == "__main__":
    main()
