"""Ragged layer normalisation.

Layer normalisation acts independently on each token's hidden vector, so on
ragged data it is a per-valid-token operation with no cross-sequence
interaction -- exactly the kind of operator that needs no padding at all
once the token dimension has been fused (Section 7.2).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.substrates.costmodel import KernelLaunch, layernorm_flops


def layernorm_slices(hidden: Sequence[np.ndarray],
                     gamma: np.ndarray, beta: np.ndarray,
                     eps: float = 1e-5) -> List[np.ndarray]:
    """Layer-normalise each per-sequence ``(length, hidden)`` matrix."""
    out = []
    for h in hidden:
        mean = h.mean(axis=-1, keepdims=True)
        var = h.var(axis=-1, keepdims=True)
        out.append((h - mean) / np.sqrt(var + eps) * gamma + beta)
    return out


def layernorm_flat(tokens: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                   eps: float = 1e-5) -> np.ndarray:
    """Layer-normalise a flat ``(total_tokens, hidden)`` matrix.

    This is the form used after vloop fusion: all valid tokens of the batch
    are packed contiguously.
    """
    mean = tokens.mean(axis=-1, keepdims=True)
    var = tokens.var(axis=-1, keepdims=True)
    return (tokens - mean) / np.sqrt(var + eps) * gamma + beta


# -- program-graph node builder -----------------------------------------------


def layernorm_node(program: "Program", tokens: str, gamma: np.ndarray,
                   beta: np.ndarray, eps: float = 1e-5,
                   name: str = "layernorm", out: str = None) -> str:
    """Append a packed-token layer normalisation to a program graph.

    ``tokens`` names a dense ``(total_tokens, hidden)`` value; gamma/beta
    become program constants and the host step computes
    :func:`layernorm_flat` -- the same operations in the same order, so
    bit-identical -- through ``out=`` ufuncs straight into the planned
    output buffer.  The only temporaries are the per-token mean and
    variance columns: the squared deviations are formed in the output
    buffer, which is then overwritten with the centred tokens again.
    """
    g = program.add_constant(f"{name}.gamma",
                             np.asarray(gamma, dtype=np.float32))
    b = program.add_constant(f"{name}.beta",
                             np.asarray(beta, dtype=np.float32))

    def _layernorm(out_mat, toks, g_vec, b_vec):
        n = toks.shape[-1]
        mean = np.add.reduce(toks, axis=-1, keepdims=True)
        np.true_divide(mean, n, out=mean)
        np.subtract(toks, mean, out=out_mat)
        np.multiply(out_mat, out_mat, out=out_mat)
        scale = np.add.reduce(out_mat, axis=-1, keepdims=True)
        np.true_divide(scale, n, out=scale)
        np.add(scale, eps, out=scale)
        np.sqrt(scale, out=scale)
        np.subtract(toks, mean, out=out_mat)
        np.divide(out_mat, scale, out=out_mat)
        np.multiply(out_mat, g_vec, out=out_mat)
        np.add(out_mat, b_vec, out=out_mat)

    (value,) = program.add_host(
        name, _layernorm, [tokens, g, b],
        output_shapes={out or name: program.dense_shape_of(tokens)},
        fills_output=True, row_wise=True)
    return value


def layernorm_launch(total_tokens: float, hidden: int,
                     impl_class: str = "compiler",
                     name: str = "LayerNorm") -> KernelLaunch:
    """Describe a layer-normalisation kernel over ``total_tokens`` tokens."""
    flops = layernorm_flops(total_tokens, hidden)
    return KernelLaunch(
        name=name,
        flops=flops,
        bytes_moved=total_tokens * hidden * 8.0,
        impl_class=impl_class,
        parallel_tasks=max(int(total_tokens), 1),
    )
