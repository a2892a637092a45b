"""Ragged elementwise operators.

Elementwise operators touch every valid element exactly once; on ragged
data they are the simplest demonstration of padding savings (Figure 1 of the
paper is an elementwise scale).  They are also the operators CoRa fuses with
the padding-change operators in the transformer pipeline (Figure 3).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.ragged_tensor import RaggedTensor
from repro.substrates.costmodel import KernelLaunch


def _apply(x: RaggedTensor, fn: Callable[[np.ndarray], np.ndarray]) -> RaggedTensor:
    out = RaggedTensor.zeros(x.layout, dtype=x.dtype)
    for b, view in x.iter_slices():
        out.valid_slice(b)[...] = fn(view)
    return out


def scale(x: RaggedTensor, alpha: float) -> RaggedTensor:
    """``y = alpha * x`` over the valid region (the Figure 1 operator)."""
    return _apply(x, lambda v: alpha * v)


def add(x: RaggedTensor, y: RaggedTensor) -> RaggedTensor:
    """Elementwise sum of two ragged tensors with identical raggedness."""
    out = RaggedTensor.zeros(x.layout, dtype=x.dtype)
    for b, view in x.iter_slices():
        out.valid_slice(b)[...] = view + y.valid_slice(b)[tuple(slice(0, s) for s in view.shape)]
    return out


def bias_add(x: RaggedTensor, bias: np.ndarray) -> RaggedTensor:
    """Add a per-feature bias (broadcast over the ragged dimensions)."""
    return _apply(x, lambda v: v + bias)


def relu(x: RaggedTensor) -> RaggedTensor:
    """Rectified linear unit over the valid region."""
    return _apply(x, lambda v: np.maximum(v, 0.0))


def gelu(x: RaggedTensor) -> RaggedTensor:
    """Gaussian error linear unit (tanh approximation)."""
    def _gelu(v: np.ndarray) -> np.ndarray:
        return 0.5 * v * (1.0 + np.tanh(0.7978845608 * (v + 0.044715 * v ** 3)))
    return _apply(x, _gelu)


def residual_add(x: RaggedTensor, residual: RaggedTensor) -> RaggedTensor:
    """``y = x + residual`` -- the residual connections of the encoder layer."""
    return add(x, residual)


# -- program-graph node builders -----------------------------------------------


def add_node(program: "Program", x: str, y: str, name: str = "add",
             out: str = None) -> str:
    """Append an elementwise sum of two dense values (residual adds).

    Declared element-wise in both inputs: ``np.add`` is alias-safe when
    its output buffer is one of its operands, so the planner may schedule
    the sum in place over whichever input dies here, sharing its arena
    slab instead of double-buffering.
    """
    def _add(out_mat, a, b):
        np.add(a, b, out=out_mat)

    (value,) = program.add_host(
        name, _add, [x, y],
        output_shapes={out or name: program.dense_shape_of(x)},
        fills_output=True, elementwise=(x, y), row_wise=True)
    return value


def relu_node(program: "Program", x: str, name: str = "relu",
              out: str = None) -> str:
    """Append a rectified linear unit over a dense value.

    Declared element-wise: ``np.maximum(a, 0.0, out=a)`` is alias-safe,
    so the activation may overwrite its input's slab in place when that
    input has no later reader.
    """
    def _relu(out_mat, a):
        np.maximum(a, 0.0, out=out_mat)

    (value,) = program.add_host(
        name, _relu, [x],
        output_shapes={out or name: program.dense_shape_of(x)},
        fills_output=True, elementwise=(x,), row_wise=True)
    return value


# -- workload description -----------------------------------------------------


def elementwise_launch(
    name: str,
    valid_elements: float,
    ops_per_element: float = 1.0,
    impl_class: str = "compiler",
    bytes_per_element: float = 8.0,
) -> KernelLaunch:
    """Describe an elementwise kernel over ``valid_elements`` elements."""
    return KernelLaunch(
        name=name,
        flops=valid_elements * ops_per_element,
        bytes_moved=valid_elements * bytes_per_element,
        impl_class=impl_class,
        parallel_tasks=max(int(valid_elements // 4096), 1),
    )


def padding_change_launch(name: str, elements_moved: float,
                          impl_class: str = "handopt") -> KernelLaunch:
    """A padding add/remove/change operator (pure data movement).

    FasterTransformer launches these as separate kernels; CoRa fuses them
    into the neighbouring computation (Figure 3 / Figure 12), in which case
    no launch is emitted at all.
    """
    return KernelLaunch(
        name=name,
        flops=0.0,
        bytes_moved=elements_moved * 8.0,
        impl_class=impl_class,
        parallel_tasks=max(int(elements_moved // 4096), 1),
    )
