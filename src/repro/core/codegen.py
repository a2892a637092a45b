"""Code generation: from a :class:`~repro.core.lowering.LoweredKernel` to
executable Python.

Code generation is organised around *backends* behind a common
:class:`CodegenBackend` boundary (mirroring how real ragged compilers keep a
slow reference emitter next to the fast production one):

* :class:`ScalarBackend` -- this module.  The generated code is the Python
  analogue of the C / CUDA C++ CoRa emits: scalar loops over the (constant
  or table-driven) bounds, with ragged tensor accesses lowered to
  flat-buffer offsets through the prelude-built auxiliary arrays.  It
  handles every lowered construct and serves as the reference for
  differential testing.
* :class:`~repro.core.codegen_vector.VectorBackend` -- collapses the inner
  constant / table-bound loops and the reduction loops into NumPy
  ``matmul`` / ufunc / reduce operations computed straight into views of
  the flat buffers, falling back to the scalar backend for constructs it
  cannot vectorize.

The generated source is kept readable on purpose -- it is part of the
public surface (``CompiledKernel.source``) and several tests assert
properties of it (e.g. that a fused kernel indexes the ``ffo`` fusion map,
or that padded loops carry no bound checks).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import LRUDict
from repro.core.dims import Dim
from repro.core.errors import LoweringError
from repro.core.ir import (
    Annotation,
    BinOp,
    Call,
    Const,
    Expr,
    LoopKind,
    LoopVar,
    Reduce,
    TensorAccess,
    reductions_in,
)
from repro.core.lowering import BoundSpec, LoweredKernel, LoopSpec, TensorPlan


_INTRINSICS = {
    "exp": "math.exp",
    "sqrt": "math.sqrt",
    "tanh": "math.tanh",
    "log": "math.log",
}


@dataclass
class GeneratedKernel:
    """The generated source plus the compiled callable.

    A generated kernel is a pure function of ``(buffers, aux)``: nothing
    in its source or namespace names an instance length, so one object
    serves every raggedness signature of its *structure* (see
    :func:`kernel_structure`).  ``decisions`` and ``prelude`` are what a
    new instance needs to check and to build before it may share the
    kernel (:mod:`repro.core.codegen_vector`).

    ``backend`` records which backend actually emitted the kernel -- for a
    :class:`~repro.core.codegen_vector.VectorBackend` request that hit an
    unvectorizable construct it reads ``"scalar"`` (the fallback), which is
    how tests and benchmarks observe fallback decisions.
    """

    name: str
    source: str
    fn: object
    backend: str = "scalar"
    #: why a vector-backend request fell back to scalar (``None`` otherwise)
    fallback_reason: Optional[str] = None
    #: the kernel writes every element of its output buffer(s) -- loop
    #: region plus any storage padding -- so callers need not pre-zero them
    fills_output: bool = False
    #: float32 elements of scratch a fused-region kernel expects as
    #: ``buffers["ws"]`` (private to the call site; 0 = none) -- set per
    #: instance, on a copy of the shared kernel
    workspace_elements: int = 0
    #: the length-dependent checks the emitter made, with their outcomes:
    #: the kernel is valid for exactly the instances that repeat them
    decisions: Tuple = ()
    #: recipe of the per-instance aux entries the kernel reads beyond the
    #: lowered tables (bucket partition, workspace offsets); ``None`` = none
    prelude: Optional[Tuple] = None

    def __call__(self, buffers: Dict[str, np.ndarray], aux: Dict[str, np.ndarray]) -> None:
        self.fn(buffers, aux)


class _Emitter:
    """Accumulates indented Python source lines."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def push(self) -> None:
        self.indent += 1

    def pop(self) -> None:
        self.indent -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class KernelStructure:
    """What the process has compiled of one kernel structure: the
    lowering of its first instance (the loop nest every later instance
    shares, ``None`` for fused regions) and the kernels generated for it,
    one per distinct set of emitter decisions."""

    lowered: Optional[LoweredKernel] = None
    kernels: Tuple[GeneratedKernel, ...] = ()
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def kernel(self, holds: Callable[[Tuple], bool],
               generate: Callable[[], GeneratedKernel],
               ) -> Tuple[GeneratedKernel, bool]:
        """The kernel whose recorded decisions ``holds`` confirms for the
        instance at hand, and whether it was there already: when none is,
        it is generated -- once, by whichever executor asks first."""
        with self._lock:
            for generated in self.kernels:
                if holds(generated.decisions):
                    return generated, True
            generated = generate()
            self.kernels += (generated,)
            return generated, False


#: The process-wide kernel table, by structure key.  Bounded; shared by
#: every executor, the plain and the fused emitter and the AOT disk tier.
_STRUCTURES: "LRUDict[object, KernelStructure]" = LRUDict(1024)
_STRUCTURES_LOCK = threading.Lock()


def kernel_structure(key: object) -> KernelStructure:
    """The table's (possibly still empty) entry for structure ``key``."""
    with _STRUCTURES_LOCK:
        entry = _STRUCTURES.get(key)
        if entry is None:
            entry = KernelStructure()
            _STRUCTURES.put(key, entry)
        return entry


def clear_structures() -> None:
    """Forget every compiled structure (tests; a cold process)."""
    with _STRUCTURES_LOCK:
        _STRUCTURES.clear()


class CodeGenerator:
    """Generates a Python kernel function for a lowered ragged operator."""

    def __init__(self, kernel: LoweredKernel):
        self.kernel = kernel
        self._var_of_dim: Dict[Dim, str] = {}
        self._reduce_temps: Dict[int, str] = {}

    # -- public API -----------------------------------------------------------

    def generate(self) -> GeneratedKernel:
        source = self.generate_source()
        namespace: Dict[str, object] = {"math": math, "np": np}
        exec(compile(source, f"<cora:{self.kernel.name}>", "exec"), namespace)
        fn = namespace[self._fn_name()]
        return GeneratedKernel(name=self.kernel.name, source=source, fn=fn)

    def generate_source(self) -> str:
        em = _Emitter()
        em.emit(f"def {self._fn_name()}(buffers, aux):")
        em.push()
        em.emit(f'"""Generated CoRa kernel for operator {self.kernel.name!r}."""')
        # Bind buffers to locals for readability and speed.
        out_name = self.kernel.output_plan.spec.name
        em.emit(f"_buf_{self._safe(out_name)} = buffers[{out_name!r}]")
        for name in self.kernel.input_plans:
            em.emit(f"_buf_{self._safe(name)} = buffers[{name!r}]")
        for name in sorted(self.kernel.aux_arrays):
            em.emit(f"_aux_{self._safe(name)} = aux[{name!r}]")
        em.emit()
        self._emit_loops(em, 0)
        em.pop()
        return em.source()

    # -- naming ---------------------------------------------------------------

    def _fn_name(self) -> str:
        return f"cora_kernel_{self._safe(self.kernel.name)}"

    @staticmethod
    def _safe(name: str) -> str:
        return "".join(c if c.isalnum() or c == "_" else "_" for c in name)

    # -- loop emission -----------------------------------------------------------

    def _bound_code(self, bound: BoundSpec) -> str:
        if bound.is_const:
            # An instance-count bound is read at run time, not named.
            return (f"int(_aux_{self._safe(bound.table_name)})"
                    if bound.table_name else str(bound.value))
        gov_code = self._dim_code(bound.governing)
        return f"int(_aux_{self._safe(bound.table_name)}[{gov_code}])"

    def _emit_loops(self, em: _Emitter, index: int) -> None:
        if index == len(self.kernel.loops):
            self._emit_body(em)
            return
        loop = self.kernel.loops[index]
        var = loop.var
        bound_code = self._bound_code(loop.bound)
        if loop.remap_name is not None:
            raw = f"{var}_raw"
            em.emit(f"for {raw} in range({bound_code}):")
            em.push()
            em.emit(f"{var} = int(_aux_{self._safe(loop.remap_name)}[{raw}])")
        else:
            em.emit(f"for {var} in range({bound_code}):")
            em.push()
        self._var_of_dim[loop.dim] = var
        if loop.fusion is not None:
            fmap = loop.fusion.map_name
            outer_var = f"_rec_{self._safe(loop.fusion.outer_dim.name)}"
            inner_var = f"_rec_{self._safe(loop.fusion.inner_dim.name)}"
            em.emit(f"{outer_var} = int(_aux_{self._safe(fmap + '_ffo')}[{var}])")
            em.emit(f"{inner_var} = {var} - int(_aux_{self._safe(fmap + '_row')}[{outer_var}])")
            self._var_of_dim[loop.fusion.outer_dim] = outer_var
            self._var_of_dim[loop.fusion.inner_dim] = inner_var
        if loop.guard is not None:
            guard = loop.guard
            outer_code = self._var_for_guard(guard.outer_var_dim)
            inner_code = self._var_for_guard(guard.inner_var_dim)
            bound = self._bound_code(guard.bound)
            em.emit(f"if {outer_code} * {guard.factor} + {inner_code} < {bound}:")
            em.push()
            self._emit_loops(em, index + 1)
            em.pop()
        else:
            self._emit_loops(em, index + 1)
        em.pop()

    def _var_for_guard(self, dim: Dim) -> str:
        for loop in self.kernel.loops:
            if loop.dim is dim:
                return loop.var
        raise LoweringError(f"guard references unknown loop {dim.name}")

    # -- dim value recovery ----------------------------------------------------------

    def _dim_code(self, dim: Dim) -> str:
        """Python expression giving the value of original dimension ``dim``."""
        if dim in self._var_of_dim:
            return self._var_of_dim[dim]
        recovery = self.kernel.dim_recovery.get(dim)
        if recovery is None:
            raise LoweringError(f"no way to recover dimension {dim.name}")
        kind = recovery[0]
        if kind == "loop":
            return recovery[1]
        if kind == "split":
            _, outer_var, inner_var, factor = recovery
            return f"({outer_var} * {factor} + {inner_var})"
        if kind in ("fused_outer", "fused_inner"):
            # The recovery variable is assigned when the fused loop is
            # emitted, so by the time the body needs it, it is in scope.
            name = dim.name
            return f"_rec_{self._safe(name)}"
        raise LoweringError(f"unknown recovery kind {kind!r}")

    # -- body emission -------------------------------------------------------------------

    def _emit_body(self, em: _Emitter) -> None:
        # Reductions first: each becomes an accumulator loop.
        self._reduce_temps = {}
        for i, red in enumerate(reductions_in(self.kernel.body)):
            temp = f"_red{i}"
            self._reduce_temps[id(red)] = temp
            init = "float('-inf')" if red.combiner == "max" else repr(float(red.init))
            em.emit(f"{temp} = {init}")
            closes = 0
            for axis in red.axes:
                bound = self.kernel.reduction_bounds[axis.dim]
                var = f"_r_{self._safe(axis.dim.name)}"
                self._var_of_dim[axis.dim] = var
                em.emit(f"for {var} in range({self._bound_code(bound)}):")
                em.push()
                closes += 1
            body_code = self._expr_code(red.body)
            if red.combiner == "sum":
                em.emit(f"{temp} = {temp} + {body_code}")
            elif red.combiner == "max":
                em.emit(f"{temp} = max({temp}, {body_code})")
            elif red.combiner == "min":
                em.emit(f"{temp} = min({temp}, {body_code})")
            else:
                raise LoweringError(f"unknown reduction combiner {red.combiner!r}")
            for _ in range(closes):
                em.pop()
        value_code = self._expr_code(self.kernel.body)
        store_code = self._output_offset_code()
        out = f"_buf_{self._safe(self.kernel.output_plan.spec.name)}"
        em.emit(f"{out}[{store_code}] = {value_code}")

    # -- expressions -----------------------------------------------------------------------

    def _expr_code(self, expr: Expr) -> str:
        if isinstance(expr, Reduce):
            return self._reduce_temps[id(expr)]
        if isinstance(expr, Const):
            return repr(float(expr.value))
        if isinstance(expr, LoopVar):
            return self._dim_code(expr.dim)
        if isinstance(expr, BinOp):
            lhs, rhs = self._expr_code(expr.lhs), self._expr_code(expr.rhs)
            if expr.op == "max":
                return f"max({lhs}, {rhs})"
            if expr.op == "min":
                return f"min({lhs}, {rhs})"
            return f"({lhs} {expr.op} {rhs})"
        if isinstance(expr, Call):
            args = ", ".join(self._expr_code(a) for a in expr.args)
            if expr.fn == "relu":
                return f"max(0.0, {args})"
            fn = _INTRINSICS.get(expr.fn)
            if fn is None:
                raise LoweringError(f"unknown intrinsic {expr.fn!r}")
            return f"{fn}({args})"
        if isinstance(expr, TensorAccess):
            return self._access_code(expr)
        raise LoweringError(f"cannot generate code for {expr!r}")

    def _access_code(self, access: TensorAccess) -> str:
        plan = self.kernel.input_plans.get(access.tensor.name)
        if plan is None:
            raise LoweringError(
                f"access to unknown tensor {access.tensor.name!r}"
            )
        idx_codes = [self._index_code(e) for e in access.indices]
        offset = self._offset_code(plan, idx_codes)
        return f"_buf_{self._safe(access.tensor.name)}[{offset}]"

    def _index_code(self, expr: Expr) -> str:
        """Integer-valued index expression."""
        if isinstance(expr, LoopVar):
            return self._dim_code(expr.dim)
        if isinstance(expr, Const):
            return str(int(expr.value))
        if isinstance(expr, BinOp):
            lhs, rhs = self._index_code(expr.lhs), self._index_code(expr.rhs)
            return f"({lhs} {expr.op} {rhs})"
        raise LoweringError(f"unsupported index expression {expr!r}")

    def _offset_code(self, plan: TensorPlan, idx_codes: Sequence[str]) -> str:
        if plan.is_ragged:
            row = f"_aux_{self._safe(plan.row_name)}"
            strides = f"_aux_{self._safe(plan.stride_name)}"
            b = idx_codes[0]
            parts = [f"int({row}[{b}])"]
            for col, idx in enumerate(idx_codes[1:]):
                parts.append(f"({idx}) * int({strides}[{b}, {col}])")
            return " + ".join(parts)
        parts = []
        for idx, stride in zip(idx_codes, plan.dense_strides):
            if stride == 1:
                parts.append(f"({idx})")
            else:
                parts.append(f"({idx}) * {stride}")
        return " + ".join(parts) if parts else "0"

    def _output_offset_code(self) -> str:
        plan = self.kernel.output_plan
        if self.kernel.output_dims_fused:
            # The store index is the fused loop variable followed by the
            # remaining (constant) dimensions.
            fused_loop = next(
                (l for l in self.kernel.loops if l.kind is LoopKind.FUSED), None
            )
            if fused_loop is None:
                raise LoweringError(
                    "output dimensions were fused but no fused loop exists"
                )
            remaining = [d for d in self.kernel.output_dims
                         if d not in (fused_loop.fusion.outer_dim,
                                      fused_loop.fusion.inner_dim)]
            idx_codes = [fused_loop.var] + [self._dim_code(d) for d in remaining]
            return self._offset_code(plan, idx_codes)
        idx_codes = [self._dim_code(d) for d in self.kernel.output_dims]
        return self._offset_code(plan, idx_codes)


# ---------------------------------------------------------------------------
# Backend boundary
# ---------------------------------------------------------------------------


class CodegenBackend:
    """Abstract boundary between lowering and kernel emission.

    A backend turns a :class:`LoweredKernel` into a
    :class:`GeneratedKernel`.  Backends must be stateless with respect to
    individual kernels so one instance can be shared by an executor across
    compilations.
    """

    name: str = "abstract"

    def generate(self, kernel: LoweredKernel) -> GeneratedKernel:
        raise NotImplementedError


class ScalarBackend(CodegenBackend):
    """The reference backend: one Python ``for`` statement per loop.

    Handles every construct lowering can produce (guards, remaps, fused
    loops, thread remapping); used directly and as the fallback target of
    the vector backend.
    """

    name = "scalar"

    def generate(self, kernel: LoweredKernel) -> GeneratedKernel:
        return CodeGenerator(kernel).generate()


def get_backend(backend: Union[str, CodegenBackend, None]) -> CodegenBackend:
    """Resolve a backend name (``"scalar"`` / ``"vector"``) or instance.

    ``None`` resolves to the default backend (``"vector"``), matching the
    :class:`~repro.core.executor.Executor` default, so callers forwarding an
    unset config value get the documented behaviour.
    """
    if isinstance(backend, CodegenBackend):
        return backend
    if backend == "scalar":
        return ScalarBackend()
    if backend is None or backend == "vector":
        from repro.core.codegen_vector import VectorBackend

        return VectorBackend()
    raise LoweringError(
        f"unknown codegen backend {backend!r}; expected 'scalar', 'vector' "
        "or a CodegenBackend instance"
    )


def generate(kernel: LoweredKernel) -> GeneratedKernel:
    """Generate and compile the Python kernel for a lowered operator."""
    return CodeGenerator(kernel).generate()
