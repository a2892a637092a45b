"""repro: a Python reproduction of the CoRa tensor compiler (MLSys 2022).

CoRa is a tensor compiler for *ragged* tensors -- tensors whose inner
dimensions have per-slice variable sizes (e.g. a mini-batch of sentences of
different lengths).  Instead of padding every sequence to the maximum length
(the strategy used by dense tensor compilers and vendor libraries), CoRa
generates code that iterates only over the valid, densely packed data, with
a small amount of user-controlled padding where it helps vectorization.

The package is organised as follows:

``repro.core``
    The compiler itself: named dimensions, extents (uninterpreted length
    functions), the dimension graph, ragged storage layouts and their O(1)
    access lowering, prelude generation (auxiliary arrays), the operator
    description API, scheduling primitives, bounds inference, the loop-nest
    IR, lowering and Python code generation, and the executor.  On top of
    single operators sits the *ragged program graph runtime*: a
    :class:`Program` graph of scheduled operators, the liveness/arena
    planner (:mod:`repro.core.planner`) with optional in-place slab
    sharing for element-wise nodes, and the :class:`Session`, which
    compiles a whole program ahead of time for one raggedness signature
    and executes repeated mini-batches with one flat dispatch loop
    (:mod:`repro.core.engine`) over reusable arena buffers; heavy steps
    run as one chunk per core (:mod:`repro.core.parallel`).

``repro.substrates``
    Simulated hardware devices (GPU-like and CPU-like) and the analytical
    cost model used to report latencies in the benchmark harness.

``repro.ops``
    A library of ragged operators built on the core: elementwise ops,
    variable-sized batched gemm (vgemm), triangular matrix ops (trmm,
    tradd, trmul), ragged softmax, layer normalisation, the attention
    operators (QKT, AttnV, masked SDPA) and fused-vloop projections.

``repro.baselines``
    The execution strategies CoRa is compared against in the paper:
    fully padded dense execution (PyTorch / TensorFlow / FasterTransformer),
    the partially padded FT-Eff pipeline, micro-batched execution (TF-UB /
    PT-UB) and a Taco-like sparse-compiler baseline using CSR / BCSR.

``repro.serving``
    The serving front end: a request queue and a continuous-batching
    scheduler that groups incoming ragged sequences by raggedness
    signature (optionally padding within a bucket tolerance) to maximise
    compiled-program reuse across mini-batches.

``repro.models``
    The transformer encoder layer and multi-head attention module assembled
    from CoRa operators, with equivalent baseline implementations.

``repro.data``
    Synthetic sequence-length workload generators matched to the NLP
    datasets used in the paper's evaluation (Table 3).

``repro.analysis``
    Analytical FLOP and memory models used for Figures 2, 19 and 22.
"""

from repro.core.dims import Dim
from repro.core.errors import (
    CompileError,
    CoraError,
    DeadlineExceeded,
    ExecutionError,
    QueueFull,
)
from repro.core.extents import ConstExtent, Extent, VarExtent
from repro.core.ragged_tensor import RaggedTensor
from repro.core.storage import RaggedLayout
from repro.core.operator import RaggedOperator, compute, input_tensor, placeholder
from repro.core.schedule import Schedule
from repro.core.codegen import CodegenBackend, ScalarBackend, get_backend
from repro.core.codegen_vector import VectorBackend
from repro.core.engine import ExecutionEngine
from repro.core.executor import Executor
from repro.core.planner import ProgramPlan, plan_program
from repro.core.program import Program, ProgramError
from repro.core.session import CompiledProgram, Session, default_session
from repro.serving import (
    BatchScheduler,
    FailedResult,
    FaultInjector,
    Request,
    RequestQueue,
    RequestState,
)

__version__ = "0.1.0"

__all__ = [
    "Dim",
    "Extent",
    "ConstExtent",
    "VarExtent",
    "RaggedTensor",
    "RaggedLayout",
    "RaggedOperator",
    "compute",
    "input_tensor",
    "placeholder",
    "Schedule",
    "CodegenBackend",
    "ScalarBackend",
    "VectorBackend",
    "get_backend",
    "Executor",
    "ExecutionEngine",
    "Program",
    "ProgramError",
    "ProgramPlan",
    "plan_program",
    "Session",
    "CompiledProgram",
    "default_session",
    "BatchScheduler",
    "Request",
    "RequestQueue",
    "RequestState",
    "FaultInjector",
    "FailedResult",
    "CoraError",
    "CompileError",
    "ExecutionError",
    "DeadlineExceeded",
    "QueueFull",
    "__version__",
]
