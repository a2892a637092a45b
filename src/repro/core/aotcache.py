"""Persistent ahead-of-time kernel cache.

The in-process kernel cache (:class:`repro.core.executor.Executor`)
already makes re-compilation free *within* a process, but every fresh
process -- each CI shard, every :class:`ProcessPoolEngine` worker, every
cold serving replica -- re-lowers and re-``exec``\\ s every kernel from
scratch.  CoRa's central premise (raggedness is known *before*
execution, so compilation can be hoisted out of the hot path entirely)
extends across processes: for a given (operator, schedule, raggedness
signature, backend) the lowered kernel and its generated source are
deterministic, so they can be computed once per machine and reloaded
from disk forever after.

Keys must be *content*-based: the in-memory ``schedule_signature`` keys
on object identities (``id(op)``, ``Dim`` uids from a per-process
counter), which are meaningless in another process.
:func:`stable_schedule_fingerprint` instead canonicalises every ``Dim``
to its first-appearance index over a deterministic traversal and hashes
extents by their length-table bytes.  Anything whose behaviour cannot
be captured by content -- callable-backed extents, callable remap
policies -- raises :class:`Uncacheable` and the kernel simply skips the
disk tier (correctness never depends on cacheability).

Entries are pickled dicts written atomically (temp file +
``os.replace``) under ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; any
load failure (truncation, corruption, version skew, unpicklable
content) is treated as a miss, never an error -- but an entry that
exists and is rejected logs an ``aot_cache.entry_rejected`` event, so
the degradation to a recompile is visible.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.codegen import GeneratedKernel, compile_kernel_source
from repro.core.extents import ConstExtent, Extent, PaddedExtent, VarExtent
from repro.core.ir import (
    BinOp,
    Call,
    Const,
    Expr,
    LoopVar,
    Reduce,
    TensorAccess,
)
from repro.core.lowering import LoweredKernel
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout

_LOG = logging.getLogger(__name__)

#: Bump when the entry payload, the fingerprint scheme or the *generated
#: source* changes shape (a stale kernel must never be rebuilt against a
#: newer runtime).  2: store-through vector emission (kernels fill their
#: own outputs; new runtime helper signatures).
AOT_VERSION = 2


class Uncacheable(Exception):
    """The schedule depends on process state (callables) that a
    content-based fingerprint cannot capture."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


# ---------------------------------------------------------------------------
# Content-based fingerprints
# ---------------------------------------------------------------------------


class _Canon:
    """First-appearance canonical ids for ``Dim`` objects.

    ``Dim`` uids come from a per-process counter, so they cannot appear
    in a cross-process key; the traversal order below is deterministic,
    which makes first-appearance numbering stable.
    """

    def __init__(self) -> None:
        self._ids: Dict[object, int] = {}

    def dim(self, d) -> int:
        i = self._ids.get(d)
        if i is None:
            i = self._ids[d] = len(self._ids)
        return i


def _table_digest(table: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(table.shape).encode())
    h.update(np.ascontiguousarray(table).tobytes())
    return h.hexdigest()


def _extent_fp(ext: Extent, canon: _Canon) -> Tuple:
    if isinstance(ext, PaddedExtent):
        return ("pad", ext.multiple, _extent_fp(ext.base, canon))
    if isinstance(ext, ConstExtent):
        return ("const", ext.value)
    if isinstance(ext, VarExtent):
        if ext.table is None:
            raise Uncacheable(
                f"extent {ext.name!r} is callable-backed (no length table)")
        return ("var", canon.dim(ext.dep), ext.name, _table_digest(ext.table))
    raise Uncacheable(f"unknown extent type {type(ext).__name__}")


def _expr_fp(expr: Expr, canon: _Canon) -> Tuple:
    if isinstance(expr, Const):
        return ("c", float(expr.value))
    if isinstance(expr, LoopVar):
        return ("lv", canon.dim(expr.dim))
    if isinstance(expr, BinOp):
        return ("b", expr.op, _expr_fp(expr.lhs, canon),
                _expr_fp(expr.rhs, canon))
    if isinstance(expr, Call):
        return ("call", expr.fn,
                tuple(_expr_fp(a, canon) for a in expr.args))
    if isinstance(expr, TensorAccess):
        spec = expr.tensor
        return ("acc", spec.name,
                tuple(canon.dim(d) for d in spec.dims),
                tuple(_extent_fp(e, canon) for e in spec.extents),
                tuple(_expr_fp(i, canon) for i in expr.indices))
    if isinstance(expr, Reduce):
        return ("red", expr.combiner, float(expr.init),
                tuple((canon.dim(a.dim), _extent_fp(a.extent, canon))
                      for a in expr.axes),
                _expr_fp(expr.body, canon))
    raise Uncacheable(f"unknown expression type {type(expr).__name__}")


def _layout_fp(layout: RaggedLayout, canon: _Canon) -> Tuple:
    return (
        tuple(canon.dim(d) for d in layout.dims),
        tuple(_extent_fp(e, canon) for e in layout.base_extents),
        tuple(sorted((canon.dim(d), p)
                     for d, p in layout.storage_padding.items())),
    )


def stable_schedule_fingerprint(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]] = None,
) -> Tuple:
    """A cross-process-stable equivalent of ``schedule_signature``.

    Covers everything lowering reads: the operator (dims, extents, body
    expression, input specs), the full mutable schedule state, and the
    input-layout overrides.  Raises :class:`Uncacheable` when any part
    of that state is an arbitrary callable.
    """
    canon = _Canon()
    op = schedule.operator
    op_fp = (
        "op", op.name,
        tuple(canon.dim(d) for d in op.dims),
        tuple(_extent_fp(e, canon) for e in op.loop_extents),
        tuple(_extent_fp(e, canon) for e in op.storage_extents),
        _expr_fp(op.body, canon),
        tuple(("in", t.name, tuple(canon.dim(d) for d in t.dims),
               tuple(_extent_fp(e, canon) for e in t.extents))
              for t in op.inputs),
    )
    remaps = []
    for r in schedule.remaps:
        if not isinstance(r.policy, str):
            raise Uncacheable(
                f"remap policy on {r.dim.name!r} is a callable")
        remaps.append((canon.dim(r.dim), r.policy))
    sched_fp = (
        tuple(sorted((canon.dim(d), p)
                     for d, p in schedule.loop_padding.items())),
        tuple(sorted((canon.dim(d), p)
                     for d, p in schedule.storage_padding.items())),
        tuple(sorted(
            (name, tuple(sorted((canon.dim(d), p) for d, p in pads.items())))
            for name, pads in schedule.input_storage_padding.items())),
        tuple((canon.dim(s.original), canon.dim(s.outer),
               canon.dim(s.inner), s.factor) for s in schedule.splits),
        tuple((canon.dim(f.outer), canon.dim(f.inner), canon.dim(f.fused))
              for f in schedule.fusions),
        tuple((canon.dim(o), canon.dim(i))
              for o, i in schedule.dim_fusions),
        tuple(sorted((canon.dim(d), a.value)
                     for d, a in schedule.annotations.items())),
        tuple(remaps),
        tuple(canon.dim(d) for d in schedule.loop_order),
        schedule.hoist_loads,
    )
    layouts_fp = tuple(sorted(
        (name, _layout_fp(layout, canon))
        for name, layout in (input_layouts or {}).items()))
    return (op_fp, sched_fp, layouts_fp)


def kernel_cache_key(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]],
    backend: str,
) -> str:
    """The on-disk key (a sha256 hex digest) for one compiled kernel.

    Mixes in the payload version and the python / numpy versions: a
    pickled ``LoweredKernel`` or generated source is only guaranteed to
    rebuild under the toolchain that produced it.
    """
    fp = (
        AOT_VERSION,
        sys.version_info[:2],
        np.__version__,
        backend,
        stable_schedule_fingerprint(schedule, input_layouts),
    )
    return hashlib.sha256(repr(fp).encode()).hexdigest()


# ---------------------------------------------------------------------------
# The on-disk cache
# ---------------------------------------------------------------------------


class AOTCache:
    """Pickle-per-entry kernel store with atomic writes.

    Layout: ``<root>/kernels/<sha[:2]>/<sha>.pkl``.  All failure modes
    degrade to cache misses -- a corrupt, truncated or version-skewed
    entry is ignored (and left for a later store to overwrite), and an
    unwritable directory silently disables stores.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_failures = 0

    def _path(self, key: str) -> Path:
        return self.root / "kernels" / key[:2] / f"{key}.pkl"

    # -- entry (de)hydration -------------------------------------------------

    @staticmethod
    def _payload(lowered: LoweredKernel,
                 generated: GeneratedKernel) -> Dict[str, object]:
        return {
            "version": AOT_VERSION,
            "lowered": lowered,
            "source": generated.source,
            "fn_name": generated.fn.__name__,
            "backend": generated.backend,
            "fallback_reason": generated.fallback_reason,
            "fills_output": generated.fills_output,
            # Bucketed vector kernels close over their compile-time bucket
            # partition; rebuild needs it back in the namespace.
            "buckets": generated.fn.__globals__.get("_BUCKETS"),
        }

    @staticmethod
    def _rebuild(payload: Dict[str, object]) -> Tuple[LoweredKernel,
                                                      GeneratedKernel]:
        from repro.core.codegen_vector import KERNEL_NAMESPACE
        lowered = payload["lowered"]
        source = payload["source"]
        namespace: Dict[str, object] = {"math": math, **KERNEL_NAMESPACE}
        if payload.get("buckets") is not None:
            namespace["_BUCKETS"] = payload["buckets"]
        exec(compile_kernel_source(source, f"<cora-aot:{lowered.name}>"),
             namespace)
        fn = namespace[payload["fn_name"]]
        generated = GeneratedKernel(
            name=lowered.name, source=source, fn=fn,
            backend=payload["backend"],
            fallback_reason=payload.get("fallback_reason"),
            fills_output=payload["fills_output"])
        return lowered, generated

    # -- public API ----------------------------------------------------------

    def load(self, key: str) -> Optional[Tuple[LoweredKernel, GeneratedKernel]]:
        """Fetch and rebuild a kernel, or ``None`` on any miss/failure."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            version = payload.get("version") \
                if isinstance(payload, dict) else None
            if version != AOT_VERSION:
                raise ValueError(
                    f"entry version {version!r}, expected {AOT_VERSION}")
            result = self._rebuild(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:
            self.misses += 1
            _LOG.warning(
                "aot_cache.entry_rejected key=%s reason=%s: %s",
                key[:12], type(exc).__name__, exc,
                extra={"event": "aot_cache.entry_rejected", "key": key})
            return None
        self.hits += 1
        return result

    def store(self, key: str, lowered: LoweredKernel,
              generated: GeneratedKernel) -> bool:
        """Persist a kernel atomically; ``False`` (never raise) on failure.

        Unpicklable lowered kernels -- e.g. callable-backed extents that
        slipped past fingerprinting, or closure-carrying generated code
        -- are simply skipped.
        """
        path = self._path(key)
        try:
            payload = pickle.dumps(self._payload(lowered, generated),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=f".{key[:8]}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            self.store_failures += 1
            return False
        self.stores += 1
        return True

    def stats(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_failures": self.store_failures,
        }
