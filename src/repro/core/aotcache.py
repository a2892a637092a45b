"""Persistent ahead-of-time kernel cache.

The in-process kernel cache (:class:`repro.core.executor.Executor`)
and the process-wide kernel table (:func:`repro.core.codegen.kernel_structure`)
already make generating a kernel a once-per-process cost, but every fresh
process -- each CI shard, every :class:`ProcessPoolEngine` worker, every
cold serving replica -- re-generates every kernel from scratch.  CoRa's
compile model (the operator is generated once; a mini-batch only runs the
host prelude that builds its auxiliary tables) extends across processes:
for a given kernel *structure* -- operator, schedule, backend, and the
emitter's length-dependent decisions -- the generated source is
deterministic, so it is generated once per machine and reloaded from disk
forever after, for every raggedness signature.

Keys must be *content*-based and *length-free*: the in-memory
``schedule_signature`` keys on object identities (``id(op)``, ``Dim``
uids from a per-process counter), which are meaningless in another
process and differ per mini-batch.  :func:`stable_schedule_fingerprint`
instead canonicalises every ``Dim`` to its first-appearance index over a
deterministic traversal, and describes a variable extent by its
dependence only -- never by its length table -- and a tensor's leading
extent (which counts instances) not at all.  Anything whose behaviour
cannot be captured by content -- callable-backed extents, callable remap
policies -- raises :class:`Uncacheable` and the kernel is simply
generated per instance (correctness never depends on cacheability).

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
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.codegen import GeneratedKernel
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
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout

_LOG = logging.getLogger(__name__)

#: Bump when the entry payload, the fingerprint scheme or the *generated
#: source* changes shape (a stale kernel must never be rebuilt against a
#: newer runtime).  2: store-through vector emission (kernels fill their
#: own outputs; new runtime helper signatures).  3: one entry per kernel
#: structure (no lowered kernel, no buckets; kernels read both from aux).
AOT_VERSION = 3


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
    which makes first-appearance numbering stable.  ``names`` lists the
    dims' names in that order: lowering names aux tables after them.
    """

    def __init__(self) -> None:
        self._ids: Dict[int, int] = {}
        self.names: List[str] = []

    def dim(self, d) -> int:
        i = self._ids.get(id(d))
        if i is None:
            i = self._ids[id(d)] = len(self.names)
            self.names.append(d.name)
        return i


def _extent_fp(ext: Extent, canon: _Canon, counts: bool = False) -> Tuple:
    """One extent; a constant that ``counts`` instances is read by the
    generated code at run time, so its value is not structure."""
    if isinstance(ext, PaddedExtent):
        return ("pad", ext.multiple, _extent_fp(ext.base, canon, counts))
    if isinstance(ext, ConstExtent):
        return ("const",) if counts else ("const", ext.value)
    if isinstance(ext, VarExtent):
        if ext.table is None:
            raise Uncacheable(
                f"extent {ext.name!r} is callable-backed (no length table)")
        return ("var", canon.dim(ext.dep), ext.name)
    raise Uncacheable(f"unknown extent type {type(ext).__name__}")


def _extents_fp(extents, canon: _Canon) -> Tuple:
    """A tensor's (or loop nest's) extents; the leading one counts
    instances."""
    return tuple(_extent_fp(e, canon, counts=i == 0)
                 for i, e in enumerate(extents))


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
        # (The tensor's dims and extents are described once, with the
        # operator's inputs.)
        return ("acc", expr.tensor.name,
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
        _extents_fp(layout.base_extents, canon),
        tuple(sorted((canon.dim(d), p)
                     for d, p in layout.storage_padding.items())),
    )


def stable_schedule_fingerprint(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]] = None,
) -> Tuple:
    """The kernel *structure* of a scheduled operator: a cross-process-
    stable, length-free equivalent of ``schedule_signature``.

    Covers everything lowering and emission read except the lengths: the
    operator (dims, extent kinds and constants, body expression, input
    specs), the full mutable schedule state, and the input-layout
    overrides.  Raises :class:`Uncacheable` when any part of that state
    is an arbitrary callable.
    """
    canon = _Canon()
    op = schedule.operator
    op_fp = (
        "op", op.name,
        tuple(canon.dim(d) for d in op.dims),
        _extents_fp(op.loop_extents, canon),
        _extents_fp(op.storage_extents, canon),
        _expr_fp(op.body, canon),
        tuple(("in", t.name, tuple(canon.dim(d) for d in t.dims),
               _extents_fp(t.extents, canon))
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
    return (op_fp, sched_fp, layouts_fp, tuple(canon.names))


def kernel_cache_key(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]],
    backend: str,
) -> str:
    """The on-disk key of one kernel structure (see :func:`disk_key`)."""
    return disk_key(
        (backend, stable_schedule_fingerprint(schedule, input_layouts)))


def disk_key(structure: Tuple) -> str:
    """The on-disk key (a sha256 hex digest) of a ``(backend,
    fingerprint)`` kernel structure.

    Mixes in the payload version and the python / numpy versions:
    generated source is only guaranteed to rebuild under the toolchain
    that produced it.
    """
    fp = (AOT_VERSION, sys.version_info[:2], np.__version__, *structure)
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
        #: ``(key, decisions)`` of the variants this process has read or
        #: written: storing one of them again is a no-op, not a file read
        self._persisted: Set[Tuple[str, Tuple]] = set()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_failures = 0

    def _path(self, key: str) -> Path:
        return self.root / "kernels" / key[:2] / f"{key}.pkl"

    # -- entry (de)hydration -------------------------------------------------

    @staticmethod
    def _variant(generated: GeneratedKernel) -> Dict[str, object]:
        return {
            "name": generated.name,
            "source": generated.source,
            "fn_name": generated.fn.__name__,
            "backend": generated.backend,
            "fallback_reason": generated.fallback_reason,
            "fills_output": generated.fills_output,
            "decisions": generated.decisions,
            "prelude": generated.prelude,
        }

    @staticmethod
    def _rebuild(variant: Dict[str, object]) -> GeneratedKernel:
        from repro.core.codegen_vector import KERNEL_NAMESPACE
        namespace: Dict[str, object] = {"math": math, **KERNEL_NAMESPACE}
        exec(compile(variant["source"], f"<cora-aot:{variant['name']}>",
                     "exec"), namespace)
        fields = {k: v for k, v in variant.items() if k != "fn_name"}
        return GeneratedKernel(fn=namespace[variant["fn_name"]], **fields)

    def _read(self, key: str) -> List[Dict[str, object]]:
        """The variants stored under ``key`` ([] when there is no entry;
        raises on a corrupt or version-skewed one)."""
        try:
            with open(self._path(key), "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return []
        version = payload.get("version") \
            if isinstance(payload, dict) else None
        if version != AOT_VERSION:
            raise ValueError(
                f"entry version {version!r}, expected {AOT_VERSION}")
        return list(payload["variants"])

    # -- public API ----------------------------------------------------------

    def load(self, key: str, holds: Callable[[Tuple], bool],
             ) -> Optional[GeneratedKernel]:
        """Fetch and rebuild the kernel of structure ``key`` whose recorded
        decisions ``holds`` confirms, or ``None`` on any miss/failure.
        (Asked once per structure and process: the executor keeps what it
        gets in the process-wide kernel table.)"""
        try:
            variant = next((v for v in self._read(key)
                            if holds(v["decisions"])), None)
            result = None if variant is None else self._rebuild(variant)
        except Exception as exc:
            self.misses += 1
            _LOG.warning(
                "aot_cache.entry_rejected key=%s reason=%s: %s",
                key[:12], type(exc).__name__, exc,
                extra={"event": "aot_cache.entry_rejected", "key": key})
            return None
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            self._persisted.add((key, result.decisions))
        return result

    def store(self, key: str, generated: GeneratedKernel) -> bool:
        """Persist a kernel atomically, next to the other decision
        variants of its structure; ``False`` when it is there already
        or (never raise) on failure."""
        if (key, generated.decisions) in self._persisted:
            return False
        path = self._path(key)
        try:
            try:
                variants = [v for v in self._read(key)
                            if v["decisions"] != generated.decisions]
            except Exception:
                variants = []       # a rejected entry is overwritten
            variants.append(self._variant(generated))
            payload = pickle.dumps(
                {"version": AOT_VERSION, "variants": variants},
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
        self._persisted.add((key, generated.decisions))
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
