"""Tunable schedule spaces.

Every schedule in the ``ops/`` modules was hand-picked: the split
factors, thread remaps and fusion choices are frozen constants chosen
once on one machine.  The paper's premise cuts the other way -- the best
schedule depends on the *raggedness* of the data (how skewed the
lengths are, how many instances, how much total work), which is known
before execution.  This module gives each op a declarative, enumerable
description of its schedule knobs so a search driver
(:mod:`repro.core.autotune`) can explore them, and a process-global
*policy* through which tuned winners (loaded from a
:class:`repro.core.scheduledb.ScheduleDB`) reach the op-level node
builders with zero search on the hot path.

Three pieces live here:

* :class:`TuneParam` / :class:`TunePoint` / :class:`TuneSpace` -- the
  space description.  A ``TunePoint`` serialises to plain JSON
  (``to_json`` / ``from_json``, after AMOS's ``Params``) so winners can
  be persisted per ``(op, raggedness bucket, backend)``.  The current
  hand-picked schedule is always the space's *default point*, so the
  default is a guaranteed-valid member of every space.
* the **op registry** -- op modules call :func:`register_tune_op` with
  callbacks to build the space, build a concrete :class:`Schedule` for
  a point, describe a point as a cost-model workload for analytical
  ranking, and generate measurement inputs.
* the **schedule policy** -- :func:`activate_policy` installs a
  process-global (db, backend) lookup; node builders consult
  :func:`applied_point` and fall back to the default schedule when no
  tuned point exists.  ``Session(tune=...)`` activates it for the
  session's lifetime.

The module also hosts the registry of the lens-bytes-keyed schedule
memos (``@lru_cache`` in the ops modules): each memo registers itself
via :func:`register_schedule_memo` and
:func:`schedule_memo_stats` exposes hit/size/cap per memo through
``Executor.codegen_stats()`` -- the caps bound what diverse production
traffic can pin in memory.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Raggedness signature buckets
# ---------------------------------------------------------------------------


def _ceil_pow2(n: int) -> int:
    n = int(n)
    if n <= 1:
        return max(n, 0) if n >= 0 else 0
    return 1 << (n - 1).bit_length()


def raggedness_bucket(lengths: Sequence[int]) -> Tuple[int, int, int]:
    """Bucket a raggedness signature to ``(batch, max_len, total_tokens)``,
    each rounded up to a power of two.

    Tuned schedules generalise across signatures with similar shape, so
    the schedule DB keys on this bucket rather than the exact lengths --
    one tuning run covers every signature that lands in the bucket.
    """
    lens = [int(x) for x in lengths]
    if not lens:
        return (0, 0, 0)
    return (_ceil_pow2(len(lens)), _ceil_pow2(max(lens)),
            _ceil_pow2(sum(lens)))


# ---------------------------------------------------------------------------
# The space description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuneParam:
    """One knob: a name and its finite choice set."""

    name: str
    choices: Tuple[object, ...]

    def __post_init__(self):
        if not self.choices:
            raise ValueError(f"tune param {self.name!r} has no choices")


class TunePoint(Mapping):
    """An immutable assignment of every param, JSON round-trippable."""

    def __init__(self, values: Mapping[str, object]):
        self._values = dict(values)
        self._key = tuple(sorted(self._values.items()))

    def __getitem__(self, name: str) -> object:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def key(self) -> Tuple:
        return self._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, TunePoint) and self._key == other._key

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._key)
        return f"TunePoint({inner})"

    def to_json(self) -> Dict[str, object]:
        return dict(self._values)

    @classmethod
    def from_json(cls, obj: Mapping[str, object]) -> "TunePoint":
        return cls(obj)

    def replace(self, **updates) -> "TunePoint":
        values = dict(self._values)
        values.update(updates)
        return TunePoint(values)


class TuneSpace:
    """An enumerable/sampleable cartesian space of :class:`TuneParam`
    choices with a guaranteed-valid default point (the hand-picked
    schedule the ops module ships today)."""

    def __init__(self, op: str, params: Sequence[TuneParam],
                 default: TunePoint):
        self.op = op
        self.params = tuple(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tune params in space for {op!r}")
        if not self.contains(default):
            raise ValueError(
                f"default point {default!r} is not a member of the "
                f"space for {op!r}")
        self.default = default

    def size(self) -> int:
        n = 1
        for p in self.params:
            n *= len(p.choices)
        return n

    def contains(self, point: TunePoint) -> bool:
        if set(point) != {p.name for p in self.params}:
            return False
        return all(point[p.name] in p.choices for p in self.params)

    def enumerate(self) -> List[TunePoint]:
        """Every point of the space, default first."""
        points = [self.default]
        for combo in itertools.product(*(p.choices for p in self.params)):
            point = TunePoint({p.name: v
                               for p, v in zip(self.params, combo)})
            if point != self.default:
                points.append(point)
        return points

    def sample(self, rng: random.Random, n: int) -> List[TunePoint]:
        """``n`` distinct points (default always included)."""
        points = self.enumerate()
        if n >= len(points):
            return points
        rest = points[1:]
        rng.shuffle(rest)
        return [points[0]] + rest[:max(n - 1, 0)]

    def neighbor(self, point: TunePoint, rng: random.Random) -> TunePoint:
        """Mutate one randomly chosen param to a different choice
        (epsilon-greedy refinement step)."""
        mutable = [p for p in self.params if len(p.choices) > 1]
        if not mutable:
            return point
        p = rng.choice(mutable)
        alternatives = [c for c in p.choices if c != point[p.name]]
        return point.replace(**{p.name: rng.choice(alternatives)})


# ---------------------------------------------------------------------------
# The op registry
# ---------------------------------------------------------------------------


@dataclass
class TuneOpSpec:
    """How the tuner interacts with one tunable op.

    ``space_fn(**ctx)`` builds the :class:`TuneSpace`;
    ``build_fn(point, lengths, **ctx)`` materialises a concrete
    ``Schedule`` for a point; ``launch_fn(point, lengths, **ctx)``
    describes the point as a cost-model :class:`Workload` for fast
    analytical pruning; ``inputs_fn(lengths, rng, **ctx)`` generates
    the measurement inputs for ``Executor.build_and_run``.  Chain-level
    ops (``kind="chain"``, e.g. the encoder's fuse on/off knob) have no
    single schedule -- the tuner measures them through a ``Session``.
    """

    name: str
    space_fn: Callable[..., TuneSpace]
    build_fn: Optional[Callable] = None
    launch_fn: Optional[Callable] = None
    inputs_fn: Optional[Callable] = None
    kind: str = "op"


_REGISTRY: Dict[str, TuneOpSpec] = {}


def register_tune_op(name: str, space_fn, build_fn=None, launch_fn=None,
                     inputs_fn=None, kind: str = "op") -> TuneOpSpec:
    spec = TuneOpSpec(name=name, space_fn=space_fn, build_fn=build_fn,
                      launch_fn=launch_fn, inputs_fn=inputs_fn, kind=kind)
    _REGISTRY[name] = spec
    return spec


def get_tune_op(name: str) -> TuneOpSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no tune space registered for op {name!r}; "
            f"known: {sorted(_REGISTRY)}") from None


def tune_space(name: str, **ctx) -> TuneSpace:
    return get_tune_op(name).space_fn(**ctx)


def tunable_ops() -> List[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# The process-global schedule policy
# ---------------------------------------------------------------------------


class SchedulePolicy:
    """Maps ``(op, lengths)`` to a tuned :class:`TunePoint` via a
    schedule DB, or ``None`` (use the hand-picked default)."""

    def __init__(self, db, backend: str):
        self.db = db
        self.backend = backend
        self.lookups = 0
        self.applied = 0

    def point_for(self, op: str, lengths: Sequence[int],
                  ) -> Optional[TunePoint]:
        if self.db is None:
            return None
        self.lookups += 1
        entry = self.db.get(op, raggedness_bucket(lengths), self.backend)
        if not entry:
            return None
        try:
            point = TunePoint.from_json(entry["point"])
        except Exception:
            return None
        self.applied += 1
        return point

    def stats(self) -> Dict[str, object]:
        return {"backend": self.backend, "lookups": self.lookups,
                "applied": self.applied}


_ACTIVE_POLICY: Optional[SchedulePolicy] = None


def activate_policy(db, backend: str) -> SchedulePolicy:
    """Install the process-global tuned-schedule lookup; returns the
    policy handle (pass it back to :func:`deactivate_policy`)."""
    global _ACTIVE_POLICY
    _ACTIVE_POLICY = SchedulePolicy(db, backend)
    return _ACTIVE_POLICY


def deactivate_policy(policy: Optional[SchedulePolicy] = None) -> None:
    """Clear the global policy (only if ``policy`` still owns it)."""
    global _ACTIVE_POLICY
    if policy is None or _ACTIVE_POLICY is policy:
        _ACTIVE_POLICY = None


def active_policy() -> Optional[SchedulePolicy]:
    return _ACTIVE_POLICY


def applied_point(op: str, lengths: Sequence[int]) -> Optional[TunePoint]:
    """The tuned point for ``(op, lengths)`` under the active policy,
    or ``None`` when no policy is active / no winner is stored."""
    if _ACTIVE_POLICY is None:
        return None
    return _ACTIVE_POLICY.point_for(op, lengths)


# ---------------------------------------------------------------------------
# Schedule-memo registry (bounded lens-bytes-keyed LRU caches)
# ---------------------------------------------------------------------------


_SCHEDULE_MEMOS: Dict[str, Callable] = {}


def register_schedule_memo(name: str, fn: Callable) -> Callable:
    """Register an ``@lru_cache``-wrapped schedule memo for observability.

    The ops modules memoize schedules per lengths-bytes so the
    executor's kernel cache hits; the LRU ``maxsize`` bounds what
    diverse traffic can pin.  Registration makes cap/size/hit counts
    visible through ``Executor.codegen_stats()["schedule_memos"]``.
    """
    if not hasattr(fn, "cache_info"):
        raise TypeError(f"schedule memo {name!r} is not lru_cache-wrapped")
    _SCHEDULE_MEMOS[name] = fn
    return fn


def schedule_memo_stats() -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for name, fn in sorted(_SCHEDULE_MEMOS.items()):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "size": info.currsize, "cap": info.maxsize}
    return out


__all__ = [
    "TuneParam",
    "TunePoint",
    "TuneSpace",
    "TuneOpSpec",
    "register_tune_op",
    "get_tune_op",
    "tune_space",
    "tunable_ops",
    "raggedness_bucket",
    "SchedulePolicy",
    "activate_policy",
    "deactivate_policy",
    "active_policy",
    "applied_point",
    "register_schedule_memo",
    "schedule_memo_stats",
]
