"""Cost-model-guided schedule autotuning with a persistent schedule DB.

The acceptance criteria proven here:

* tuned schedules are **never slower** than the hand-picked defaults and
  every accepted point is **bit-identical** to the default's output;
* the :class:`~repro.core.scheduledb.ScheduleDB` round-trips through its
  JSON file (atomic writes, version-gated loads, corruption degrades to
  an empty DB);
* a **fresh process** opening the DB with ``Session(tune="load")`` and a
  warm AOT disk cache reaches the tuned configuration with *zero search
  iterations and zero kernel lowerings*;
* the serving feedback loop: live per-bucket traffic lands in the DB
  and a dominant bucket holds the adaptive tolerance steady.
"""

import json
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.autotune import AutoTuner, TuneResult
from repro.core.executor import Executor
from repro.core.scheduledb import ScheduleDB
from repro.core.session import Session
from repro.core.tunespace import (
    TuneParam,
    TunePoint,
    TuneSpace,
    activate_policy,
    applied_point,
    deactivate_policy,
    get_tune_op,
    raggedness_bucket,
    register_tune_op,
    schedule_memo_stats,
    tunable_ops,
)
from repro.models.config import TransformerConfig
from repro.models.transformer import EncoderWeights, encoder_stack_program

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)

LENGTHS = (5, 3, 7, 2)


def _tokens(lengths, seed=2, config=SMALL):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (sum(lengths), config.hidden_size)).astype(np.float32)


def _space():
    return TuneSpace("toy", [TuneParam("tile", (0, 2, 4)),
                             TuneParam("remap", (False, True))],
                     TunePoint({"tile": 0, "remap": False}))


# ---------------------------------------------------------------------------
# Tune spaces and points
# ---------------------------------------------------------------------------


class TestTuneSpace:
    def test_enumerate_default_first_and_complete(self):
        space = _space()
        points = space.enumerate()
        assert points[0] == space.default
        assert len(points) == space.size() == 6
        assert len(set(p.key() for p in points)) == 6
        assert all(space.contains(p) for p in points)

    def test_contains_rejects_foreign_points(self):
        space = _space()
        assert not space.contains(TunePoint({"tile": 3, "remap": False}))
        assert not space.contains(TunePoint({"tile": 0}))

    def test_sample_always_includes_default(self):
        space = _space()
        rng = random.Random(7)
        for n in (1, 2, 4):
            sample = space.sample(rng, n)
            assert sample[0] == space.default
            assert len(sample) <= max(n, 1)

    def test_neighbor_mutates_exactly_one_param(self):
        space = _space()
        rng = random.Random(3)
        for _ in range(20):
            nb = space.neighbor(space.default, rng)
            assert space.contains(nb)
            diffs = [k for k in nb if nb[k] != space.default[k]]
            assert len(diffs) == 1

    def test_point_json_round_trip(self):
        p = TunePoint({"tile": 4, "remap": True})
        assert TunePoint.from_json(p.to_json()) == p
        assert json.loads(json.dumps(p.to_json())) == p.to_json()

    def test_point_replace_and_hash(self):
        p = TunePoint({"tile": 4, "remap": True})
        q = p.replace(tile=0)
        assert q["tile"] == 0 and q["remap"] is True
        assert hash(p) == hash(TunePoint({"remap": True, "tile": 4}))

    def test_default_must_be_member(self):
        with pytest.raises(ValueError):
            TuneSpace("bad", [TuneParam("tile", (1, 2))],
                      TunePoint({"tile": 3}))

    def test_empty_choices_rejected(self):
        with pytest.raises(ValueError):
            TuneParam("tile", ())


class TestRaggednessBucket:
    def test_powers_of_two(self):
        batch, max_len, total = raggedness_bucket((5, 3, 7, 2))
        assert batch == 4 and max_len == 8 and total == 32
        for v in (batch, max_len, total):
            assert v & (v - 1) == 0

    def test_nearby_signatures_share_a_bucket(self):
        assert raggedness_bucket((5, 3, 7, 2)) \
            == raggedness_bucket((6, 2, 8, 1))

    def test_empty(self):
        assert raggedness_bucket(()) == (0, 0, 0)


class TestRegistry:
    def test_builtin_ops_registered(self):
        ops = tunable_ops()
        assert "qkt" in ops and "attnv" in ops and "encoder_chain" in ops

    def test_unknown_op_raises_with_known_list(self):
        with pytest.raises(KeyError, match="qkt"):
            get_tune_op("nope")

    def test_schedule_memos_bounded_and_exposed(self):
        stats = schedule_memo_stats()
        assert "vgemm.schedule" in stats
        # The SDPA builders share schedules per program graph, never per
        # length bytes process-wide (those memos thrashed under serving).
        assert not any(name.startswith(("attention.", "softmax."))
                       for name in stats)
        for info in stats.values():
            assert info["cap"] == 64
            assert info["size"] <= info["cap"]

    def test_executor_codegen_stats_include_memos(self):
        stats = Executor(backend="vector").codegen_stats()
        assert "vgemm.schedule" in stats["schedule_memos"]


# ---------------------------------------------------------------------------
# ScheduleDB persistence
# ---------------------------------------------------------------------------


class TestScheduleDB:
    def test_put_get_round_trip_across_instances(self, tmp_path):
        db = ScheduleDB(tmp_path)
        entry = {"point": {"tile": 2, "remap": True}, "tuned_s": 1e-4}
        db.put("qkt", (4, 8, 32), "vector", entry)
        again = ScheduleDB(tmp_path)
        got = again.get("qkt", (4, 8, 32), "vector")
        assert got["point"] == {"tile": 2, "remap": True}
        assert again.get("qkt", (8, 8, 32), "vector") is None

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        db = ScheduleDB(tmp_path)
        db.put("qkt", (4, 8, 32), "vector", {"point": {}})
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []
        assert db.path.exists()

    def test_corrupt_file_degrades_to_empty(self, tmp_path):
        db = ScheduleDB(tmp_path)
        db.put("qkt", (4, 8, 32), "vector", {"point": {}})
        db.path.write_text("{not json")
        fresh = ScheduleDB(tmp_path)
        assert fresh.get("qkt", (4, 8, 32), "vector") is None
        assert fresh.load_failures >= 1

    def test_traffic_and_dominance(self, tmp_path):
        db = ScheduleDB(tmp_path)
        for _ in range(6):
            db.record_traffic((4, 8, 32), 17, 20)
        db.record_traffic((8, 16, 64), 40, 44)
        top = db.top_buckets(2)
        assert top[0][0] == (4, 8, 32)
        assert top[0][1]["batches"] == 6
        assert db.dominant_share() == pytest.approx(6 / 7)

    def test_key_is_version_gated(self):
        assert "|v" in ScheduleDB.key("qkt", (4, 8, 32), "vector")


# ---------------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------------


class TestAutoTunerOp:
    def test_tuned_never_slower_and_bit_identical(self, tmp_path):
        db = ScheduleDB(tmp_path)
        tuner = AutoTuner(executor=Executor(backend="vector"), db=db,
                          repeats=3, refine_iters=3)
        for op, ctx in (("attnv", {}), ("qkt", {"scale": 0.3535})):
            result = tuner.tune_op(op, LENGTHS, heads=2, head_size=8, **ctx)
            assert result.tuned_s <= result.default_s
            assert result.bit_identical
            assert result.improvement >= 0.0
            entry = db.get(op, result.bucket, "vector")
            assert entry is not None
            assert TunePoint.from_json(entry["point"]) == result.point

    def test_chain_kind_rejected_at_op_level(self):
        tuner = AutoTuner(executor=Executor(backend="vector"))
        with pytest.raises(ValueError, match="tune_chain"):
            tuner.tune_op("encoder_chain", LENGTHS)

    def test_measured_points_recorded(self):
        tuner = AutoTuner(executor=Executor(backend="vector"),
                          repeats=2, refine_iters=2)
        result = tuner.tune_op("attnv", LENGTHS, heads=2, head_size=8)
        assert result.iterations >= 2
        assert len(result.measured) >= 2
        assert tuner.stats()["results"] == 1


class TestSchedulePolicy:
    def test_applied_point_inactive_is_none(self):
        deactivate_policy()
        assert applied_point("qkt", LENGTHS) is None

    def test_activated_policy_serves_stored_points(self, tmp_path):
        db = ScheduleDB(tmp_path)
        db.put("qkt", raggedness_bucket(LENGTHS), "vector",
               {"point": {"tile": 2, "remap": True}})
        policy = activate_policy(db, "vector")
        try:
            point = applied_point("qkt", LENGTHS)
            assert point == TunePoint({"tile": 2, "remap": True})
            assert applied_point("attnv", LENGTHS) is None
            assert policy.stats()["applied"] == 1
        finally:
            deactivate_policy(policy)
        assert applied_point("qkt", LENGTHS) is None

    def test_tuned_builders_stay_bit_identical(self, tmp_path):
        """An encoder run under an active tuned policy produces exactly
        the default run's bytes (the tuner only accepts bit-identical
        points, and these split/remap points are identical by
        construction)."""
        w = EncoderWeights.random(SMALL, seed=0)
        tokens = _tokens(LENGTHS)

        ref = Session(backend="vector")
        p = encoder_stack_program(LENGTHS, w, SMALL, masked=True, session=ref)
        out_ref = np.asarray(
            ref.run(p, {"tokens": tokens})["out_tokens"]).copy()
        ref.close()

        db = ScheduleDB(tmp_path)
        db.put("qkt", raggedness_bucket(LENGTHS), "vector",
               {"point": {"tile": 2, "remap": False}})
        db.put("attnv", raggedness_bucket(LENGTHS), "vector",
               {"point": {"tile": 2, "remap": True}})
        tuned = Session(backend="vector", tune="load", schedule_db=db)
        p2 = encoder_stack_program(LENGTHS, w, SMALL, masked=True,
                                   session=tuned)
        out_tuned = np.asarray(
            tuned.run(p2, {"tokens": tokens})["out_tokens"])
        assert tuned._policy.stats()["applied"] >= 2
        tuned.close()
        assert np.array_equal(out_ref, out_tuned)


class TestSessionTune:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="tune"):
            Session(tune="online")

    def test_tune_implies_schedule_db(self, tmp_path):
        s = Session(tune="load", schedule_db=str(tmp_path))
        assert isinstance(s.schedule_db, ScheduleDB)
        assert s.stats()["tune"]["mode"] == "load"
        s.close()

    def test_chain_fuse_override_counted(self, tmp_path):
        db = ScheduleDB(tmp_path)
        db.put("encoder_chain", raggedness_bucket(LENGTHS), "vector",
               {"point": {"fuse": True}})
        w = EncoderWeights.random(SMALL, seed=0)
        s = Session(backend="vector", tune="load", schedule_db=db)
        p = encoder_stack_program(LENGTHS, w, SMALL, masked=True, session=s)
        out = s.run(p, {"tokens": _tokens(LENGTHS)}, signature=LENGTHS)
        assert s.tuned_fuse_overrides == 1
        compiled = s.compiled_program(p)
        assert compiled.fuse is True

        ref = Session(backend="vector")
        p2 = encoder_stack_program(LENGTHS, w, SMALL, masked=True,
                                   session=ref)
        out_ref = ref.run(p2, {"tokens": _tokens(LENGTHS)})
        assert np.array_equal(np.asarray(out["out_tokens"]),
                              np.asarray(out_ref["out_tokens"]))
        ref.close()
        s.close()


# ---------------------------------------------------------------------------
# Cross-process: tuned warm start with zero search and zero lowerings
# ---------------------------------------------------------------------------


_CHILD = textwrap.dedent("""
    import sys
    import numpy as np
    from repro.core.session import Session
    from repro.models.config import TransformerConfig
    from repro.models.transformer import (EncoderWeights,
                                          encoder_stack_program)

    cfg = TransformerConfig(hidden_size=16, num_heads=2, head_size=8,
                            ff_size=32, num_layers=2, loop_pad=4, bulk_pad=8,
                            attention_tile=8)
    lengths = (5, 3, 7, 2)
    w = EncoderWeights.random(cfg, seed=0)
    session = Session(backend="vector", tune="load", schedule_db=sys.argv[1],
                      disk_cache=sys.argv[2])
    program = encoder_stack_program(lengths, w, cfg, masked=True,
                                    session=session)
    rng = np.random.default_rng(2)
    tokens = rng.standard_normal((sum(lengths), cfg.hidden_size)) \\
        .astype(np.float32)
    out = session.run(program, {"tokens": tokens}, signature=lengths)
    print("LOWERS", session.executor.lower_count)
    print("APPLIED", session._policy.stats()["applied"])
    print("FUSE_OVERRIDES", session.tuned_fuse_overrides)
    np.save(sys.argv[3], np.asarray(out["out_tokens"]))
""")


class TestCrossProcessTunedLoad:
    def test_fresh_process_starts_tuned_with_zero_search(self, tmp_path):
        """Tune offline against a shared AOT disk cache, then prove a
        fresh interpreter with ``tune="load"`` rebuilds the tuned
        configuration with zero lowerings, zero search iterations (no
        tuner exists in the child at all -- only DB lookups), and
        bit-identical output."""
        sdb_root = str(tmp_path / "sdb")
        aot_root = str(tmp_path / "aot")
        w = EncoderWeights.random(SMALL, seed=0)

        session = Session(backend="vector", tune="offline",
                          schedule_db=sdb_root, disk_cache=aot_root)
        tuner = AutoTuner(session=session, repeats=3, refine_iters=3)
        scale = 1.0 / float(np.sqrt(SMALL.head_size))
        tuner.tune_op("qkt", LENGTHS, heads=SMALL.num_heads,
                      head_size=SMALL.head_size, scale=scale)
        tuner.tune_op("attnv", LENGTHS, heads=SMALL.num_heads,
                      head_size=SMALL.head_size)
        tuner.tune_chain(LENGTHS, w, SMALL, masked=True)
        # The parent's own tuned run, for the bit-identity reference.
        program = encoder_stack_program(LENGTHS, w, SMALL, masked=True,
                                        session=session)
        tokens = _tokens(LENGTHS)
        out_ref = np.asarray(session.run(
            program, {"tokens": tokens},
            signature=LENGTHS)["out_tokens"]).copy()
        session.close()

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out_npy = tmp_path / "child.npy"
        result = subprocess.run(
            [sys.executable, "-c", _CHILD, sdb_root, aot_root, str(out_npy)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        values = {}
        for line in result.stdout.splitlines():
            parts = line.split()
            if len(parts) == 2:
                values[parts[0]] = int(parts[1])
        assert values["LOWERS"] == 0  # every kernel from the AOT cache
        assert values["APPLIED"] >= 2  # tuned points actually in effect
        assert np.array_equal(out_ref, np.load(out_npy))


# ---------------------------------------------------------------------------
# Serving feedback
# ---------------------------------------------------------------------------


class TestAdaptiveToleranceDominance:
    def test_dominant_bucket_holds_tolerance(self):
        from repro.serving.admission import AdaptiveTolerance

        controller = AdaptiveTolerance(max_tolerance=16)
        # Low hit rate would widen...
        assert controller.propose(2, hit_rate=0.1,
                                  padding_overhead=0.0) == 4
        # ...but a dominant bucket holds.
        assert controller.propose(2, hit_rate=0.1, padding_overhead=0.0,
                                  dominant_share=0.9) == 2
        # Below the dominance threshold, widening proceeds.
        assert controller.propose(2, hit_rate=0.1, padding_overhead=0.0,
                                  dominant_share=0.5) == 4
        # The padding budget is a hard constraint: narrow regardless.
        assert controller.propose(4, hit_rate=0.1, padding_overhead=0.9,
                                  dominant_share=0.9) == 2

    def test_dominance_hold_validated(self):
        from repro.serving.admission import AdaptiveTolerance

        with pytest.raises(ValueError, match="dominance_hold"):
            AdaptiveTolerance(dominance_hold=1.5)


class TestSchedulerTrafficRecording:
    def test_drain_records_bucket_traffic(self, tmp_path):
        from repro.serving.scheduler import BatchScheduler

        w = EncoderWeights.random(SMALL, seed=3)
        session = Session(backend="vector",
                          executor=Executor(backend="vector"))
        scheduler = BatchScheduler(w, SMALL, session=session, masked=True,
                                   n_layers=2, max_batch_size=4,
                                   schedule_db=str(tmp_path))
        rng = np.random.default_rng(5)
        for n in (5, 3, 7, 2, 6, 4):
            scheduler.submit(rng.standard_normal(
                (n, SMALL.hidden_size)).astype(np.float32))
        scheduler.drain()
        db = scheduler.schedule_db
        top = db.top_buckets()
        assert top, "no traffic recorded"
        assert sum(row["batches"] for _, row in top) \
            == scheduler.num_batches
        assert scheduler.stats()["traffic_dominant_share"] \
            == db.dominant_share()
        # Persisted: a fresh DB instance sees the traffic.
        db.save()
        assert ScheduleDB(tmp_path).top_buckets()
