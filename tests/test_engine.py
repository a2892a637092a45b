"""The execution engine and the in-place differential property.

The engine is one flat loop over the compiled steps in plan order; a
subclass overriding ``execute`` observes dispatch (a tracer) and sees the
plan and the compiled program.  The hypothesis property pins what makes
the serial order sufficient: in-place plans stay bit-identical to
double-buffered plans across random ragged batches, masked and unmasked,
stack depths 1 / 2 / 4, with zero vector-backend fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ExecutionEngine, dispatch_step, get_engine
from repro.core.executor import Executor
from repro.core.program import Program
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    encoder_stack_program,
    run_encoder_stack_numeric,
)

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)


def _hidden(lengths, seed=0, config=SMALL):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(n), config.hidden_size))
            .astype(np.float32) for n in lengths]


def _bit_identical(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _double_program():
    p = Program("p")
    x = p.add_input("x", shape=(4,))
    p.add_host("double", lambda out, a: np.multiply(a, 2.0, out=out),
               [x], output_shapes={"y": (4,)})
    p.mark_output("y")
    return p


# ---------------------------------------------------------------------------
# Engine resolution and statistics
# ---------------------------------------------------------------------------


class _Recording(ExecutionEngine):
    """Records what a tracer reads: the plan order and the program."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def execute(self, steps, plan, context=None):
        self.seen.append((list(plan.order), context.program.name))
        for step in steps:
            dispatch_step(step)
        self.runs += 1
        self.steps_dispatched += len(steps)


class TestEngineResolution:
    def test_names_resolve(self):
        assert type(get_engine("serial")) is ExecutionEngine
        assert type(get_engine(None)) is ExecutionEngine

    def test_instance_passes_through(self):
        engine = _Recording()
        assert get_engine(engine) is engine
        session = Session(backend="vector", engine=engine,
                          executor=Executor(backend="vector"))
        out = session.run(_double_program(), {"x": np.ones(4, np.float32)})
        assert np.array_equal(out["y"], np.full(4, 2.0, np.float32))
        assert engine.seen == [([0], "p")]

    @pytest.mark.parametrize("name", ["warp-drive", "pipelined", "process"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError, match="'serial'"):
            get_engine(name)
        with pytest.raises(ValueError, match="'serial'"):
            Session(backend="vector", engine=name)
        with pytest.raises(TypeError):
            get_engine(42)

    def test_session_resolves_engine(self):
        session = Session(backend="vector")
        assert session.engine.name == "serial"
        assert session.stats()["engine"] == {
            "engine": "serial", "runs": 0, "steps_dispatched": 0}

    def test_stats_accumulate_and_reset(self):
        engine = ExecutionEngine()
        session = Session(backend="vector", engine=engine,
                          executor=Executor(backend="vector"))
        p = _double_program()
        session.run(p, {"x": np.ones(4, np.float32)})
        session.run(p, {"x": np.ones(4, np.float32)})
        assert engine.runs == 2
        assert engine.steps_dispatched == 2
        session.reset()
        assert engine.runs == 0 and engine.steps_dispatched == 0

    def test_one_instance_serves_several_sessions(self):
        engine = _Recording()
        sessions = [Session(backend="vector", engine=engine,
                            executor=Executor(backend="vector"), **mode)
                    for mode in ({}, {"inplace": True})]
        for session in sessions:
            session.run(_double_program(), {"x": np.ones(4, np.float32)})
            assert session.engine is engine
        assert engine.runs == 2 and engine.steps_dispatched == 2
        assert all(s.stats()["engine"]["runs"] == 2 for s in sessions)


class TestTracerHook:
    """What a tracing subclass relies on: one ``execute`` per run, with
    one step per planned node and the plan of the graph the steps
    index -- the fused program's under ``fuse=True``."""

    @pytest.mark.parametrize("mode", [{}, {"inplace": True},
                                      {"fuse": True}],
                             ids=["double", "inplace", "fuse"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_execute_sees_every_planned_step(self, mode, masked):
        engine = _Recording()
        session = Session(backend="vector", engine=engine,
                          executor=Executor(backend="vector"), **mode)
        hidden = _hidden((7, 3, 5), seed=4)
        ref = run_encoder_stack_numeric(hidden, _WEIGHTS, SMALL,
                                        masked=masked, session=_DOUBLE)
        got = run_encoder_stack_numeric(hidden, _WEIGHTS, SMALL,
                                        masked=masked, session=session)
        assert _bit_identical(ref.hidden, got.hidden)
        ((order, name),) = engine.seen
        compiled = session.compiled_program(encoder_stack_program(
            (7, 3, 5), _WEIGHTS, SMALL, masked=masked, session=session))
        plan = compiled.plan
        work = plan.fused_program if "fuse" in mode else compiled.program
        assert work is not None and name == compiled.program.name
        assert order == plan.order
        assert engine.steps_dispatched == len(order) == len(work.nodes)


# ---------------------------------------------------------------------------
# Differential property: in-place == double-buffered
# ---------------------------------------------------------------------------


_WEIGHTS = EncoderWeights.random(SMALL, seed=11)
_DOUBLE = Session(backend="vector", executor=Executor(backend="vector"))
_INPLACE = Session(backend="vector", executor=Executor(backend="vector"),
                   inplace=True)


class TestEngineDifferential:
    @settings(max_examples=8, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=12),
                            min_size=1, max_size=4),
           masked=st.booleans(),
           n_layers=st.sampled_from([1, 2, 4]))
    def test_inplace_bit_identical_to_double_buffered(self, lengths, masked,
                                                      n_layers):
        hidden = _hidden(lengths, seed=sum(lengths) + n_layers)
        ref = run_encoder_stack_numeric(hidden, _WEIGHTS, SMALL,
                                        masked=masked, n_layers=n_layers,
                                        session=_DOUBLE)
        got = run_encoder_stack_numeric(hidden, _WEIGHTS, SMALL,
                                        masked=masked, n_layers=n_layers,
                                        session=_INPLACE)
        assert _bit_identical(ref.hidden, got.hidden)
        for session in (_DOUBLE, _INPLACE):
            codegen = session.stats()["codegen"]
            assert codegen["fallbacks"] == 0, codegen["fallback_reasons"]

    def test_stack_depths_explicitly(self):
        # The non-random anchor of the property above: both masked
        # variants at every advertised depth.
        hidden = _hidden((7, 3, 5), seed=2)
        for masked in (False, True):
            for n_layers in (1, 2, 4):
                ref = run_encoder_stack_numeric(
                    hidden, _WEIGHTS, SMALL, masked=masked,
                    n_layers=n_layers, session=_DOUBLE)
                got = run_encoder_stack_numeric(
                    hidden, _WEIGHTS, SMALL, masked=masked,
                    n_layers=n_layers, session=_INPLACE)
                assert _bit_identical(ref.hidden, got.hidden)
