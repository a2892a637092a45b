"""The host side's prelude: slice views resolved once per ragged value.

A :class:`RaggedTensor` resolves the storage view and the valid view of
each slice through its layout at most once for its ``(layout, data)`` pair
and indexes that table afterwards.  The wrappers a compiled program hands
its host nodes live as long as the program does, so these tests pin:

* **steady state**: after one run, ``Session.run`` of an encoder stack
  makes no ``RaggedLayout.slice_bounds`` / ``slice_shape`` /
  ``RaggedTensor.valid_slice_shape`` call on any engine or plan variant;
* **same answer**: outputs are bit for bit those of the un-memoised
  addressing, from poisoned arenas, and agree with the float64 reference;
* **same memory**: on random layouts the memoised views alias exactly
  what the layout arithmetic addresses, in any call order;
* **lifetime**: the table lives and dies with its tensor -- an evicted
  program is collectable, rebinding ``data`` drops the table, copies and
  pickles carry none of it, and a one-shot tensor pays no extra layout
  work for having one.
"""

import gc
import pickle
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dims import Dim
from repro.core.extents import ConstExtent, VarExtent
from repro.core.ragged_tensor import RaggedTensor
from repro.core.session import Session
from repro.core.storage import RaggedLayout
from repro.models.transformer import build_encoder_stack_program

from test_store_through import (
    ORACLE_TOL,
    SMALL,
    dense_reference_f64,
    make_weights,
    packed_tokens,
)

LAYERS = [make_weights(SMALL, 0), make_weights(SMALL, 1)]

#: duplicate lengths, singletons, a 1x1 attention, odd sizes, one sequence.
SIGNATURES = [[5, 3, 7], [6, 6, 2, 1], [1], [9, 4, 9, 4, 9], [11, 2],
              [3, 3, 3, 3, 3, 3, 3, 3]]

SESSIONS = {
    "plain": dict(),
    "fuse": dict(fuse=True),
    "inplace": dict(inplace=True),
}


def layout_calls(monkeypatch):
    """Count every call into the layout arithmetic a slice view needs."""
    counts = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(RaggedLayout, "slice_bounds")
    counted(RaggedLayout, "slice_shape")
    counted(RaggedTensor, "valid_slice_shape")
    return counts


def unmemoised(tensor, b):
    """``(storage view, valid view)`` of slice ``b`` straight from the
    layout arithmetic: the reference the table must agree with."""
    start, end = tensor.layout.slice_bounds(b)
    view = tensor.data[start:end].reshape(tensor.layout.slice_shape(b))
    valid = view[tuple(slice(0, s) for s in tensor.valid_slice_shape(b))]
    return view, valid


def same_memory(a, b):
    return (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"] == b.__array_interface__["data"]
            and (a.size == 0 or np.shares_memory(a, b)))


def stack_reference(tokens, lengths, masked):
    for weights in LAYERS:
        tokens = dense_reference_f64(tokens, lengths, weights, SMALL, masked)
    return tokens


def poisoned_run(session, program, tokens):
    compiled = session.compile(program)
    for slab in compiled._slabs:
        slab.fill(np.nan)
    return session.run(program, {"tokens": tokens})["out_tokens"]


# ---------------------------------------------------------------------------
# (i) the steady state does no slice addressing
# ---------------------------------------------------------------------------


class TestWarmRunDoesNoLayoutWork:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("variant", sorted(SESSIONS))
    def test_second_run_makes_zero_layout_calls(self, monkeypatch, variant,
                                                masked):
        lengths = [5, 3, 7, 3]
        session = Session(**SESSIONS[variant])
        program = build_encoder_stack_program(lengths, LAYERS, SMALL,
                                              masked=masked)
        tokens = packed_tokens(lengths, SMALL.hidden_size, 3)
        counts = layout_calls(monkeypatch)
        first = session.run(program, {"tokens": tokens})["out_tokens"]
        # Q, K, V and the attention output of each sequence and layer.
        assert counts["slice_bounds"] == 4 * len(lengths) * len(LAYERS)
        counts.clear()
        for _ in range(3):
            again = session.run(program, {"tokens": tokens})["out_tokens"]
            assert np.array_equal(first, again)
        assert counts == {}

    def test_every_cached_program_keeps_its_own_table(self, monkeypatch):
        session = Session()
        programs = [build_encoder_stack_program(lens, LAYERS, SMALL,
                                                masked=True)
                    for lens in SIGNATURES]
        feeds = [{"tokens": packed_tokens(lens, SMALL.hidden_size, 5)}
                 for lens in SIGNATURES]
        cold = [session.run(p, f)["out_tokens"]
                for p, f in zip(programs, feeds)]
        counts = layout_calls(monkeypatch)
        # One shared arena, interleaved programs: each still finds its views.
        for _ in range(2):
            for program, feed, want in zip(programs, feeds, cold):
                got = session.run(program, feed)["out_tokens"]
                assert np.array_equal(got, want)
        assert counts == {}


# ---------------------------------------------------------------------------
# (ii) the table changes no result
# ---------------------------------------------------------------------------


class TestSameAnswer:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("variant", sorted(SESSIONS))
    def test_bit_identical_to_unmemoised_addressing(self, monkeypatch,
                                                    variant, masked):
        memoised, plain = [], []
        for results, bypass in ((memoised, False), (plain, True)):
            if bypass:
                monkeypatch.setattr(RaggedTensor, "_slice_views", unmemoised)
            session = Session(**SESSIONS[variant])
            for lengths in SIGNATURES:
                program = build_encoder_stack_program(
                    lengths, LAYERS, SMALL, masked=masked)
                tokens = packed_tokens(lengths, SMALL.hidden_size, 7)
                poisoned_run(session, program, tokens)       # builds
                results.append(poisoned_run(session, program, tokens))
        for lengths, got, want in zip(SIGNATURES, memoised, plain):
            assert np.array_equal(got, want), lengths
            tokens = packed_tokens(lengths, SMALL.hidden_size, 7)
            np.testing.assert_allclose(
                got, stack_reference(tokens, lengths, masked),
                rtol=ORACLE_TOL, atol=ORACLE_TOL)


# ---------------------------------------------------------------------------
# (iii) the memoised views address what the layout addresses
# ---------------------------------------------------------------------------


@st.composite
def layouts(draw):
    """Constant, ragged, storage-padded and fused-dimension layouts."""
    kind = draw(st.sampled_from(["constant", "ragged", "padded", "fused"]))
    batch, seq, hid = Dim("batch"), Dim("seq"), Dim("hid")
    lens = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    inner = draw(st.integers(1, 3))
    if kind == "constant":
        return RaggedLayout.dense([batch, seq, hid], [len(lens), 4, inner])
    ragged = [ConstExtent(len(lens)),
              VarExtent(batch, np.asarray(lens, dtype=np.int64))]
    if kind == "ragged":
        heads = Dim("heads")                    # [batch, heads, s(b), hid]
        return RaggedLayout([batch, heads, seq, hid],
                            [ragged[0], ConstExtent(2), ragged[1],
                             ConstExtent(inner)])
    layout = RaggedLayout([batch, seq, hid], ragged + [ConstExtent(inner)],
                          storage_padding={seq: draw(st.integers(1, 4)),
                                           hid: draw(st.integers(1, 3))})
    return layout.fuse_dims(batch, seq) if kind == "fused" else layout


class TestViewsAliasTheLayout:
    @settings(max_examples=60, deadline=None)
    @given(layout=layouts(), data=st.data())
    def test_memoised_views_alias_unmemoised_addressing(self, layout, data):
        tensor = RaggedTensor.random(layout, seed=1)
        m = layout.governing_extent()
        order = data.draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.booleans()), max_size=3 * m))
        # Any order, valid-first or storage-first, repeats included ...
        for b, valid_first in order:
            view, valid = unmemoised(tensor, b)
            if valid_first:
                assert same_memory(tensor.valid_slice(b), valid)
            assert same_memory(tensor.slice_view(b), view)
            assert same_memory(tensor.valid_slice(b), valid)
        # ... and every slice, through every accessor that walks the table.
        for b, mine in tensor.iter_slices():
            view, valid = unmemoised(tensor, b)
            assert mine is tensor.valid_slice(b)
            assert same_memory(mine, valid)
            assert same_memory(tensor.slice_view(b), view)
        dense = tensor.to_dense()
        for b in range(m):
            _, valid = unmemoised(tensor, b)
            index = (b,) + tuple(slice(0, s) for s in valid.shape)
            assert np.array_equal(dense[index], valid)

    def test_set_slice_keeps_its_checks_and_writes_through(self):
        layout = RaggedLayout.ragged_2d(Dim("b"), Dim("s"), 2, [3, 5], pad=4)
        tensor = RaggedTensor.zeros(layout)
        for _ in range(2):                      # cold, then from the table
            tensor.set_slice(1, np.arange(5))
            assert tensor.data[4:9].tolist() == [0, 1, 2, 3, 4]
            assert tensor.data.dtype == np.float32
            with pytest.raises(Exception, match="expected shape"):
                tensor.set_slice(1, np.arange(8))   # the storage shape
            with pytest.raises(IndexError):
                tensor.valid_slice(2)
        assert 2 not in tensor._views


# ---------------------------------------------------------------------------
# (iv) lifetime and invalidation
# ---------------------------------------------------------------------------


class TestLifetime:
    def test_evicted_program_frees_its_wrappers_and_views(self):
        session = Session(program_capacity=2)
        refs = []
        for lengths in SIGNATURES[:4]:
            program = build_encoder_stack_program(lengths, LAYERS, SMALL,
                                                  masked=True)
            session.run(program, {"tokens": packed_tokens(
                lengths, SMALL.hidden_size, 1)})
            compiled = session.compiled_program(program)
            wrapper = compiled._wrapped["L0.qkv.q"]
            assert len(wrapper._views) == len(lengths)
            refs.append([weakref.ref(compiled), weakref.ref(wrapper),
                         weakref.ref(wrapper.valid_slice(0))])
            del program, compiled, wrapper
        gc.collect()
        for evicted in refs[:2]:
            assert [r() for r in evicted] == [None, None, None]
        for cached in refs[2:]:
            assert all(r() is not None for r in cached)

    def test_rebinding_data_drops_the_table(self, monkeypatch):
        layout = RaggedLayout.ragged_2d(Dim("b"), Dim("s"), 3, [2, 4, 1])
        tensor = RaggedTensor.random(layout, seed=0)
        old = tensor.valid_slice(1)
        replacement = np.arange(7, dtype=np.float32)
        tensor.data = replacement
        fresh = tensor.valid_slice(1)
        assert np.shares_memory(fresh, replacement)
        assert not np.shares_memory(fresh, old)
        assert fresh.tolist() == [2, 3, 4, 5]
        # In-place writes are not a rebind: the table stays, and is right.
        counts = layout_calls(monkeypatch)
        tensor.data[:] = 0
        assert tensor.valid_slice(1) is fresh and not fresh.any()
        assert counts == {}

    def test_copy_and_pickle_carry_no_stale_views(self):
        layout = RaggedLayout.ragged_2d(Dim("b"), Dim("s"), 3, [2, 4, 1],
                                        pad=2)
        tensor = RaggedTensor.random(layout, seed=0)
        tensor.data = tensor.data.astype(np.float64)
        for b, _ in tensor.iter_slices():
            tensor.slice_view(b)
        for clone in (tensor.copy(), pickle.loads(pickle.dumps(tensor))):
            assert clone._views == {} and clone.dtype == np.float64
            assert np.array_equal(clone.data, tensor.data)
            for b in range(3):
                view, valid = unmemoised(clone, b)
                assert same_memory(clone.slice_view(b), view)
                assert same_memory(clone.valid_slice(b), valid)
                assert not np.shares_memory(clone.valid_slice(b), tensor.data)
            clone.valid_slice(1)[...] = -1.0
            assert (clone.data[2:6] == -1.0).all()
            assert not (tensor.data == -1.0).any()

    def test_one_shot_tensor_does_the_layout_work_of_the_unmemoised_path(
            self, monkeypatch):
        """The op-by-op wrappers build a tensor, touch each slice once or
        twice and drop it: the table must not add layout work to that."""
        lengths = [4, 1, 6]
        layout = RaggedLayout.ragged_2d(Dim("b"), Dim("s"), 3, lengths)
        counts = layout_calls(monkeypatch)
        tensor = RaggedTensor.from_slices(
            layout, [np.ones(n, dtype=np.float32) for n in lengths])
        out = [tensor.valid_slice(b) for b in range(3)]
        assert [o.sum() for o in out] == lengths
        assert counts == {"slice_bounds": 3, "slice_shape": 3,
                          "valid_slice_shape": 3}

    def test_one_shot_tensor_is_not_slower_than_unmemoised_addressing(
            self, monkeypatch):
        """Build, fill, read back, drop -- what ``sdpa_compiled`` and
        ``softmax_compiled`` do with their operands.  The table halves the
        layout calls of that cycle, so it must not cost time either (3 %
        allowed; measured 96 vs 130 us)."""
        lengths = [12, 7, 30, 18, 5, 22, 9, 16]
        layout = RaggedLayout.ragged_2d(Dim("b"), Dim("s"), 8, lengths)
        rows = [np.ones(n, dtype=np.float32) for n in lengths]

        def cycle():
            tensor = RaggedTensor.from_slices(layout, rows)
            return [tensor.valid_slice(b) for b in range(8)]

        def best_of(repeats=40, inner=20):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(inner):
                    cycle()
                best = min(best, time.perf_counter() - t0)
            return best

        memoised = best_of()
        monkeypatch.setattr(RaggedTensor, "_slice_views", unmemoised)
        plain = best_of()
        monkeypatch.undo()
        assert min(memoised, best_of()) <= 1.03 * plain

