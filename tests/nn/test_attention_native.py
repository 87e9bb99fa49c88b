"""The native attention folds (repro.core.native.FoldKernel) against the
numpy fold in repro.nn.attention.

The contract is bit identity: every score and context element is the
same strict left fold, in the same order, on both paths.  The one
exception is which of two NaN operands propagates (the NaN payload):
neither C nor numpy fixes the operand order of a commutative add or
multiply, and the numpy fold's own chunk carry (``prod[..., 0] +=
acc``) adds in the other order; the positions of NaNs must agree.

The numpy fold is forced by patching ``attention.fold_kernel`` -- a
test-only switch, not a user option.  On a host without a C compiler
both sides run numpy; tests about the native path itself skip there.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.attention as attention
from repro.core import native
from repro.gen.cache import KVCache
from repro.gen.model import DecoderLM
from repro.nn.attention import attn_context, attn_scores
from repro.nn.functional import softmax
from repro.nn.transformer import TransformerConfig

NATIVE = native.fold_kernel() is not None
needs_native = pytest.mark.skipif(
    not NATIVE, reason="no C compiler: the numpy fold serves"
)


@contextmanager
def numpy_fold():
    """Force the numpy fold for the duration (the test-only switch)."""
    with mock.patch.object(attention, "fold_kernel", lambda: None):
        yield


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit-equal, NaN payloads aside (see the module docstring)."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    nan = np.isnan(want)
    if not np.array_equal(np.isnan(got), nan):
        return False
    return np.array_equal(
        np.where(nan, 0.0, got).view(np.uint64),
        np.where(nan, 0.0, want).view(np.uint64),
    )


def both(fn, *args, **kwargs):
    """``(native, numpy)`` results of one fold call."""
    got = fn(*args, **kwargs)
    with numpy_fold():
        want = fn(*args)
    return got, want


LAYOUTS = ["contiguous", "transposed", "sliced"]


@st.composite
def fold_case(draw):
    """Shapes, layouts and value classes of one fold call."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    # Each operand may broadcast any leading dim from size 1; the
    # second may also omit leading dims.
    lead_a = tuple(n if draw(st.booleans()) else 1 for n in lead)
    lead_b = tuple(n if draw(st.booleans()) else 1 for n in lead)
    lead_b = lead_b[draw(st.integers(0, len(lead_b))):]
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "lead": (lead_a, lead_b),
        "seq_q": draw(st.integers(1, 70)),
        "seq_kv": draw(st.integers(1, 70)),
        "head_dim": draw(st.sampled_from([1, 7, 32, 64])),
        "layouts": (draw(st.sampled_from(LAYOUTS)),
                    draw(st.sampled_from(LAYOUTS))),
        "specials": (draw(st.booleans()), draw(st.booleans())),
    }


def _specials(arr, rng):
    """Sprinkle -0.0, +-inf and NaN into *arr* (in place)."""
    u = rng.random(arr.shape)
    arr[u < 0.08] = -0.0
    arr[(u >= 0.08) & (u < 0.1)] = np.inf
    arr[(u >= 0.1) & (u < 0.11)] = -np.inf
    arr[(u >= 0.11) & (u < 0.12)] = np.nan


def _layout(kind, arr):
    """*arr* contiguous, as a transposed view (the ``_split`` layout),
    or as a row slice of a larger buffer (a KV-cache view)."""
    if kind == "transposed" and arr.ndim >= 3:
        return np.ascontiguousarray(np.swapaxes(arr, -2, -3)).swapaxes(-2, -3)
    if kind == "sliced":
        big = np.empty(arr.shape[:-2] + (arr.shape[-2] + 5, arr.shape[-1]))
        big[..., : arr.shape[-2], :] = arr
        return big[..., : arr.shape[-2], :]
    return arr


def _operands(case, a, b, rng):
    out = []
    for arr, kind, special in zip((a, b), case["layouts"], case["specials"]):
        if special:
            _specials(arr, rng)
        out.append(_layout(kind, arr))
    return out


class TestDifferential:
    @given(case=fold_case())
    @settings(max_examples=80, deadline=None)
    def test_scores_match_numpy(self, case):
        rng = np.random.default_rng(case["seed"])
        (lead_q, lead_k), d = case["lead"], case["head_dim"]
        q = rng.standard_normal(lead_q + (case["seq_q"], d))
        k = rng.standard_normal(lead_k + (case["seq_kv"], d))
        q, k = _operands(case, q, k, rng)
        with np.errstate(all="ignore"):
            got, want = both(attn_scores, q, k)
        assert same_bits(got, want)

    @given(case=fold_case(), masked=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_context_matches_numpy(self, case, masked):
        rng = np.random.default_rng(case["seed"])
        (lead_p, lead_v), d = case["lead"], case["head_dim"]
        seq_q, seq_kv = case["seq_q"], case["seq_kv"]
        scores = rng.standard_normal(lead_p + (seq_q, seq_kv))
        if masked:
            # Causal -1e30 masking: masked probabilities are exactly 0.
            mask = np.triu(np.ones((seq_q, seq_kv), dtype=bool), k=1)
            scores = np.where(mask, -1e30, scores)
        attn = softmax(scores)
        v = rng.standard_normal(lead_v + (seq_kv, d))
        attn, v = _operands(case, attn, v, rng)
        with np.errstate(all="ignore"):
            got, want = both(attn_context, attn, v)
        assert same_bits(got, want)

    def test_signed_zero_sums_stay_negative(self):
        # Every product -0.0: numpy's cumsum keeps -0.0; a fold seeded
        # with +0.0 would return +0.0.
        q = np.full((2, 3, 5), -0.0)
        k = np.ones((2, 4, 5))
        got, want = both(attn_scores, q, k)
        assert same_bits(got, want)
        assert np.signbit(got).all()
        v = np.full((2, 4, 5), -0.0)
        got, want = both(attn_context, np.ones((2, 3, 4)), v)
        assert same_bits(got, want)
        assert np.signbit(got).all()

    def test_attention_views_are_read_in_place(self, rng):
        # The _split transpose and the KV-cache capacity slice reach the
        # C code without a copy (4.5 MB per decode token otherwise).
        x = rng.standard_normal((1, 9, 32))
        split = x.reshape(1, 9, 4, 8).transpose(0, 2, 1, 3)
        cache = KVCache(4, 8, reserve=32)
        cache.append(split[0], split[0])
        k, v = cache.view()
        for arr in (split, k, v):
            assert native._operand(arr, arr.shape[:-2])[0] is arr
        got, want = both(attn_scores, split[0], k)
        assert same_bits(got, want)
        got, want = both(attn_context, softmax(got), v)
        assert same_bits(got, want)


class TestOut:
    @needs_native
    def test_contiguous_out_is_written_in_place(self, rng):
        q = rng.standard_normal((4, 3, 8))
        k = rng.standard_normal((4, 6, 8))
        out = np.full((4, 3, 6), np.nan)
        assert attn_scores(q, k, out=out) is out
        with numpy_fold():
            assert same_bits(out, attn_scores(q, k))

    @pytest.mark.parametrize("fold", ["scores", "context"])
    def test_non_contiguous_out(self, rng, fold):
        a = rng.standard_normal((4, 5, 8))
        b = rng.standard_normal((4, 8, 8))
        fn = attn_scores if fold == "scores" else attn_context
        if fold == "scores":
            b = b[:, :6]
        shape = (4, 5, 6) if fold == "scores" else (4, 5, 8)
        out = np.full(shape[::-1], np.nan).T  # Fortran order
        assert fn(a, b, out=out) is out
        with numpy_fold():
            assert same_bits(np.ascontiguousarray(out), fn(a, b))

    def test_out_overlapping_an_operand(self, rng):
        q = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((2, 5, 5))
        with numpy_fold():
            want = attn_scores(q, k)
        assert attn_scores(q, k, out=q) is q
        assert same_bits(q, want)

    def test_float32_falls_back(self, rng, monkeypatch):
        calls = _spy(monkeypatch)
        q = rng.standard_normal((2, 3, 8)).astype(np.float32)
        k = rng.standard_normal((2, 4, 8)).astype(np.float32)
        got, want = both(attn_scores, q, k)
        assert got.dtype == np.float32 and same_bits(got, want)
        got, want = both(attn_context, got, k)
        assert same_bits(got, want)
        assert calls == {"scores": 0, "context": 0}


def _spy(monkeypatch) -> dict:
    """Count the native fold calls."""
    calls = {"scores": 0, "context": 0}
    for name in calls:
        real = getattr(native.FoldKernel, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(native.FoldKernel, name, counted)
    return calls


class TestServingPath:
    @needs_native
    def test_prefill_and_decode_fold_natively(self, monkeypatch):
        config = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
        model = DecoderLM(config, 50, seed=3)
        caches = model.init_cache()
        calls = _spy(monkeypatch)
        logits = model.prefill(np.array([[1, 4, 9, 16, 2]]), caches)
        assert calls == {"scores": 2, "context": 2}
        model.step(int(np.argmax(logits)), caches)
        assert calls == {"scores": 4, "context": 4}

    def test_decode_matches_the_numpy_fold(self):
        config = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
        model = DecoderLM(config, 50, seed=3)
        prompt = np.array([[1, 4, 9, 16, 2]])

        def run():
            caches = model.init_cache()
            rows = [model.prefill(prompt, caches)]
            for token in (3, 7, 11):
                rows.append(model.step(token, caches))
            return np.concatenate([np.atleast_2d(r) for r in rows])

        got = run()
        with numpy_fold():
            want = run()
        assert same_bits(got, want)


class TestSlots:
    @needs_native
    def test_each_fold_call_holds_one_slot(self, rng, monkeypatch):
        entered = []
        slots = native._SLOTS

        class Counting:
            def __enter__(self):
                slots.__enter__()
                entered.append(1)

            def __exit__(self, *exc):
                slots.__exit__(*exc)

        monkeypatch.setattr(native, "_SLOTS", Counting())
        q = rng.standard_normal((2, 3, 8))
        attn_context(attn_scores(q, q), q)
        assert len(entered) == 2


class TestMemory:
    @needs_native
    def test_prefill_scores_peak_at_the_output(self, rng):
        # The numpy fold's outer product would be 8.6 GiB at this shape
        # in one piece (its budget chunks it to ~32 MiB); the native
        # fold allocates only its output.
        q = rng.standard_normal((1, 8, 512, 64))
        k = rng.standard_normal((1, 8, 512, 64))
        output = 8 * 512 * 512 * 8
        tracemalloc.start()
        attn_scores(q, k)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1.05 * output
