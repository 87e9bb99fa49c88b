"""The native C kernel (repro.core.native) against the numpy kernel.

The contract is bit identity: for every shape, dtype, batch and call
spelling the native build + query must reproduce the numpy
batch-invariant path exactly.  The numpy path is forced here by
patching :func:`repro.core.native.kernel_for` -- a test-only switch,
not a user option.  On a host without a C compiler both sides run
numpy and the comparisons hold trivially; tests about the native path
itself skip there.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
import textwrap
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import native
from repro.core.kernel import BiQGemm
from repro.core.profiling import PhaseProfiler
from repro.core.workspace import Workspace
from repro.engine.compiled import CompiledKernelEngine

NATIVE = native.status()["available"]
needs_native = pytest.mark.skipif(
    not NATIVE, reason="no C compiler: the numpy fallback serves"
)
SRC = str(Path(repro.__file__).resolve().parent.parent)


@contextmanager
def numpy_path():
    """Force the numpy kernel for the duration (the test-only switch)."""
    with mock.patch.object(native, "kernel_for", lambda dtype, mu: None):
        yield


def _engine(rng, m, n, bits, mu):
    binary = rng.choice(np.array([-1, 1], dtype=np.int8), size=(bits, m, n))
    engine = BiQGemm.from_binary(
        binary, alphas=rng.uniform(0.1, 2.0, size=(bits, m)), mu=mu
    )
    engine.batch_invariant = True
    return engine


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


@st.composite
def problem(draw):
    bits = draw(st.integers(min_value=1, max_value=4))
    mu = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=70))
    batch = draw(st.integers(min_value=1, max_value=65))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return bits, mu, m, n, batch, dtype, layout, seed


def _input(rng, n, batch, dtype, layout):
    if layout == "strided":
        return rng.standard_normal((2 * n, batch)).astype(dtype)[::2]
    x = rng.standard_normal((n, batch)).astype(dtype)
    return np.asfortranarray(x) if layout == "fortran" else x


class TestDifferential:
    @given(case=problem())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_numpy(self, case):
        bits, mu, m, n, batch, dtype, layout, seed = case
        rng = np.random.default_rng(seed)
        engine = _engine(rng, m, n, bits, mu)
        x = _input(rng, n, batch, dtype, layout)
        got = engine.matmul(x)
        with numpy_path():
            want = engine.matmul(x)
        assert _same_bits(got, want)

    @given(case=problem(), use_workspace=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_out_and_workspace_match_numpy(self, case, use_workspace):
        bits, mu, m, n, batch, dtype, layout, seed = case
        rng = np.random.default_rng(seed)
        engine = _engine(rng, m, n, bits, mu)
        x = _input(rng, n, batch, dtype, layout)
        ws = Workspace() if use_workspace else None
        out = np.full((m, batch), np.nan, dtype)
        engine.matmul_into(x, out=out, workspace=ws)
        with numpy_path():
            want = engine.matmul(x)
        assert _same_bits(out, want)

    @given(case=problem())
    @settings(max_examples=30, deadline=None)
    def test_compiled_trace_matches_numpy_trace(self, case):
        bits, mu, m, n, batch, dtype, layout, seed = case
        rng = np.random.default_rng(seed)
        x = _input(rng, n, batch, dtype, layout)
        bias = rng.standard_normal(m)
        inner = _engine(rng, m, n, bits, mu)
        fast = CompiledKernelEngine(inner, bias=bias, activation="gelu")
        slow = CompiledKernelEngine(inner, bias=bias, activation="gelu")
        got = [fast.matmul(x) for _ in range(2)]  # build, then replay
        with numpy_path():
            want = [slow.matmul(x) for _ in range(2)]
        assert fast.trace_count == slow.trace_count
        for a, b in zip(got, want):
            assert _same_bits(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3, 20])
    def test_several_group_tiles(self, rng, dtype, batch):
        # n = 8200 spans two float32 group tiles and three float64 ones
        # (1024 / 512 groups of mu = 8 per tile): y folds across tiles.
        engine = _engine(rng, 9, 8200, 2, 8)
        tile_g = engine.invariant_tiles(dtype).tile_g
        assert engine.key_matrix.groups > tile_g
        x = rng.standard_normal((8200, batch)).astype(dtype)
        got = engine.matmul(x)
        with numpy_path():
            assert _same_bits(got, engine.matmul(x))

    @pytest.mark.parametrize("batch", [1, 7])
    def test_read_only_shared_keys(self, rng, batch):
        # The cluster's shared-memory attach hands engines read-only
        # key and scale views; the kernel reads them in place.
        src = _engine(rng, 33, 50, 3, 8)
        keys = src.key_matrix.keys.copy()
        alphas = src.alphas.copy()
        keys.setflags(write=False)
        alphas.setflags(write=False)
        km = type(src.key_matrix)(keys=keys, mu=8, n=50)
        engine = BiQGemm(km, alphas=alphas)
        engine.batch_invariant = True
        kern = native.kernel_for(np.float64, 8)
        if kern is not None:
            assert engine._native_weights(kern).keys is km.keys
        x = rng.standard_normal((50, batch))
        got = engine.matmul(x)
        with numpy_path():
            assert _same_bits(got, engine.matmul(x))

    def test_float16_and_wide_mu_stay_on_numpy(self, rng):
        assert native.kernel_for(np.float16, 8) is None
        assert native.kernel_for(np.float64, 9) is None
        engine = _engine(rng, 5, 30, 2, 10)
        x = rng.standard_normal((30, 2))
        assert np.allclose(engine.matmul(x), engine.matmul_reference(x))


class _Spy:
    """Counts the C calls a wrapped kernel makes."""

    def __init__(self, kern):
        self.kern, self.builds, self.queries, self.wides = kern, 0, 0, 0

    def __getattr__(self, name):
        return getattr(self.kern, name)

    def build(self, *args):
        self.builds += 1
        self.kern.build(*args)

    def query(self, *args):
        self.queries += 1
        self.kern.query(*args)

    def wide(self, *args, **kwargs):
        self.wides += 1
        return self.kern.wide(*args, **kwargs)


@needs_native
class TestNativePath:
    def _spy(self, monkeypatch):
        spies = {}
        real = native.kernel_for

        def kernel_for(dtype, mu):
            kern = real(dtype, mu)
            return spies.setdefault(np.dtype(dtype), _Spy(kern))

        monkeypatch.setattr(native, "kernel_for", kernel_for)
        return spies

    def test_profiler_times_the_c_calls(self, rng, monkeypatch):
        # Observing must not switch paths: a profiled call still runs
        # the native kernel, and its build/query phases time the calls.
        spies = self._spy(monkeypatch)
        engine = _engine(rng, 20, 40, 3, 8)
        x = rng.standard_normal((40, 4))
        plain = engine.matmul(x)
        prof = PhaseProfiler()
        profiled = engine.matmul(x, profiler=prof)
        assert _same_bits(plain, profiled)
        spy = spies[np.dtype(np.float64)]
        assert spy.builds == spy.queries == 2
        assert prof.calls["build"] == prof.calls["query"] == 1
        assert prof.seconds["query"] > 0

    def test_profiler_times_the_fused_wide_call(self, rng, monkeypatch):
        # Past SMALL_BATCH columns one C call builds and queries; the
        # build share it measures goes to the build phase.
        spies = self._spy(monkeypatch)
        engine = _engine(rng, 20, 40, 3, 8)
        x = rng.standard_normal((40, native.SMALL_BATCH + 4))
        plain = engine.matmul(x)
        prof = PhaseProfiler()
        profiled = engine.matmul(x, profiler=prof)
        assert _same_bits(plain, profiled)
        spy = spies[np.dtype(np.float64)]
        assert spy.wides == 2 and spy.builds == spy.queries == 0
        assert prof.calls["build"] == prof.calls["query"] == 1
        assert prof.seconds["build"] > 0 and prof.seconds["query"] > 0

    def test_wide_batches_never_hold_whole_tile_tables(self, rng):
        # The fused call builds one cache-sized block at a time, so
        # the table scratch does not grow with the batch.
        engine = _engine(rng, 64, 2048, 3, 8)
        kern = native.kernel_for(np.float64, 8)
        ws = Workspace()
        for batch in (8, 64):
            x = rng.standard_normal((2048, batch))
            engine.matmul(x, workspace=ws)
        # Whole-tile tables at 64 columns alone would take 32 MiB.
        assert ws.bytes_resident < 4 * native.SCRATCH_BYTES
        assert kern.scratch_size * 8 == native.SCRATCH_BYTES

    def test_compiled_trace_runs_native(self, rng, monkeypatch):
        spies = self._spy(monkeypatch)
        engine = CompiledKernelEngine(_engine(rng, 20, 40, 3, 8))
        engine.matmul(rng.standard_normal((40, 1)).astype(np.float32))
        assert engine.trace_count == 1
        assert spies[np.dtype(np.float32)].queries == 1

    def test_other_knobs_keep_numpy(self, rng, monkeypatch):
        spies = self._spy(monkeypatch)
        engine = _engine(rng, 20, 40, 3, 8)
        x = rng.standard_normal((40, 2))
        for kwargs in (
            {"builder": "gemm"},
            {"query_impl": "flat"},
            {"threads": 2},
        ):
            engine.matmul(x, **kwargs)
        engine.batch_invariant = False
        engine.matmul(x)
        assert not spies

    def test_kernel_validates_buffers(self, rng):
        kern = native.kernel_for(np.float64, 8)
        xhat = np.zeros((2, 8, 1))
        with pytest.raises(ValueError, match="tables"):
            kern.build(xhat, np.zeros((2, 256, 1), np.float32))
        with pytest.raises(ValueError, match="xhat"):
            kern.build(np.zeros((2, 8, 2))[:, :, :1], np.zeros((2, 256, 1)))
        keys = np.full((1, 3, 2), 16, np.uint8)
        with pytest.raises(ValueError, match="2\\*\\*mu"):
            native.NativeWeights(keys, np.ones((1, 3)), 4, np.float64)
        weights = native.NativeWeights(keys, np.ones((1, 3)), 8, np.float64)
        with pytest.raises(ValueError, match="wide"):
            kern.query(np.zeros((2, 256, 5)), weights, 0, np.zeros((3, 5)))
        with pytest.raises(ValueError, match="match"):
            kern.query(np.zeros((2, 256, 4)), weights, 1, np.zeros((3, 4)))
        xhat = np.zeros((2, 8, 5))
        acc = np.zeros(kern.acc_shape(1, 3, 5))
        scratch = np.zeros(kern.scratch_size)
        y = np.zeros((3, 5))
        with pytest.raises(ValueError, match="more than"):
            kern.wide(xhat[:, :, :4].copy(), weights, 0, y[:, :4].copy(),
                      acc, scratch)
        with pytest.raises(ValueError, match="match"):
            kern.wide(xhat, weights, 1, y, acc, scratch)
        with pytest.raises(ValueError, match="acc"):
            kern.wide(xhat, weights, 0, y, acc[:, :2], scratch)
        with pytest.raises(ValueError, match="scratch"):
            kern.wide(xhat, weights, 0, y, acc, scratch[:-1])

    def test_library_releases_the_gil(self):
        # ctypes.CDLL (unlike PyDLL) drops the GIL around every call.
        kern = native.kernel_for(np.float64, 8)
        folds = native.fold_kernel()
        for fn in (kern._build, kern._query, kern._wide, folds._scores,
                   folds._context):
            assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    def test_concurrent_calls_leave_a_cpu(self, rng, monkeypatch):
        # At most MAX_CONCURRENT C calls run at once: one CPU fewer
        # than the process may use, at least one.
        cpus = len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count()
        assert native.MAX_CONCURRENT == max(1, cpus - 1)
        inside, peak, lock = [0], [0], threading.Lock()
        slots = native._SLOTS

        class Counting:
            def __enter__(self):
                slots.__enter__()
                with lock:
                    inside[0] += 1
                    peak[0] = max(peak[0], inside[0])

            def __exit__(self, *exc):
                with lock:
                    inside[0] -= 1
                slots.__exit__(*exc)

        monkeypatch.setattr(native, "_SLOTS", Counting())
        engine = _engine(rng, 256, 1024, 3, 8)
        xs = [rng.standard_normal((1024, b)) for b in (1, 16, 2, 32)]
        want = [engine.matmul(x) for x in xs]
        results = {}

        def run(i):
            results[i] = [engine.matmul(x) for x in xs for _ in range(3)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert 1 <= peak[0] <= native.MAX_CONCURRENT
        for got in results.values():
            for k, y in enumerate(got):
                assert _same_bits(y, want[k // 3])

    def test_metrics_gauge_reports_the_serving_path(self):
        from repro.obs.metrics import get_registry

        text = get_registry().to_prometheus()
        assert "repro_native_kernel_available 1" in text


def _run_child(env_extra: dict, script: str, tmp_path: Path):
    env = dict(os.environ)
    env.update(env_extra)
    env["PYTHONPATH"] = SRC
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


_CHILD = """
    import json, sys
    import numpy as np
    from repro.core import native
    from repro.core.kernel import BiQGemm

    rng = np.random.default_rng(3)
    binary = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2, 17, 45))
    engine = BiQGemm.from_binary(binary, alphas=rng.uniform(0.5, 1.5, (2, 17)))
    engine.batch_invariant = True
    x = rng.standard_normal((45, 3))
    y = engine.matmul(x)
    engine.matmul(x[:, :1])
    print(json.dumps({"status": native.status(), "y": y.tobytes().hex()}))
"""


def _expected_child_output() -> str:
    rng = np.random.default_rng(3)
    binary = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2, 17, 45))
    engine = BiQGemm.from_binary(
        binary, alphas=rng.uniform(0.5, 1.5, (2, 17))
    )
    engine.batch_invariant = True
    return engine.matmul(rng.standard_normal((45, 3))).tobytes().hex()


class TestBuildCache:
    @needs_native
    def test_racing_first_builds_both_load(self, tmp_path):
        cache = tmp_path / "cache"
        procs = [
            _run_child({"XDG_CACHE_HOME": str(cache)}, _CHILD, tmp_path)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        results = [json.loads(o.splitlines()[-1]) for o, _ in outs]
        want = _expected_child_output()
        for res in results:
            assert res["status"]["available"], res["status"]
            assert res["y"] == want
        path = Path(results[0]["status"]["path"])
        assert path.parent == cache / "repro"
        assert results[1]["status"]["path"] == str(path)
        # Published atomically: only the finished library remains.
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_missing_compiler_falls_back_identically(self, tmp_path):
        env = {"CC": "/nonexistent", "XDG_CACHE_HOME": str(tmp_path / "c")}
        proc = _run_child(env, _CHILD, tmp_path)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        res = json.loads(out.splitlines()[-1])
        assert res["status"]["available"] is False
        assert res["status"]["path"] is None
        assert "nonexistent" in res["status"]["reason"]
        assert err.count("native BiQGEMM kernel unavailable") == 1
        assert res["y"] == _expected_child_output()

    def test_unwritable_cache_falls_back_to_tempdir(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
        path = native._writable_dir()
        assert Path(path).parent == tmp_path
        assert Path(path).name.startswith("repro-")

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX ownership")
    def test_cache_owned_by_another_user_is_skipped(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        with pytest.raises(OSError, match="no writable cache"):
            native._writable_dir()
