"""End-to-end checks of the paper's headline claims.

Each test cites the paper statement it verifies.  These run on the real
kernels and the calibrated cost model together, closing the loop between
the experiment index (``repro.bench.registry``) and the implementation.
"""

import numpy as np
import pytest

from repro.core.autotune import analytic_mu
from repro.core.kernel import BiQGemm
from repro.core.profiling import PhaseProfiler
from repro.hw.costmodel import estimate_biqgemm, estimate_gemm
from repro.hw.machine import MACHINES
from repro.hw.simulator import simulate_biqgemm, simulate_gemm
from tests.conftest import random_binary


class TestSectionIIIB:
    """'for multi-bit quantized weight matrices, Tr becomes
    O(m * n/mu * b * beta)' and tables are shared across planes."""

    def test_query_share_rises_with_output_size(self, rng):
        # Fig. 8's trend on the real kernel: query proportion grows
        # with m (averaged over repeats to damp noise).
        n, b = 512, 16
        x = rng.standard_normal((n, b)).astype(np.float32)
        shares = []
        for m in (128, 2048):
            engine = BiQGemm.from_binary(random_binary(rng, (m, n)), mu=8)
            engine.matmul(x)  # warm-up
            prof = PhaseProfiler()
            for _ in range(5):
                engine.matmul(x, profiler=prof)
            shares.append(prof.proportions()["query"])
        assert shares[1] > shares[0]

    def test_key_storage_is_32x_smaller_than_fp32(self, rng):
        m, n = 64, 512
        engine = BiQGemm.from_binary(random_binary(rng, (m, n)), mu=8)
        # One uint8 key per 8 weights: mn/8 bytes vs 4*mn for fp32.
        assert engine.key_matrix.nbytes == (m * n) // 8
        assert 4 * m * n / engine.key_matrix.nbytes == 32


class TestEq10:
    """'time complexity of a matrix multiplication is reduced by mu'."""

    def test_op_reduction_matches_mu(self):
        m, n, b, mu = 8192, 1024, 4, 8
        biq = simulate_biqgemm(m, n, b, mu=mu)
        gemm = simulate_gemm(m, n, b)
        assert (gemm.lookups / 2) / biq.total_ops == pytest.approx(mu, rel=0.1)


class TestSectionIVA:
    """'We use mu = 8 ... close to the value optimized in theory.'"""

    def test_analytic_optimum_is_8_for_m1024(self):
        assert analytic_mu(1024) == 8

    def test_mu8_within_band_for_all_table4_sizes(self):
        from repro.core.autotune import analytic_cost_ratio

        for m in (512, 1024, 2048, 4096):
            best_mu = analytic_mu(m)
            assert (
                analytic_cost_ratio(8, m)
                <= 1.25 * analytic_cost_ratio(best_mu, m)
            )


class TestSectionIVD:
    """'BiQGEMM is always faster than GEMM given the same quantization
    bits' and 'BiQGEMM can be slower than GEMM if batch size and the
    number of quantization bits are beyond a certain threshold'."""

    def test_biqgemm_vs_container_gemm_same_bits_model(self):
        # Same bits: BiQGEMM beats sGEMM (which stores 1 bit per 32-bit
        # container) at every paper batch size on the cost model.
        pc = MACHINES["pc"]
        for b in (1, 32, 128, 256):
            for bits in (1, 2, 3):
                biq = estimate_biqgemm(pc, 1024, 1024, b, bits=bits).seconds
                gemm = estimate_gemm(pc, 1024, 1024, b).seconds * bits
                assert biq < gemm, (b, bits)

    def test_threshold_crossover_exists(self):
        # 3-bit BiQGEMM loses to 1x full-precision GEMM at batch 256
        # on the PC config but wins at batch 32 (Fig. 10a).
        pc = MACHINES["pc"]
        b32 = estimate_biqgemm(pc, 1024, 1024, 32, bits=3).seconds
        g32 = estimate_gemm(pc, 1024, 1024, 32).seconds
        b256 = estimate_biqgemm(pc, 1024, 1024, 256, bits=3).seconds
        g256 = estimate_gemm(pc, 1024, 1024, 256).seconds
        assert b32 < g32
        assert b256 > g256


class TestSectionIVE:
    """Table IV: 'BiQGEMM is faster than kGpu by 1.08~30.42 times (as
    weight matrix size increases and batch size decreases, BiQGEMM
    becomes relatively faster)'."""

    def test_speedup_band_against_kgpu(self):
        v100 = MACHINES["v100"]
        ratios = []
        for n in (512, 1024, 2048, 4096):
            for b in (1, 32, 128, 256):
                biq = estimate_biqgemm(v100, n, n, b).seconds
                kgpu = estimate_gemm(v100, n, n, b, engine="naive").seconds
                ratios.append(kgpu / biq)
        assert min(ratios) > 1.0
        assert max(ratios) > 10.0  # paper: up to 30.4
        assert max(ratios) < 60.0

    def test_speedup_grows_with_size_at_fixed_batch(self):
        v100 = MACHINES["v100"]

        def ratio(n, b):
            return (
                estimate_gemm(v100, n, n, b, engine="naive").seconds
                / estimate_biqgemm(v100, n, n, b).seconds
            )

        assert ratio(4096, 1) > ratio(512, 1)

    def test_speedup_shrinks_with_batch_at_fixed_size(self):
        v100 = MACHINES["v100"]

        def ratio(n, b):
            return (
                estimate_gemm(v100, n, n, b, engine="naive").seconds
                / estimate_biqgemm(v100, n, n, b).seconds
            )

        assert ratio(4096, 256) < ratio(4096, 1)


class TestAbstractClaim:
    """'BiQGEMM can access multiple quantized weights simultaneously in
    one instruction' -- operationally: one uint8 key encodes mu=8
    weights and drives one gather."""

    def test_one_key_covers_mu_weights(self, rng):
        engine = BiQGemm.from_binary(random_binary(rng, (4, 64)), mu=8)
        km = engine.key_matrix
        assert km.groups == 64 // 8
        assert km.keys.dtype == np.uint8  # 8 weights per byte-sized key

    def test_correctness_is_preserved_under_that_packing(self, rng):
        binary = random_binary(rng, (4, 64))
        engine = BiQGemm.from_binary(binary, mu=8)
        x = rng.standard_normal((64, 2))
        assert np.allclose(engine.matmul(x), binary.astype(float) @ x, atol=1e-10)
