"""Native C kernel for the batch-invariant BiQGEMM build + query and
the attention folds.

The numpy kernel in :mod:`repro.core.kernel` orchestrates one ufunc
call per group (or per tile) and cannot show the paper's point -- that
a lookup-table kernel reads several quantized weights per instruction
and beats GEMM at small batch.  This module holds the two hot phases as
C source, builds it on first use with the system C compiler and loads
it through stdlib :mod:`ctypes` (which releases the GIL for the whole
call).  At most :data:`MAX_CONCURRENT` calls -- one CPU fewer than the
process may use, at least one -- run at once, so GIL-holding threads
always keep a CPU.

Bit-identity contract
    The C code performs, for every output element, exactly the
    floating-point operations of the numpy batch-invariant path, in the
    same order:

    - *build* reproduces :func:`repro.core.lut.build_tables_dp`: the
      seed ``((-x0) - x1) - ...``, the doubling recurrence
      ``t[half + k] = t[k] + 2 * x[j]`` and the negation symmetry;
    - *query* folds one group tile as the ``loop`` query does: per
      (row, column, bit plane) a sequential left fold over the tile's
      groups starting from ``0``, then ``y += acc * alpha`` bit plane by
      bit plane.

    Speed comes only from the schedule *across* output elements:
    independent rows are interleaved at up to four columns, and wider
    batches build and query in one call (:meth:`NativeKernel.wide`):
    per column chunk and block of groups, the block's tables are built
    into a cache-sized scratch and consumed by a row-inner sweep while
    contiguous column rows accumulate, so a tile's full tables never
    exist.  A table entry's operations do not depend on which columns
    are built with it.

    The attention folds (:class:`FoldKernel`, float64) likewise give
    each score and context element numpy's fold: the first product,
    then ``acc = acc + a[j] * b[j]`` along the contraction axis (the
    last element of ``cumsum``), vectorized only across independent
    outputs with GNU C vector types.

    The flags never include ``-ffast-math`` (which reassociates sums)
    or ``-march=native`` (which would let the compiler contract
    multiply-adds into FMAs on some hosts and not others);
    ``-ffp-contract=off`` forbids contraction everywhere.  A host whose
    C float evaluation is wider than the storage type
    (``FLT_EVAL_METHOD != 0``, e.g. x87) fails the build on purpose.

Build cache
    The shared library is cached under ``$XDG_CACHE_HOME/repro`` (or
    ``~/.cache/repro``, falling back to a per-user directory under
    :func:`tempfile.gettempdir`), named by a hash of the source, the
    compiler's ``--version`` output, the flags and
    :func:`platform.machine`.  It is compiled to a temporary file and
    published with :func:`os.replace`, so concurrent first uses in
    several processes each load a complete library.  The compiler is
    ``$CC`` or ``cc``.  When it is missing or fails, one warning is
    logged and every caller keeps the numpy path; :func:`status` says
    which path is serving.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import os
import platform
import shlex
import subprocess
import tempfile
import threading

import numpy as np

__all__ = [
    "FoldKernel",
    "NativeKernel",
    "NativeWeights",
    "fold_kernel",
    "kernel_for",
    "status",
]

logger = logging.getLogger(__name__)

FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
"""Compiler flags.  No ``-ffast-math``, no ``-march=native``: both let
the compiler change the floating-point operations (see the module
docstring)."""

MAX_NATIVE_MU = 8
"""Keys up to ``mu = 8`` are ``uint8`` -- the only key type the C code
reads.  Wider LUT-units keep the numpy path."""

SMALL_BATCH = 4
"""Batches up to this many columns take the C register-blocked path
(:meth:`NativeKernel.build` + :meth:`NativeKernel.query`); wider ones
the fused :meth:`NativeKernel.wide`."""

SCRATCH_BYTES = 1 << 18
"""Table scratch of one :meth:`NativeKernel.wide` call: one block of
groups' tables for one column chunk (it stays in the L2 cache)."""

_KEY_DTYPE = np.dtype(np.uint8)

_SOURCE_TEMPLATE = r"""
/* Build and query for one real type.  The contract with the numpy
   kernel is in the docstring of repro/core/native.py. */

static INLINE void build_REAL(const REAL *restrict xhat,
                              REAL *restrict tables, int64_t g_len,
                              int64_t mu, const int64_t b,
                              const int64_t xs, const int64_t ts)
{
    /* b columns of xhat (row stride xs) into tables (row stride ts). */
    const int64_t two_mu = (int64_t)1 << mu;
    const int64_t top = two_mu >> 1;
    for (int64_t g = 0; g < g_len; g++) {
        const REAL *x = xhat + g * mu * xs;
        REAL *t = tables + g * two_mu * ts;
        /* Entry 0: the all-minus pattern, folded ((-x0) - x1) - ... */
        for (int64_t c = 0; c < b; c++) {
            REAL base = -x[c];
            for (int64_t j = 1; j < mu; j++)
                base = base - x[j * xs + c];
            t[c] = base;
        }
        /* Doubling: step s flips coordinate mu-1-s to +1. */
        for (int64_t s = 0; s + 1 < mu; s++) {
            const int64_t half = (int64_t)1 << s;
            const REAL *xj = x + (mu - 1 - s) * xs;
            REAL *dst = t + half * ts;
            for (int64_t k = 0; k < half; k++)
                for (int64_t c = 0; c < b; c++)
                    dst[k * ts + c] = t[k * ts + c] + (REAL)2 * xj[c];
        }
        /* Upper half by negation symmetry. */
        for (int64_t i = 0; i < top; i++)
            for (int64_t c = 0; c < b; c++)
                t[(top + i) * ts + c] = -t[(top - 1 - i) * ts + c];
    }
}

/* Small batch (B <= 4 columns, a compile-time constant after
   inlining): R independent rows are folded together so their gathers
   overlap.  Each (row, column) accumulator starts at 0 and adds the
   tile's groups left to right. */
static INLINE void rows_REAL(const REAL *restrict tables, int64_t g_len,
                             int64_t two_mu, const uint8_t *restrict k,
                             int64_t groups, const REAL *restrict al,
                             REAL *restrict y, const int64_t R,
                             const int64_t B)
{
    REAL a[8][4];
    for (int64_t j = 0; j < R; j++)
        for (int64_t c = 0; c < B; c++)
            a[j][c] = 0;
    const REAL *t = tables;
    int64_t g = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    /* Eight keys per load; the groups are still added in order. */
    for (; g + 8 <= g_len; g += 8) {
        uint64_t w[8];
        for (int64_t j = 0; j < R; j++)
            memcpy(&w[j], k + j * groups + g, 8);
        for (int64_t q = 0; q < 8; q++, t += two_mu * B)
            for (int64_t j = 0; j < R; j++) {
                const REAL *tr = t + ((w[j] >> (8 * q)) & 0xff) * B;
                for (int64_t c = 0; c < B; c++)
                    a[j][c] += tr[c];
            }
    }
#endif
    for (; g < g_len; g++, t += two_mu * B)
        for (int64_t j = 0; j < R; j++) {
            const REAL *tr = t + k[j * groups + g] * B;
            for (int64_t c = 0; c < B; c++)
                a[j][c] += tr[c];
        }
    for (int64_t j = 0; j < R; j++)
        for (int64_t c = 0; c < B; c++)
            y[j * B + c] += a[j][c] * al[j];
}

static INLINE void small_REAL(const REAL *restrict tables, int64_t g_len,
                              int64_t two_mu, const uint8_t *restrict keys,
                              int64_t m, int64_t groups, int64_t g0,
                              int64_t bits, const REAL *restrict alphas,
                              REAL *restrict y, const int64_t R,
                              const int64_t B)
{
    int64_t r = 0;
    for (; r + R <= m; r += R)
        for (int64_t i = 0; i < bits; i++)
            rows_REAL(tables, g_len, two_mu,
                      keys + (i * m + r) * groups + g0, groups,
                      alphas + i * m + r, y + r * B, R, B);
    for (; r < m; r++)
        for (int64_t i = 0; i < bits; i++)
            rows_REAL(tables, g_len, two_mu,
                      keys + (i * m + r) * groups + g0, groups,
                      alphas + i * m + r, y + r * B, 1, B);
}

/* y (m, b) += the group tile [g0, g0 + g_len) for b > 4 columns, build
   and query fused: columns in chunks of CB, group blocks outer, rows
   inner.  Each block's tables are built from xhat (g_len, mu, b) for
   the chunk's columns only, into tbl (SCRATCH_BYTES: a cache-sized
   block, never the whole tile); then every (bit, row) column chunk
   accumulates from it contiguously in acc (bits * m * CB elements).
   Table entries are the numbers biq_build makes (build_REAL per
   column), and four groups are added per pass as
   (((a + t0) + t1) + t2) + t3: the same left fold as one group at a
   time.  build_ns, when not NULL, receives the time spent building. */
void biq_wide_SUFFIX(const REAL *restrict xhat, int64_t g_len, int64_t mu,
                     int64_t b, const uint8_t *restrict keys, int64_t m,
                     int64_t groups, int64_t g0, int64_t bits,
                     const REAL *restrict alphas, REAL *restrict y,
                     REAL *restrict acc, REAL *restrict tbl,
                     int64_t *build_ns)
{
    const int64_t two_mu = (int64_t)1 << mu;
    const int64_t chunk = 128 / (int64_t)sizeof(REAL);
    for (int64_t c0 = 0; c0 < b; c0 += chunk) {
        const int64_t cb = c0 + chunk < b ? chunk : b - c0;
        int64_t block = SCRATCH_BYTES / (two_mu * cb * (int64_t)sizeof(REAL));
        if (block < 1)
            block = 1;
        memset(acc, 0, (size_t)(bits * m * cb) * sizeof(REAL));
        for (int64_t gb = 0; gb < g_len; gb += block) {
            const int64_t gc = gb + block < g_len ? block : g_len - gb;
            const int64_t t0ns = build_ns ? now_ns() : 0;
            build_REAL(xhat + gb * mu * b + c0, tbl, gc, mu, cb, b, cb);
            if (build_ns)
                *build_ns += now_ns() - t0ns;
            for (int64_t r = 0; r < m; r++) {
                for (int64_t i = 0; i < bits; i++) {
                    const uint8_t *k = keys + (i * m + r) * groups + g0 + gb;
                    REAL *restrict a = acc + (i * m + r) * cb;
                    int64_t g = 0;
                    for (; g + 4 <= gc; g += 4) {
                        const REAL *t0 = tbl + (g * two_mu + k[g]) * cb;
                        const REAL *t1 =
                            tbl + ((g + 1) * two_mu + k[g + 1]) * cb;
                        const REAL *t2 =
                            tbl + ((g + 2) * two_mu + k[g + 2]) * cb;
                        const REAL *t3 =
                            tbl + ((g + 3) * two_mu + k[g + 3]) * cb;
                        for (int64_t c = 0; c < cb; c++)
                            a[c] = (((a[c] + t0[c]) + t1[c]) + t2[c]) + t3[c];
                    }
                    for (; g < gc; g++) {
                        const REAL *t0 = tbl + (g * two_mu + k[g]) * cb;
                        for (int64_t c = 0; c < cb; c++)
                            a[c] = a[c] + t0[c];
                    }
                }
            }
        }
        for (int64_t r = 0; r < m; r++) {
            REAL *restrict yr = y + r * b + c0;
            for (int64_t i = 0; i < bits; i++) {
                const REAL al = alphas[i * m + r];
                const REAL *restrict a = acc + (i * m + r) * cb;
                for (int64_t c = 0; c < cb; c++)
                    yr[c] = yr[c] + a[c] * al;
            }
        }
    }
}

void biq_build_SUFFIX(const REAL *xhat, REAL *tables, int64_t g_len,
                      int64_t mu, int64_t b)
{
    /* A constant b lets the compiler vectorize the small batches. */
    switch (b) {
    case 1:
        build_REAL(xhat, tables, g_len, mu, 1, 1, 1);
        break;
    case 2:
        build_REAL(xhat, tables, g_len, mu, 2, 2, 2);
        break;
    case 3:
        build_REAL(xhat, tables, g_len, mu, 3, 3, 3);
        break;
    case 4:
        build_REAL(xhat, tables, g_len, mu, 4, 4, 4);
        break;
    default:
        build_REAL(xhat, tables, g_len, mu, b, b, b);
    }
}

/* y (m, b) += the group tile [g0, g0 + g_len) of keys (bits, m,
   groups) against tables (g_len, 2^mu, b), scaled per bit plane by
   alphas (bits, m), for b <= 4 (SMALL_BATCH in native.py; wider
   batches take biq_wide). */
void biq_query_SUFFIX(const REAL *tables, int64_t g_len, int64_t mu,
                      int64_t b, const uint8_t *keys, int64_t m,
                      int64_t groups, int64_t g0, int64_t bits,
                      const REAL *alphas, REAL *y)
{
    const int64_t two_mu = (int64_t)1 << mu;
    switch (b) {
    case 1:
        small_REAL(tables, g_len, two_mu, keys, m, groups, g0, bits,
                   alphas, y, 8, 1);
        break;
    case 2:
        small_REAL(tables, g_len, two_mu, keys, m, groups, g0, bits,
                   alphas, y, 4, 2);
        break;
    case 3:
        small_REAL(tables, g_len, two_mu, keys, m, groups, g0, bits,
                   alphas, y, 4, 3);
        break;
    case 4:
        small_REAL(tables, g_len, two_mu, keys, m, groups, g0, bits,
                   alphas, y, 4, 4);
        break;
    }
}

"""

_PRELUDE = r"""
#define _POSIX_C_SOURCE 199309L
#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "float arithmetic must evaluate in the storage type"
#endif
#if defined(__GNUC__)
#define INLINE inline __attribute__((always_inline))
#else
#define INLINE inline
#endif

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}
"""

_PRELUDE += f"#define SCRATCH_BYTES ((int64_t){SCRATCH_BYTES})\n"

_TYPES = {
    np.dtype(np.float32): ("float", "f32"),
    np.dtype(np.float64): ("double", "f64"),
}

_FOLD_SOURCE = r"""
/* Attention folds, float64.  Each output element is one strict left
   fold along the contraction axis -- exactly numpy's
   cumsum(a * b)[-1]: acc = a[0] * b[0], then acc = acc + a[j] * b[j].
   (Seeding with the first product, not 0.0, keeps a -0.0 sum -0.0.)
   The blocks only interleave independent outputs: R <= 2 query rows by
   FOLD_J kv positions for scores, R rows by FOLD_C head_dim columns for
   the context, two lanes per GNU C vector.  Operands are (n0, n1, rows,
   cols) with element strides s0, s1 (0 broadcasts), a row stride and a
   unit last axis; out is contiguous. */

#define FOLD_J 8
#define FOLD_C 8

typedef double v2d __attribute__((vector_size(16)));

static INLINE v2d load2(const double *p)
{
    v2d r;
    memcpy(&r, p, sizeof r);
    return r;
}

/* R query rows (row stride qr) against one block of FOLD_J keys,
   transposed into kt[c * FOLD_J + j]; jb of them are real, the zero
   pad lanes are discarded. */
static INLINE void score_rows(const double *restrict q, int64_t qr,
                              const double *restrict kt, int64_t d,
                              double *restrict out, int64_t skv,
                              int64_t jb, const int64_t R)
{
    v2d acc[2][FOLD_J / 2];
    for (int64_t r = 0; r < R; r++) {
        const v2d qc = {q[r * qr], q[r * qr]};
        for (int64_t j = 0; j < FOLD_J / 2; j++)
            acc[r][j] = qc * load2(kt + 2 * j);
    }
    for (int64_t c = 1; c < d; c++) {
        v2d kc[FOLD_J / 2];
        for (int64_t j = 0; j < FOLD_J / 2; j++)
            kc[j] = load2(kt + c * FOLD_J + 2 * j);
        for (int64_t r = 0; r < R; r++) {
            const v2d qc = {q[r * qr + c], q[r * qr + c]};
            for (int64_t j = 0; j < FOLD_J / 2; j++)
                acc[r][j] = acc[r][j] + qc * kc[j];
        }
    }
    for (int64_t r = 0; r < R; r++) {
        double row[FOLD_J];
        memcpy(row, acc[r], sizeof row);
        memcpy(out + r * skv, row, (size_t)jb * sizeof(double));
    }
}

/* out (n0, n1, sq, skv) = q (.., sq, d) . k (.., skv, d)^T.  Returns
   -1 when the d * FOLD_J scratch cannot be allocated, else 0. */
int attn_scores_f64(const double *q, int64_t q0, int64_t q1, int64_t qr,
                    const double *k, int64_t k0, int64_t k1, int64_t kr,
                    double *out, int64_t n0, int64_t n1, int64_t sq,
                    int64_t skv, int64_t d)
{
    double *restrict kt = malloc((size_t)(d * FOLD_J) * sizeof(double));
    if (kt == NULL)
        return -1;
    for (int64_t a = 0; a < n0; a++)
        for (int64_t b = 0; b < n1; b++) {
            const double *qa = q + a * q0 + b * q1;
            const double *ka = k + a * k0 + b * k1;
            double *o = out + (a * n1 + b) * sq * skv;
            for (int64_t j0 = 0; j0 < skv; j0 += FOLD_J) {
                const int64_t jb = j0 + FOLD_J < skv ? FOLD_J : skv - j0;
                for (int64_t j = 0; j < jb; j++)
                    for (int64_t c = 0; c < d; c++)
                        kt[c * FOLD_J + j] = ka[(j0 + j) * kr + c];
                for (int64_t j = jb; j < FOLD_J; j++)
                    for (int64_t c = 0; c < d; c++)
                        kt[c * FOLD_J + j] = 0.0;
                int64_t i = 0;
                for (; i + 2 <= sq; i += 2)
                    score_rows(qa + i * qr, qr, kt, d, o + i * skv + j0,
                               skv, jb, 2);
                if (i < sq)
                    score_rows(qa + i * qr, qr, kt, d, o + i * skv + j0,
                               skv, jb, 1);
            }
        }
    free(kt);
    return 0;
}

/* R probability rows (row stride pr) against FOLD_C value columns
   (row stride vr). */
static INLINE void context_rows(const double *restrict p, int64_t pr,
                                const double *restrict v, int64_t vr,
                                int64_t skv, double *restrict out,
                                int64_t d, const int64_t R)
{
    v2d acc[2][FOLD_C / 2];
    for (int64_t r = 0; r < R; r++) {
        const v2d w = {p[r * pr], p[r * pr]};
        for (int64_t c = 0; c < FOLD_C / 2; c++)
            acc[r][c] = w * load2(v + 2 * c);
    }
    for (int64_t j = 1; j < skv; j++) {
        v2d vj[FOLD_C / 2];
        for (int64_t c = 0; c < FOLD_C / 2; c++)
            vj[c] = load2(v + j * vr + 2 * c);
        for (int64_t r = 0; r < R; r++) {
            const v2d w = {p[r * pr + j], p[r * pr + j]};
            for (int64_t c = 0; c < FOLD_C / 2; c++)
                acc[r][c] = acc[r][c] + w * vj[c];
        }
    }
    for (int64_t r = 0; r < R; r++)
        memcpy(out + r * d, acc[r], sizeof acc[r]);
}

/* One probability row against the cols < FOLD_C columns left over. */
static void context_tail(const double *restrict p,
                         const double *restrict v, int64_t vr,
                         int64_t skv, double *restrict out, int64_t cols)
{
    for (int64_t c = 0; c < cols; c++) {
        double acc = p[0] * v[c];
        for (int64_t j = 1; j < skv; j++)
            acc = acc + p[j] * v[j * vr + c];
        out[c] = acc;
    }
}

/* out (n0, n1, sq, d) = p (.., sq, skv) . v (.., skv, d). */
void attn_context_f64(const double *p, int64_t p0, int64_t p1, int64_t pr,
                      const double *v, int64_t v0, int64_t v1, int64_t vr,
                      double *out, int64_t n0, int64_t n1, int64_t sq,
                      int64_t skv, int64_t d)
{
    const int64_t dc = d - d % FOLD_C;
    for (int64_t a = 0; a < n0; a++)
        for (int64_t b = 0; b < n1; b++) {
            const double *pa = p + a * p0 + b * p1;
            const double *va = v + a * v0 + b * v1;
            double *o = out + (a * n1 + b) * sq * d;
            for (int64_t c = 0; c < dc; c += FOLD_C) {
                int64_t i = 0;
                for (; i + 2 <= sq; i += 2)
                    context_rows(pa + i * pr, pr, va + c, vr, skv,
                                 o + i * d + c, d, 2);
                if (i < sq)
                    context_rows(pa + i * pr, pr, va + c, vr, skv,
                                 o + i * d + c, d, 1);
            }
            if (dc < d)
                for (int64_t i = 0; i < sq; i++)
                    context_tail(pa + i * pr, va + dc, vr, skv,
                                 o + i * d + dc, d - dc);
        }
}
"""

SOURCE = (
    _PRELUDE
    + "".join(
        _SOURCE_TEMPLATE.replace("REAL", real).replace("SUFFIX", suffix)
        for real, suffix in _TYPES.values()
    )
    + _FOLD_SOURCE
)
"""The complete C translation unit (both real types, plus the float64
attention folds)."""


def _ptr(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _check(arr, name: str, dtype: np.dtype, size: int) -> None:
    """Raise unless *arr* is a C-contiguous *dtype* array of *size*
    elements -- what the C code assumes behind its raw pointer."""
    if (
        not isinstance(arr, np.ndarray)
        or arr.dtype != dtype
        or not arr.flags.c_contiguous
        or arr.size != size
    ):
        got = (
            f"{arr.dtype} {arr.shape}"
            if isinstance(arr, np.ndarray)
            else type(arr).__name__
        )
        raise ValueError(
            f"{name}: need a C-contiguous {dtype} array of {size} "
            f"elements, got {got}"
        )


class NativeWeights:
    """``keys (bits, m, groups)`` uint8 and ``alphas (bits, m)`` in the
    kernel dtype, validated once for repeated C queries.

    Holds references to both arrays (the C code reads them through raw
    pointers) plus the pointers and dimensions, so per-call work is
    limited to the buffers that change.
    """

    __slots__ = ("keys", "alphas", "bits", "m", "groups", "two_mu", "_ptrs")

    def __init__(self, keys: np.ndarray, alphas: np.ndarray, mu: int, dtype):
        bits, m, groups = keys.shape
        if not 1 <= mu <= MAX_NATIVE_MU:
            raise ValueError(f"mu must be in [1, {MAX_NATIVE_MU}], got {mu}")
        _check(keys, "keys", _KEY_DTYPE, bits * m * groups)
        _check(alphas, "alphas", np.dtype(dtype), bits * m)
        # A key indexes a 2^mu-entry table: out of range it would read
        # past it.  uint8 keys cannot exceed 2^8.
        if mu < 8 and keys.size and int(keys.max()) >= 1 << mu:
            raise ValueError(f"keys contain values >= 2**mu = {1 << mu}")
        self.keys, self.alphas = keys, alphas
        self.bits, self.m, self.groups = bits, m, groups
        self.two_mu = 1 << mu
        self._ptrs = (_ptr(keys), _ptr(alphas))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


MAX_CONCURRENT = max(1, _cpus() - 1)
"""C calls that may run at once in this process: one CPU fewer than the
process may use, and at least one.  The calls release the GIL, so
without a cap every serving thread could sit in the kernel at once and
leave no CPU for the threads that hold the GIL (batchers, schedulers,
request handlers); throughput then swings with whatever else the host
runs.  On two CPUs the kernel runs one call at a time while the other
CPU runs the interpreter."""

# One slot is a plain lock: a C-level lock, cheaper per call than the
# Python-level semaphore.
_SLOTS = (
    threading.Lock()
    if MAX_CONCURRENT == 1
    else threading.BoundedSemaphore(MAX_CONCURRENT)
)


class NativeKernel:
    """The C entry points for one real dtype.

    :meth:`build` and :meth:`query` serve batches of up to
    :data:`SMALL_BATCH` columns; :meth:`wide` builds and queries wider
    batches in one call.  Every call validates dtype, contiguity and
    sizes before passing pointers, runs with the GIL released, and
    holds one of the :data:`MAX_CONCURRENT` slots.
    """

    def __init__(self, lib: ctypes.CDLL, dtype: np.dtype):
        _, suffix = _TYPES[dtype]
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        self.dtype = dtype
        # Elements of the table scratch wide() needs.
        self.scratch_size = SCRATCH_BYTES // dtype.itemsize
        self._build = getattr(lib, f"biq_build_{suffix}")
        self._build.argtypes = [ptr, ptr, i64, i64, i64]
        self._build.restype = None
        self._query = getattr(lib, f"biq_query_{suffix}")
        self._query.argtypes = [ptr, i64, i64, i64, ptr] + [i64] * 4 + [
            ptr,
            ptr,
        ]
        self._query.restype = None
        self._wide = getattr(lib, f"biq_wide_{suffix}")
        self._wide.argtypes = [ptr, i64, i64, i64, ptr] + [i64] * 4 + [
            ptr,
            ptr,
            ptr,
            ptr,
            ptr,
        ]
        self._wide.restype = None

    def build(self, xhat: np.ndarray, tables: np.ndarray) -> None:
        """Fill ``tables (g_len, 2^mu, b)`` from ``xhat (g_len, mu, b)``
        exactly as :func:`repro.core.lut.build_tables_dp` does."""
        g_len, mu, b = xhat.shape
        _check(xhat, "xhat", self.dtype, g_len * mu * b)
        _check(tables, "tables", self.dtype, g_len * (1 << mu) * b)
        with _SLOTS:
            self._build(_ptr(xhat), _ptr(tables), g_len, mu, b)

    def query(
        self,
        tables: np.ndarray,
        weights: NativeWeights,
        g0: int,
        y: np.ndarray,
    ) -> None:
        """Accumulate one group tile into ``y (m, b)``, ``b <=``
        :data:`SMALL_BATCH`.

        *tables* is the tile's ``(g_len, 2^mu, b)`` block starting at
        group *g0* of the bound *weights*.
        """
        g_len, two_mu, b = tables.shape
        w = weights
        if b > SMALL_BATCH:
            raise ValueError(
                f"query serves up to {SMALL_BATCH} columns, got {b}; "
                f"wider batches use wide()"
            )
        if two_mu != w.two_mu or not 0 <= g0 <= w.groups - g_len:
            raise ValueError("tables do not match the key matrix")
        _check(tables, "tables", self.dtype, g_len * two_mu * b)
        _check(y, "y", self.dtype, w.m * b)
        keys, alphas = w._ptrs
        with _SLOTS:
            self._query(
                _ptr(tables), g_len, two_mu.bit_length() - 1, b, keys, w.m,
                w.groups, g0, w.bits, alphas, _ptr(y),
            )

    def acc_shape(self, bits: int, m: int, b: int) -> tuple:
        """Shape of the accumulator :meth:`wide` needs at *b* columns."""
        return (bits, m, min(b, 128 // self.dtype.itemsize))

    def wide(
        self,
        xhat: np.ndarray,
        weights: NativeWeights,
        g0: int,
        y: np.ndarray,
        acc: np.ndarray,
        scratch: np.ndarray,
        timed: bool = False,
    ) -> float:
        """Build and accumulate one group tile into ``y (m, b)`` for
        ``b >`` :data:`SMALL_BATCH` columns.

        *xhat* is the tile's ``(g_len, mu, b)`` input starting at group
        *g0*; *acc* is scratch of :meth:`acc_shape`, *scratch* holds
        :attr:`scratch_size` elements.  The tables are built block by
        block in *scratch*, never for the whole tile.  Returns the
        seconds spent building when *timed*, else 0.
        """
        g_len, mu, b = xhat.shape
        w = weights
        if b <= SMALL_BATCH:
            raise ValueError(f"wide serves more than {SMALL_BATCH} columns")
        if 1 << mu != w.two_mu or not 0 <= g0 <= w.groups - g_len:
            raise ValueError("xhat does not match the key matrix")
        _check(xhat, "xhat", self.dtype, g_len * mu * b)
        _check(y, "y", self.dtype, w.m * b)
        _check(acc, "acc", self.dtype, math.prod(self.acc_shape(w.bits, w.m, b)))
        _check(scratch, "scratch", self.dtype, self.scratch_size)
        keys, alphas = w._ptrs
        build_ns = ctypes.c_int64(0)
        with _SLOTS:
            self._wide(
                _ptr(xhat), g_len, mu, b, keys, w.m, w.groups, g0, w.bits,
                alphas, _ptr(y), _ptr(acc), _ptr(scratch),
                ctypes.byref(build_ns) if timed else None,
            )
        return build_ns.value * 1e-9


_F64 = np.dtype(np.float64)


def _operand(arr: np.ndarray, lead: tuple) -> tuple:
    """``(array, s0, s1, row)``: *arr* ``(*lead, rows, cols)`` (at
    most two *lead* dims) read through element strides -- 0 for a
    broadcast dim -- with a unit last axis.  Views that already have
    that layout (``_split`` transposes, KV-cache capacity slices) are
    read in place; others are copied."""
    if arr.shape[:-2] != lead:
        arr = np.broadcast_to(arr, lead + arr.shape[-2:])
    strides = arr.strides
    if (
        not arr.flags.aligned
        or (strides[-1] != 8 and arr.shape[-1] > 1)
        or any(s % 8 for s in strides)
    ):
        arr = np.ascontiguousarray(arr)
        strides = arr.strides
    s0, s1, row = (
        0 if n == 1 else s // 8
        for n, s in zip((1, 1, *arr.shape)[-4:-1], (0, 0, *strides)[-4:-1])
    )
    return arr, s0, s1, row


class FoldKernel:
    """The float64 attention folds: ``q . k^T`` (:meth:`scores`) and
    ``attn . v`` (:meth:`context`), each output element one strict left
    fold in numpy's ``cumsum`` order (see ``_FOLD_SOURCE``).

    Operands are float64 arrays ``(..., rows, cols)`` whose leading
    dims broadcast; contractions are at least one element long.  The
    result is written straight into *out* when it is a C-contiguous
    float64 array of the result's shape that overlaps no operand, else
    copied into it.  Every
    call runs with the GIL released and holds one of the
    :data:`MAX_CONCURRENT` slots.
    """

    def __init__(self, lib: ctypes.CDLL):
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        self._scores = lib.attn_scores_f64
        self._context = lib.attn_context_f64
        for fn in (self._scores, self._context):
            fn.argtypes = [ptr, i64, i64, i64] * 2 + [ptr] + [i64] * 5
        self._scores.restype = ctypes.c_int
        self._context.restype = None

    def scores(self, q: np.ndarray, k: np.ndarray, out=None) -> np.ndarray:
        """``(..., seq_q, d) x (..., seq_kv, d) -> (..., seq_q,
        seq_kv)``."""
        sq, d = q.shape[-2:]
        skv = k.shape[-2]
        if k.shape[-1] != d or d < 1:
            raise ValueError(f"cannot contract {q.shape} with {k.shape}")
        return self._fold(self._scores, q, k, (sq, skv, d), skv, out)

    def context(self, attn: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
        """``(..., seq_q, seq_kv) x (..., seq_kv, d) -> (..., seq_q,
        d)``."""
        sq, skv = attn.shape[-2:]
        d = v.shape[-1]
        if v.shape[-2] != skv or skv < 1:
            raise ValueError(f"cannot contract {attn.shape} with {v.shape}")
        return self._fold(self._context, attn, v, (sq, skv, d), d, out)

    def _fold(self, fn, a, b, dims, cols, out):
        if a.dtype != _F64 or b.dtype != _F64:
            raise ValueError("the folds take float64 operands")
        lead = a.shape[:-2]
        if b.shape[:-2] != lead:
            lead = np.broadcast_shapes(lead, b.shape[:-2])
        shape = lead + (dims[0], cols)
        direct = (
            isinstance(out, np.ndarray)
            and out.dtype == _F64
            and out.shape == shape
            and out.flags.c_contiguous
            and out.flags.writeable
            # The C code writes while it reads: never into an operand.
            and not np.may_share_memory(out, a)
            and not np.may_share_memory(out, b)
        )
        res = out if direct else np.empty(shape)
        if len(lead) > 2:
            # The attention layer passes at most two; fold each outer
            # index of deeper operands on its own.
            a = np.broadcast_to(a, lead + a.shape[-2:])
            b = np.broadcast_to(b, lead + b.shape[-2:])
            for idx in np.ndindex(lead[:-2]):
                self._fold(fn, a[idx], b[idx], dims, cols, res[idx])
        else:
            a, a0, a1, ar = _operand(a, lead)
            b, b0, b1, br = _operand(b, lead)
            n0, n1 = ((1, 1) + lead)[-2:]
            with _SLOTS:
                failed = fn(_ptr(a), a0, a1, ar, _ptr(b), b0, b1, br,
                            _ptr(res), n0, n1, *dims)
            if failed:
                raise MemoryError("attention fold scratch")
        if out is None or direct:
            return res
        np.copyto(out, res)
        return out


def _cache_dirs() -> list[str]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    user = os.getuid() if hasattr(os, "getuid") else "user"
    return [
        os.path.join(base, "repro"),
        os.path.join(tempfile.gettempdir(), f"repro-{user}"),
    ]


def _writable_dir() -> str:
    """The first cache directory this user owns and can write.  A
    directory someone else owns is skipped: a library loaded from it
    would run their code."""
    for path in _cache_dirs():
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            owner = os.stat(path).st_uid
        except OSError:
            continue
        mine = not hasattr(os, "getuid") or owner == os.getuid()
        if mine and os.access(path, os.W_OK | os.X_OK):
            return path
    raise OSError("no writable cache directory for the native kernel")


def _compile(cc: list[str], path: str) -> None:
    """Compile :data:`SOURCE` to *path*, published atomically."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=".build-", suffix=".so"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, *FLAGS, "-x", "c", "-", "-o", tmp],
            input=SOURCE,
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{shlex.join(cc)} failed: {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _Library:
    """Process-wide lazy loader: compile-or-load once, remember why not."""

    def __init__(self):
        self._lock = threading.Lock()
        self._loaded = False
        self.kernels: dict[np.dtype, NativeKernel] = {}
        self.folds: FoldKernel | None = None
        self.reason = ""
        self.path: str | None = None

    def load(self) -> "_Library":
        if self._loaded:
            return self
        with self._lock:
            if not self._loaded:
                try:
                    self._load()
                except (
                    OSError,
                    RuntimeError,
                    subprocess.SubprocessError,
                ) as exc:
                    self.kernels, self.folds = {}, None
                    self.reason = f"{type(exc).__name__}: {exc}"
                    logger.warning(
                        "native BiQGEMM kernel unavailable, using the "
                        "numpy path (%s)",
                        self.reason,
                    )
                self._loaded = True
        return self

    def _load(self) -> None:
        cc = shlex.split(os.environ.get("CC") or "cc")
        version = subprocess.run(
            [*cc, "--version"],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        digest = hashlib.sha256(
            "\0".join(
                (SOURCE, version, " ".join(FLAGS), platform.machine())
            ).encode()
        ).hexdigest()[:24]
        path = os.path.join(_writable_dir(), f"biqgemm-{digest}.so")
        self.reason = "cached"
        if not os.path.exists(path):
            _compile(cc, path)
            self.reason = "compiled"
        lib = ctypes.CDLL(path)
        self.kernels = {dt: NativeKernel(lib, dt) for dt in _TYPES}
        self.folds = FoldKernel(lib)
        self.path = path


_LIBRARY = _Library()


def kernel_for(dtype, mu: int) -> NativeKernel | None:
    """The native kernel for *dtype* at LUT-unit *mu*, or None when the
    numpy path must serve (no compiler, float16, ``mu > 8``)."""
    if mu > MAX_NATIVE_MU:
        return None
    return _LIBRARY.load().kernels.get(np.dtype(dtype))


def fold_kernel() -> FoldKernel | None:
    """The float64 attention folds, or None when numpy must serve (no
    compiler)."""
    return _LIBRARY.load().folds


def status() -> dict:
    """Which path serves: ``{"available", "reason", "path"}``.  The LUT
    kernel and the attention folds share one library, so both serve or
    neither does.

    ``reason`` is ``"compiled"`` or ``"cached"`` when the library
    loaded, else the error that forced the numpy fallback.  The first
    call builds (or loads) the library.
    """
    lib = _LIBRARY.load()
    return {
        "available": bool(lib.kernels),
        "reason": lib.reason,
        "path": lib.path,
    }
