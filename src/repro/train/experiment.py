"""Table I proxy experiments: quantization quality versus bit width.

Two complementary measurements (both substitutions for the paper's
WMT'13 BLEU, documented in :mod:`repro.train`):

:func:`weight_sqnr_sweep`
    Reconstruction SQNR of BCQ (greedy / alternating) and uniform
    quantization on Gaussian Transformer-shaped weight matrices -- the
    direct signal-quality analogue.
:func:`accuracy_vs_bits`
    Test accuracy of a trained student classifier after post-training
    weight quantization -- the task-quality analogue.  Expected shape
    (matching Table I): >=3-bit BCQ nearly lossless, 2-bit small drop,
    1-bit severe, uniform needing more bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.quant.bcq import bcq_quantize
from repro.quant.error import sqnr_db
from repro.quant.uniform import uniform_quantize
from repro.train.data import make_teacher_task
from repro.train.mlp import MLPClassifier

__all__ = ["QuantQualityRow", "accuracy_vs_bits", "weight_sqnr_sweep"]

SCHEMES = ("bcq-greedy", "bcq-alternating", "uniform")


@dataclass(frozen=True)
class QuantQualityRow:
    """One row of the Table I proxy."""

    scheme: str
    bits: int
    accuracy: float
    baseline_accuracy: float

    @property
    def drop(self) -> float:
        """Accuracy lost relative to the float baseline (positive = worse)."""
        return self.baseline_accuracy - self.accuracy


def _dequant_fn(scheme: str, bits: int):
    if scheme == "bcq-greedy":
        return lambda w: bcq_quantize(w, bits, method="greedy").dequantize()
    if scheme == "bcq-alternating":
        return lambda w: bcq_quantize(w, bits, method="alternating").dequantize()
    if scheme == "uniform":
        if bits < 2:
            # A 1-bit uniform grid has a single magnitude level; model it
            # through the symmetric grid with bits=2's degenerate subset
            # by clamping to sign * scale.
            def one_bit(w: np.ndarray) -> np.ndarray:
                scale = np.abs(w).max()
                return np.where(w >= 0, scale, -scale)

            return one_bit
        return lambda w: uniform_quantize(w, bits, per_row=True).dequantize()
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def accuracy_vs_bits(
    *,
    bits_list: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    schemes: tuple[str, ...] = SCHEMES,
    epochs: int = 25,
    seed: int = 0,
) -> tuple[float, list[QuantQualityRow]]:
    """Train the student once, then sweep PTQ schemes and bit widths.

    Returns ``(baseline_accuracy, rows)``.  Deterministic for a given
    seed.
    """
    check_positive_int(epochs, "epochs")
    task = make_teacher_task(seed=seed)
    model = MLPClassifier(
        (task.x_train.shape[1], 64, 48, task.classes), seed=seed + 1
    )
    model.fit(task.x_train, task.y_train, epochs=epochs, seed=seed + 2)
    baseline = model.accuracy(task.x_test, task.y_test)
    rows: list[QuantQualityRow] = []
    for scheme in schemes:
        for bits in bits_list:
            quantized = model.with_transformed_weights(_dequant_fn(scheme, bits))
            acc = quantized.accuracy(task.x_test, task.y_test)
            rows.append(
                QuantQualityRow(
                    scheme=scheme,
                    bits=bits,
                    accuracy=acc,
                    baseline_accuracy=baseline,
                )
            )
    return baseline, rows


def weight_sqnr_sweep(
    *,
    shapes: tuple[tuple[int, int], ...] = ((512, 512), (2048, 512)),
    bits_list: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    schemes: tuple[str, ...] = SCHEMES,
    seed: int = 0,
) -> list[dict[str, object]]:
    """Reconstruction SQNR (dB) per scheme/bits on Gaussian weights.

    Gaussian matrices model trained Transformer weights (which are
    near-Gaussian per row); shapes default to the paper's base-model
    attention and feed-forward blocks.
    """
    rng = np.random.default_rng(seed)
    rows: list[dict[str, object]] = []
    for m, n in shapes:
        check_positive_int(m, "shape m")
        check_positive_int(n, "shape n")
        w = rng.standard_normal((m, n)) * 0.05
        for scheme in schemes:
            for bits in bits_list:
                approx = _dequant_fn(scheme, bits)(w)
                rows.append(
                    {
                        "shape": f"{m}x{n}",
                        "scheme": scheme,
                        "bits": bits,
                        "sqnr_db": sqnr_db(w, approx),
                    }
                )
    return rows
