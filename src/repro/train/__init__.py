"""Tiny numpy training substrate for the Table I accuracy proxy.

The paper's Table I reports BLEU of a WMT'13 En-De Transformer after
weight quantization -- not reproducible offline.  The substitution
trains a small teacher-student classifier in pure
numpy and measures test accuracy after post-training quantization of the
student's weights at 1-8 bits under BCQ (greedy / alternating) and
uniform schemes.  The *shape* to reproduce: >=3-bit BCQ is nearly
lossless, 2-bit drops a little, 1-bit collapses, and uniform needs more
bits than BCQ for the same quality.

- :mod:`repro.train.data` -- the synthetic classification task;
- :mod:`repro.train.mlp` -- an MLP classifier with SGD training;
- :mod:`repro.train.experiment` -- the accuracy-vs-bits sweep and the
  weight-SQNR sweep on Transformer-shaped matrices.
"""

from repro.train.data import make_teacher_task
from repro.train.mlp import MLPClassifier
from repro.train.experiment import (
    QuantQualityRow,
    accuracy_vs_bits,
    weight_sqnr_sweep,
)

__all__ = [
    "make_teacher_task",
    "MLPClassifier",
    "QuantQualityRow",
    "accuracy_vs_bits",
    "weight_sqnr_sweep",
]
