"""Greedy decoding with a fully quantized seq2seq Transformer.

Runs in under a minute::

    python examples/nmt_decode.py

The paper's Table I workload is an En-De NMT Transformer.  Trained
checkpoints are not reproducible offline (see ``repro.train``), but the
*system* is: this example assembles the complete translation inference
path -- encoder, causal decoder, generator -- with every projection
running on BiQGEMM, and compares the token streams and next-token
distributions produced by the float and quantized models.
"""

import numpy as np

from repro.nn.functional import softmax
from repro.nn.linear import QuantSpec
from repro.nn.seq2seq import Seq2SeqTransformer
from repro.nn.transformer import TransformerConfig


def main() -> None:
    # Transformer-base topology at 1/8 width so pure Python decodes in
    # seconds: dim 64, 2+2 layers, vocabulary of 64 sub-words.
    cfg = TransformerConfig(dim=64, heads=8, ff_dim=256, layers=2)
    vocab, bos, eos = 64, 1, 2

    float_model = Seq2SeqTransformer(cfg, vocab, np.random.default_rng(21))
    quant_model = Seq2SeqTransformer(
        cfg,
        vocab,
        np.random.default_rng(21),
        spec=QuantSpec(bits=3, mu=8, method="alternating"),
    )

    rng = np.random.default_rng(5)
    src = rng.integers(3, vocab, size=(3, 9))

    out_f = float_model.greedy_decode(src, bos=bos, eos=eos, max_len=12)
    out_q = quant_model.greedy_decode(src, bos=bos, eos=eos, max_len=12)

    print("source -> float decode | 3-bit BiQGEMM decode")
    for s, f, q in zip(src, out_f, out_q):
        print(f"  {s.tolist()} ->")
        print(f"    float: {f.tolist()}")
        print(f"    quant: {q.tolist()}")

    # Token-level agreement plus distribution distance at the first
    # decoding step (the quantitative view of "how much did 3 bits
    # change the model").
    agree = (out_f[:, : out_q.shape[1]] == out_q[:, : out_f.shape[1]]).mean()
    memory_f = float_model.encode(src)
    memory_q = quant_model.encode(src)
    step = np.full((src.shape[0], 1), bos, dtype=np.int64)
    p_f = softmax(float_model.decode_step(step, memory_f), axis=-1)
    p_q = softmax(quant_model.decode_step(step, memory_q), axis=-1)
    tvd = 0.5 * np.abs(p_f - p_q).sum(axis=-1).mean()
    print(f"\ntoken agreement: {agree:.2%}")
    print(f"mean total-variation distance of first-step distributions: {tvd:.4f}")
    print("(random weights: the comparison shows the *system* fidelity, "
          "not translation quality)")


if __name__ == "__main__":
    main()
