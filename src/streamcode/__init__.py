"""Stream-decodable error-correcting codes.

Library layout:

- gf            — GF(2^k) arithmetic, polynomials, subfield packing
- codes         — generator-matrix linear codes: Reed-Solomon, Reed-Muller,
                  concatenation, decoding (unique / list / brute)
- ldc_core      — Reed-Muller locally decodable code read along random curves
- ldc_binary    — binary locally decodable code with smooth and advice decoding
- ldc_large     — large-alphabet locally decodable code and query-list sampling
- stream        — single-pass symbol streams, in-order output tapes, memory ledger
- codec_repeat  — near-quadratic repeated-LDC codec with a two-phase stream decoder
- codec_tensor  — tensor encoding and the near-linear tensor codec decoding
                  private linear functions
- channel       — adversarial corruption strategies under a fractional error budget
- profiles      — named parameter sets sized for desk-scale experiments
- cli           — the `streamcode` command line tool
"""

__version__ = "0.1.0"
