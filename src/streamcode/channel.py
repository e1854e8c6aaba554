"""Adversarial channel: corruption strategies under a fractional error budget.

The channel may change at most floor(rho * m) positions of an m-position
word; erasures cost one half each (so the budget is tracked in dist2 units:
2 per substitution, 1 per erasure).  Strategies that want more corruption
than the budget allows are truncated, never extended.  All strategies are
deterministic functions of the rng handed in.

The caller declares the word's alphabet with field_k, as for stream files:
0 means bits, k >= 1 means GF(2^k) symbols.  A strategy only picks
positions; one batched step then charges the budget and substitutes.  Bits
are flipped; a symbol gets a uniformly random different symbol of GF(2^k)
(or an erasure, for the mixing strategy).  blockzero is the window-correlated
zeroing heuristic: it picks one random offset and zeroes the blocks whose
sliding window lands inside the word, in order, until the budget runs out —
a structured, bursty pattern that stresses decoders whose reads cluster,
with no optimality claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .codes import word_dist2
from .gf import ERASE


@dataclass
class ErrorBudget:
    rho: Fraction
    m: int
    charged2: int = 0  # dist2 units spent

    def __post_init__(self):
        self.rho = Fraction(self.rho)

    @property
    def limit(self) -> int:
        """Maximum number of whole-position changes: floor(rho * m)."""
        f = self.rho * self.m
        return f.numerator // f.denominator

    @property
    def limit2(self) -> int:
        return 2 * self.limit

    def charge(self, subs: int, erasures: int = 0) -> tuple[int, int]:
        """Charge as many of `subs` substitutions (2 units each), then of
        `erasures` (1 unit each), as still fit; return the two counts."""
        left2 = self.limit2 - self.charged2
        s = max(0, min(subs, left2 // 2))
        e = max(0, min(erasures, left2 - 2 * s))
        self.charged2 += 2 * s + e
        return s, e


@dataclass
class AttackStrategy:
    """name in {uniform, burst, copy_kill, blockzero, erasure_mix} plus
    strategy-specific options (copy_len, target_copy, block_len, window_step)."""

    name: str
    options: dict = dc_field(default_factory=dict)


def corrupt(word, strategy: AttackStrategy, budget: ErrorBudget, rng,
            field_k: int = 0) -> np.ndarray:
    """A corrupted copy of a word over bits (field_k == 0) or GF(2^field_k);
    never exceeds the budget.  A value outside the alphabet, a dtype that
    cannot hold every symbol, or erasure_mix on an unsigned dtype (which
    cannot hold ERASE) raises ValueError before any rng draw."""
    word = np.array(word)
    q = 1 << max(field_k, 1)
    if word.min(initial=0) < 0 or word.max(initial=0) >= q:
        raise ValueError(f"word value outside the alphabet of size {q}")
    if np.iinfo(word.dtype).max < q - 1:
        raise ValueError(f"dtype {word.dtype} cannot hold every symbol of an alphabet of size {q}")
    m, opts = len(word), strategy.options
    left = budget.limit - budget.charged2 // 2  # whole changes still allowed
    era = np.empty(0, dtype=np.intp)
    if strategy.name == "uniform":
        sub = np.array(rng.sample(range(m), min(left, m)), dtype=np.intp)
        sub.sort()
    elif strategy.name == "burst":
        k = min(left, m)
        start = rng.randrange(max(1, m - k + 1))
        sub = np.arange(start, start + k)
    elif strategy.name == "copy_kill":
        copy_len = opts["copy_len"]
        target = opts.get("target_copy")
        if target is None:
            target = rng.randrange(m // copy_len)
        base = target * copy_len
        sub = np.array(rng.sample(range(base, base + copy_len),
                                  min(copy_len, left)), dtype=np.intp)
        sub.sort()
    elif strategy.name == "blockzero":
        # block i is hit while its window [j + i*step, j + (i+1)*step) fits
        block_len, step = opts["block_len"], opts["window_step"]
        j = rng.randrange(max(1, step))
        n_blocks = min(m // block_len, max(0, m - j) // max(1, step))
        sub = np.flatnonzero(word[:n_blocks * block_len])
    elif strategy.name == "erasure_mix":
        if field_k == 0:
            raise ValueError("erasure_mix needs a symbol word")
        if word.dtype.kind == "u":
            raise ValueError(f"erasure_mix needs a signed dtype to hold ERASE, not {word.dtype}")
        B = budget.limit
        flips = B // 2
        pos = np.array(rng.sample(range(m), min(flips + 2 * (B - flips), m)),
                       dtype=np.intp)
        sub, era = pos[:flips], pos[flips:]
    else:
        raise ValueError(f"unknown strategy {strategy.name!r}")

    n_sub, n_era = budget.charge(len(sub), len(era))
    sub = sub[:n_sub]
    if strategy.name == "blockzero":
        delta = word[sub]
    elif q == 2:
        delta = 1
    else:  # x ^ d for uniform nonzero d is uniform over the other symbols
        delta = np.array([rng.randrange(1, q) for _ in range(n_sub)],
                         dtype=word.dtype)
    word[sub] ^= delta
    if n_era:
        word[era[:n_era]] = ERASE
    return word


corruption_dist2 = word_dist2  # dist2 between the clean and the corrupted word
