"""Adversarial channel: corruption strategies under a fractional error budget.

The channel may change at most floor(rho * m) positions of an m-position
word; erasures cost one half each (so the budget is tracked in dist2 units:
2 per substitution, 1 per erasure).  Strategies that want more corruption
than the budget allows are truncated, never extended.  All strategies are
deterministic functions of the rng handed in.

Binary words are flipped; symbol words get a uniformly random different
symbol (or an erasure, for the mixing strategy).  blockzero_attack is the
window-correlated zeroing heuristic: it picks one random offset and zeroes
the blocks whose sliding window lands inside the word, in order, until the
budget runs out — a structured, bursty pattern that stresses decoders whose
reads cluster, with no optimality claim.
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

    def try_charge(self, units2: int) -> bool:
        if self.charged2 + units2 > self.limit2:
            return False
        self.charged2 += units2
        return True


@dataclass
class AttackStrategy:
    """name in {uniform, burst, copy_kill, blockzero, erasure_mix} plus
    strategy-specific options (copy_len, target_copy, block_len, window_step)."""

    name: str
    options: dict = dc_field(default_factory=dict)


def corrupt(word, strategy: AttackStrategy, budget: ErrorBudget, rng) -> np.ndarray:
    """A corrupted copy of the word; never exceeds the budget."""
    word = np.asarray(word).copy()
    binary = bool(word.max(initial=0) <= 1 and word.min(initial=0) >= 0)
    opts = strategy.options
    if strategy.name == "uniform":
        k = min(budget.limit - budget.charged2 // 2, len(word))
        for p in sorted(rng.sample(range(len(word)), k)):
            if budget.try_charge(2):
                _substitute(word, p, binary, rng)
    elif strategy.name == "burst":
        k = min(budget.limit - budget.charged2 // 2, len(word))
        start = rng.randrange(max(1, len(word) - k + 1))
        for p in range(start, start + k):
            if budget.try_charge(2):
                _substitute(word, p, binary, rng)
    elif strategy.name == "copy_kill":
        copy_len = opts["copy_len"]
        n_copies = len(word) // copy_len
        target = opts.get("target_copy")
        if target is None:
            target = rng.randrange(n_copies)
        base = target * copy_len
        k = min(copy_len, budget.limit - budget.charged2 // 2)
        for off in sorted(rng.sample(range(copy_len), k)):
            if budget.try_charge(2):
                _substitute(word, base + off, binary, rng)
    elif strategy.name == "blockzero":
        word = blockzero_attack(word, opts["block_len"], opts["window_step"],
                                rng, budget=budget)
    elif strategy.name == "erasure_mix":
        if binary:
            raise ValueError("erasure_mix needs a symbol word")
        B = budget.limit
        flips = B // 2
        erasures = 2 * (B - flips)
        take = min(flips + erasures, len(word))
        positions = rng.sample(range(len(word)), take)
        for p in positions[:flips]:
            if budget.try_charge(2):
                _substitute(word, p, binary, rng)
        for p in positions[flips:]:
            if word[p] != ERASE and budget.try_charge(1):
                word[p] = ERASE
    else:
        raise ValueError(f"unknown strategy {strategy.name!r}")
    return word


def _substitute(word, p: int, binary: bool, rng):
    if binary:
        word[p] ^= 1
    else:
        hi = int(word.max()) | 1  # stay inside the observed alphabet range
        v = rng.randrange(hi + 1)
        word[p] = v if v != word[p] else (v + 1) % (hi + 1)


def blockzero_attack(word, block_len: int, window_step: int, rng,
                     budget: ErrorBudget | None = None) -> np.ndarray:
    """Zero out blocks selected by a sliding window at a random offset.

    Block i (positions [i*block_len, (i+1)*block_len)) is zeroed when its
    window [j + i*window_step, j + (i+1)*window_step) still lies inside the
    word, where j is one uniform offset.  Zeroing proceeds in block order and
    stops when the budget is spent; only positions that actually change are
    charged.  This is a cheap structured-burst heuristic, not an optimized
    adversary.
    """
    word = np.asarray(word).copy()
    if budget is None:
        budget = ErrorBudget(Fraction(1), len(word))
    j = rng.randrange(max(1, window_step))
    n_blocks = len(word) // block_len
    for i in range(n_blocks):
        if j + (i + 1) * window_step > len(word):
            break
        blk = slice(i * block_len, (i + 1) * block_len)
        for p in range(blk.start, blk.stop):
            if word[p] != 0:
                if not budget.try_charge(2):
                    return word
                word[p] = 0
    return word


corruption_dist2 = word_dist2  # dist2 between the clean and the corrupted word
