"""Large-alphabet locally decodable code over K = GF(2^k), linear over K.

The Reed-Muller core (ldc_core) with F = GF(2^(k*e)), so each field symbol
packs e message symbols, and a K-linear inner code.  Codewords live in K^R
and received words in (K ∪ {⊥})^R, with erasures charged one half in all
distances.

smooth_local_decode_large returns a ConfidenceDist: exact Fractional masses
on field symbols plus an erasure mass, summing to one.  Per curve, the unique
decoding within radius 1/2 - eps/2 (erasure-aware) is realized by zeroing
erasures, list decoding within radius 1 - eps/2, and keeping the candidate of
least true distance among those within the unique radius; a decoded curve
contributes mass 1 - 2*delta on its symbol and 2*delta on ⊥.  The scan is
the curve code's codes.Codebook scan over a stack of words, SCAN_CHUNK words
at a time: one table of block distances to the |F| inner codewords, then per
group of blocks one take over every curve message, shared by the stack.  A
caller holding many curve words (the tensor decoder's level-1 nodes) decodes
them in one call to decode_curves_large and folds each plan's share with
confidence_from_decoded.

gen_qlists draws per-index query plans whose positions respect a global
overlap cap (no position serves more than ceil(3 r Q^2 / R) of the r lists),
resampling each list at most Q^2 times.  The plans keep their curve structure
so a caller can replay the exact queries against gathered values later; a
UniformQuerySpec gives the same interface for synthetic stress tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import GF, FieldSpec
from .codes import LinearCode, codebook
from .ldc_core import RmLdc, SmoothPlan, gather, sample_smooth_plan


class ResampleExhausted(Exception):
    """A query list could not be placed under the overlap cap within Q^2 tries."""


@dataclass
class ConfidenceDist:
    """Exact mass on field symbols plus erasure mass; totals one."""

    field_mass: dict
    p_bot: Fraction

    def __post_init__(self):
        total = sum(self.field_mass.values(), start=Fraction(0)) + self.p_bot
        assert total == 1, f"confidence masses must sum to one, got {total}"

    def merged(self):
        """Cancel competing symbols pairwise: repeatedly take the two largest
        masses a >= b, move b from each onto ⊥, until one symbol remains.
        Returns (sigma or None, p_sigma, p_bot)."""
        masses = {s: m for s, m in self.field_mass.items() if m > 0}
        bot = self.p_bot
        while len(masses) > 1:
            (s1, m1), (s2, m2) = sorted(masses.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
            cut = min(m1, m2)
            masses[s1] = m1 - cut
            masses[s2] = m2 - cut
            bot += 2 * cut
            masses = {s: m for s, m in masses.items() if m > 0}
        if not masses:
            return None, Fraction(0), bot
        (sigma, mass), = masses.items()
        return sigma, mass, bot


@dataclass
class LargeLdcParams(RmLdc):
    K: FieldSpec            # message alphabet
    e: int                  # packing degree; RM alphabet F = GF(2^(k*e))
    m: int
    d: int
    inner: LinearCode       # K-linear inner code with msg_len == e
    r: int                  # message length in K-symbols
    eps: Fraction
    t: int = 3

    def __post_init__(self):
        self.F = GF(self.K.k * self.e)
        self._init_core()

    msg_len = property(lambda self: self.r)
    t_smooth = property(lambda self: self.t)
    capacity_syms = RmLdc.capacity
    queries = RmLdc.queries_smooth

    @property
    def smoothness_bound(self) -> Fraction:
        """Per-index query probability bound t(q-1)/q^m == Q/R."""
        return Fraction(self.t * (self.F.q - 1), self.num_blocks)

    def describe(self) -> dict:
        return {"k": self.K.k, "e": self.e, "q": self.F.q, "m": self.m,
                "d": self.d, "r": self.r, "eps": str(self.eps), "t": self.t,
                "code_len": self.code_len, "inner": self.inner.describe()}


# ---------------------------------------------------------------------------
# smooth local decoding

SCAN_CHUNK = 16  # words per stacked scan; bounds its (words, messages) table


def decode_curves_large(params: LargeLdcParams, words) -> list:
    """Per word, (h(0), dist2) of the closest curve codeword within
    erasure-aware relative radius 1/2 - eps/2, or None.

    Conceptually: zero the erasures, list decode within radius 1 - eps/2
    (zeroing can inflate each erasure's charge from 1/2 to at most 1, so that
    list contains every candidate within the true radius), then re-check with
    the erasure-aware distance.  Since the scan is exhaustive anyway, one
    erasure-aware scan computes the same closest-in-radius answer."""
    cb = codebook(params.curve_code)
    L = params.curve_code.code_len
    radius2 = math.floor((Fraction(1, 2) - params.eps / 2) * 2 * L)
    # the top e K-digits of a message index are the packing of h(0)
    top = params.F.q ** (params.curve_code.outer.msg_len - 1)
    words = np.asarray(words, dtype=np.int32).reshape(-1, L)
    out = []
    for s in range(0, len(words), SCAN_CHUNK):
        d2 = cb.dist2_scan(words[s:s + SCAN_CHUNK])
        best = d2.argmin(axis=1)  # ties break to the smallest message index
        least = d2[np.arange(len(best)), best]
        del d2  # free this chunk's table before the next one is built
        for i, e in zip(best.tolist(), least.tolist()):
            out.append(None if e > radius2 else (int(params.packing.sym[i // top]), e))
    return out


def confidence_from_decoded(params: LargeLdcParams, plan: SmoothPlan,
                            decoded) -> ConfidenceDist:
    """Fold the decode_curves_large outcomes of a plan's curve words."""
    t = params.t
    L2 = 2 * params.curve_code.code_len
    mass: dict = {}
    bot = Fraction(0)
    for got in decoded:
        if got is None:
            bot += Fraction(1, t)
            continue
        h0, d2 = got
        sigma = int(params.inner_words[h0, plan.offset])
        delta = Fraction(d2, L2)
        mass[sigma] = mass.get(sigma, Fraction(0)) + (1 - 2 * delta) / t
        bot += 2 * delta / t
    return ConfidenceDist(mass, bot)


def confidence_from_words_large(params: LargeLdcParams, plan: SmoothPlan,
                                words) -> ConfidenceDist:
    return confidence_from_decoded(params, plan, decode_curves_large(params, words))


def smooth_local_decode_large(oracle, i: int, params: LargeLdcParams, rng,
                              index: str = "message") -> ConfidenceDist:
    plan = sample_smooth_plan(params, i, rng, index=index)
    return confidence_from_words_large(params, plan, gather(oracle, plan.positions))


# ---------------------------------------------------------------------------
# query lists

@dataclass
class UniformQuerySpec:
    """Synthetic stand-in for gen_qlists stress tests: r lists of Q uniform
    positions out of R, no curve structure."""

    r: int
    Q: int
    R: int
    cap: int | None = None


@dataclass
class QueryLists:
    lists: list           # r arrays of Q position indices
    plans: list           # per-list SmoothPlan (None for the uniform spec)
    cap: int
    counts: np.ndarray    # how many lists touch each position


def overlap_cap(r: int, Q: int, R: int) -> int:
    return math.ceil(3 * r * Q * Q / R)


def gen_qlists(params, rng) -> QueryLists:
    """r query lists of Q positions each, no position in more than cap lists.

    Each list is resampled at most Q^2 times before ResampleExhausted.  For
    LargeLdcParams the lists are genuine smooth-decoder plans (and keep them);
    for UniformQuerySpec they are uniform draws.
    """
    if isinstance(params, LargeLdcParams):
        r, Q, R = params.r, params.queries, params.code_len
        def draw(i):
            plan = sample_smooth_plan(params, i, rng)
            return plan.positions, plan
    elif isinstance(params, UniformQuerySpec):
        r, Q, R = params.r, params.Q, params.R
        def draw(i):
            return np.array([rng.randrange(R) for _ in range(Q)]), None
    else:
        raise TypeError(f"cannot generate query lists for {type(params)!r}")
    cap = getattr(params, "cap", None) or overlap_cap(r, Q, R)
    counts = np.zeros(R, dtype=np.int64)
    lists, plans = [], []
    for i in range(r):
        for _ in range(Q * Q):
            positions, plan = draw(i)
            touched = np.unique(positions)
            if (counts[touched] + 1 <= cap).all():
                counts[touched] += 1
                lists.append(positions)
                plans.append(plan)
                break
        else:
            raise ResampleExhausted(
                f"list {i}: no placement under cap {cap} in {Q * Q} resamples")
    return QueryLists(lists, plans, cap, counts)


def query_smoothness_check(params: LargeLdcParams, trials: int, rng) -> dict:
    """Empirical per-position query frequency of the smooth decoder versus
    the t(q-1)/q^m bound (positions on a sampled curve are uniform blocks)."""
    hits = np.zeros(params.code_len, dtype=np.int64)
    for _ in range(trials):
        i = rng.randrange(params.r)
        plan = sample_smooth_plan(params, i, rng)
        hits[np.unique(plan.positions)] += 1
    bound = params.smoothness_bound
    return {
        "trials": trials,
        "bound": bound,
        "max_freq": Fraction(int(hits.max()), trials),
        "mean_freq": Fraction(int(hits.sum()), trials * params.code_len),
    }
