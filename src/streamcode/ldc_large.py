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
contributes mass 1 - 2*delta on its symbol and 2*delta on ⊥.

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

from .gf import ERASE, GF, FieldSpec
from .codes import LinearCode, codebook
from .ldc_core import RmLdc, SmoothPlan, encode, gather, sample_smooth_plan

ldc_large_encode = encode
sample_smooth_plan_large = sample_smooth_plan
gather_syms = gather


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

def _curve_scan_tables(params: LargeLdcParams):
    """Flat indices into the (block, F-symbol) distance table, one row per
    curve message, so a scan reduces to that table plus a gather.  Index space
    identical to codebook(curve_code) (K-digit lex order)."""
    tbl = getattr(params, "_curve_tbl", None)
    if tbl is None:
        cc = params.curve_code
        qF, T = params.F.q, cc.outer.msg_len
        idx = np.arange(cc.msg_space, dtype=np.int64)
        outer_idx = np.zeros_like(idx)
        for t in range(T):
            outer_idx = outer_idx * qF + params.pack_tbl[(idx // qF ** (T - 1 - t)) % qF]
        rows = codebook(cc.outer).words[outer_idx].astype(np.int64)   # (space, nb)
        nb = rows.shape[1]
        flat = (np.arange(nb, dtype=np.int64)[None, :] * qF + rows).astype(np.int32)
        tbl = (flat, np.empty(flat.shape, dtype=np.int16))
        params._curve_tbl = tbl
    return tbl


def _curve_dist2_all(params: LargeLdcParams, word: np.ndarray) -> np.ndarray:
    """dist2 from word to every curve codeword; equals
    codebook(curve_code).dist2_scan(word) entry for entry."""
    flat, gather_buf = _curve_scan_tables(params)
    inner_words = params.inner_words
    qF, L = inner_words.shape
    nb = len(word) // L
    wb = word.reshape(nb, L)
    era = (wb == ERASE).sum(axis=1, dtype=np.int16)
    mism = (inner_words[None, :, :] != wb[:, None, :]).sum(axis=2, dtype=np.int16)
    block_d2 = 2 * mism - era[:, None]                             # (nb, qF)
    np.take(block_d2.ravel(), flat, out=gather_buf)
    return gather_buf.sum(axis=1, dtype=np.int64)


def _decode_curve_large(params: LargeLdcParams, word):
    """(h(0), dist2) of the closest curve codeword within erasure-aware
    relative radius 1/2 - eps/2, or None.

    Conceptually: zero the erasures, list decode within radius 1 - eps/2
    (zeroing can inflate each erasure's charge from 1/2 to at most 1, so that
    list contains every candidate within the true radius), then re-check with
    the erasure-aware distance.  Since the scan is exhaustive anyway, one
    erasure-aware scan computes the same closest-in-radius answer."""
    word = np.asarray(word, dtype=np.int32)
    d2 = _curve_dist2_all(params, word)
    i = int(np.argmin(d2))  # ties break to the smallest message index
    L2 = 2 * params.curve_code.code_len
    if Fraction(int(d2[i]), L2) > Fraction(1, 2) - params.eps / 2:
        return None
    # the top e K-digits of message index i are the packing of h(0)
    T = params.curve_code.outer.msg_len
    return int(params.pack_tbl[i // params.F.q ** (T - 1)]), int(d2[i])


def confidence_from_words_large(params: LargeLdcParams, plan: SmoothPlan,
                                words) -> ConfidenceDist:
    t = params.t
    L2 = 2 * params.curve_code.code_len
    mass: dict = {}
    bot = Fraction(0)
    for word in words:
        got = _decode_curve_large(params, word)
        if got is None:
            bot += Fraction(1, t)
            continue
        h0, d2 = got
        sigma = int(params.inner_words[h0, plan.offset])
        delta = Fraction(d2, L2)
        mass[sigma] = mass.get(sigma, Fraction(0)) + (1 - 2 * delta) / t
        bot += 2 * delta / t
    return ConfidenceDist(mass, bot)


def smooth_local_decode_large(oracle, i: int, params: LargeLdcParams, rng,
                              index: str = "message") -> ConfidenceDist:
    plan = sample_smooth_plan(params, i, rng, index=index)
    words = [gather(oracle, c.positions) for c in plan.curves]
    return confidence_from_words_large(params, plan, words)


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
