"""Binary locally decodable code: the Reed-Muller core (ldc_core) over
F = GF(2^b) with K = GF(2), so each field symbol packs b message bits and a
binary inner code re-encodes it.  Two local decoders read the core's curves:

- smooth_local_decode: t_smooth curves, unique decoding per curve (message
  and dist2), and an exact confidence pair (p0, p1) with p0 + p1 == 1
  (Fractions throughout).
- decode_with_advice: t_advice iterations of higher-degree curves pinned at
  uncorrupted advice blocks, and a majority vote; raises AdviceMismatch when
  no iteration ever produces a unique candidate.  Each iteration list-decodes
  its curve word over the advice coset only: the curve polynomials h that
  take the advice symbols at the iteration's nodes, an affine subspace of
  codimension k_adv that advice_coset enumerates as codebook indices.

Every decoder is split into a plan-sampling half (which positions to read)
and a value-consuming half, so single-pass stream drivers can schedule reads
without random access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf import GF, FieldSpec, field_pow, mul_lut, poly_interpolate
from .codes import (LinearCode, _rref, codebook, concat,
                    list_decode_concat, rs_code, unique_decode)
from .ldc_core import (CurvePlan, RmLdc, SmoothPlan, curve_plan, encode, gather,
                       sample_smooth_plan)

ldc_encode = encode


class AdviceMismatch(Exception):
    """No advice-decode iteration produced a unique surviving candidate."""


@dataclass
class Confidence:
    """Exact posterior-style weights for one bit; p0 + p1 == 1 always."""

    p0: Fraction
    p1: Fraction

    def __post_init__(self):
        assert self.p0 + self.p1 == 1, "confidence weights must sum to one"

    def best(self) -> int:
        return 1 if self.p1 > self.p0 else 0


@dataclass
class AdvicePositions:
    """k_adv uniformly chosen RM points, expanded to whole inner blocks."""

    rm_points: tuple
    positions: tuple  # codeword bit indices, block-major


@dataclass
class BinaryLdcParams(RmLdc):
    F: FieldSpec            # Reed-Muller alphabet, q = 2^b
    m: int                  # number of variables
    d: int                  # total degree bound
    inner: LinearCode       # binary inner code with msg_len == b
    n: int                  # message length in bits
    eps: Fraction
    t_smooth: int = 3
    t_advice: int = 3
    k_adv: int = 1

    K = GF(1)               # message alphabet: bits

    def __post_init__(self):
        self._init_core()
        if self.advice_size > self.t_advice * (self.F.q - 1) * self.inner.code_len:
            raise ValueError("advice larger than the advice-decoder query budget")
        self.advice_code = concat(
            rs_code(self.F, self.nonzero_points, self.k_adv * self.d + 1), self.inner)
        # exact inner codeword -> field symbol, for reading advice blocks
        self._inner_lookup = {w.tobytes(): s for s, w in
                              enumerate(self.inner_words.astype(np.uint8))}

    @property
    def b(self) -> int:
        return self.F.k

    e = b
    msg_len = property(lambda self: self.n)
    capacity_bits = RmLdc.capacity
    bit_position = RmLdc.sym_position

    @property
    def capacity_syms(self) -> int:
        """Field symbols carried (b bits each)."""
        return self.capacity // self.b

    @property
    def advice_size(self) -> int:
        return self.k_adv * self.inner.code_len

    @cached_property
    def advice_grid(self) -> np.ndarray:
        """Every assignment of the free coefficients h_{k_adv}..h_{k-1} of an
        advice-code polynomial, one row each in lex order (for advice_coset)."""
        q, ka = self.F.q, self.k_adv
        k = self.advice_code.outer.msg_len
        rows = np.arange(q ** (k - ka), dtype=np.int64)
        return np.stack([(rows // q ** (k - 1 - j)) % q for j in range(ka, k)], axis=1)

    def describe(self) -> dict:
        return {"q": self.F.q, "m": self.m, "d": self.d, "n": self.n,
                "eps": str(self.eps), "inner": self.inner.describe(),
                "code_len": self.code_len, "t_smooth": self.t_smooth,
                "t_advice": self.t_advice, "k_adv": self.k_adv}


# ---------------------------------------------------------------------------
# smooth local decoding

def smooth_confidence_from_words(params: BinaryLdcParams, plan: SmoothPlan,
                                 words) -> Confidence:
    """Fold per-curve unique decodings into the exact (p0, p1) pair: a curve
    decoded at relative distance delta weighs 1/2 - delta for the bit its h(0)
    gives and delta for the other; a failed one weighs 1/4 for each."""
    t = params.t_smooth
    L = 2 * params.curve_code.code_len  # dist2 denominator
    acc = {0: Fraction(0), 1: Fraction(0)}
    for word in words:
        got = unique_decode(params.curve_code, word)
        if got is None:
            acc[0] += Fraction(1, 4)
            acc[1] += Fraction(1, 4)
            continue
        msg, d2 = got
        bit = int(params.inner_words[params.pack(msg[:params.e])[0], plan.offset])
        delta = Fraction(d2, L)
        acc[bit] += delta
        acc[1 - bit] += Fraction(1, 2) - delta
    # p(b) collects the evidence against 1-b
    return Confidence(p0=Fraction(2, t) * acc[1], p1=Fraction(2, t) * acc[0])


def smooth_local_decode(oracle, i: int, params: BinaryLdcParams, rng,
                        index: str = "message") -> Confidence:
    plan = sample_smooth_plan(params, i, rng, index=index)
    words = [gather(oracle, c.positions) for c in plan.curves]
    return smooth_confidence_from_words(params, plan, words)


# ---------------------------------------------------------------------------
# advice decoding

def sample_advice(params: BinaryLdcParams, rng) -> AdvicePositions:
    """k_adv independent uniform RM points, expanded to whole inner blocks."""
    points = tuple(rng.randrange(params.num_blocks) for _ in range(params.k_adv))
    return AdvicePositions(points, tuple(params.block_positions(points).tolist()))


@dataclass
class AdviceIterationPlan(CurvePlan):
    nodes: list           # distinct nonzero lambdas pinning the advice points


@dataclass
class AdvicePlan:
    target_block: int
    offset: int
    iterations: list


def sample_advice_plan(params: BinaryLdcParams, i: int, adv: AdvicePositions,
                       rng, index: str = "message") -> AdvicePlan:
    block, offset = params.target(i, index)
    v0 = params.point_coords(block)
    anchors = [params.point_coords(p) for p in adv.rm_points]
    its = []
    for _ in range(params.t_advice):
        nodes = rng.sample(params.nonzero_points, params.k_adv)
        coord_polys = [
            poly_interpolate(params.F, [(0, v0[a])] + [
                (nodes[l], anchors[l][a]) for l in range(params.k_adv)])
            for a in range(params.m)]
        cv = curve_plan(params, coord_polys)
        its.append(AdviceIterationPlan(cv.blocks, cv.positions, nodes))
    return AdvicePlan(block, offset, its)


def advice_symbols(params: BinaryLdcParams, adv_values) -> list:
    """Decode each advice block of bits to its field symbol by exact codebook
    lookup; an invalid block gives None (and no candidate survives it)."""
    L = params.block_len
    vals = np.asarray(adv_values, dtype=np.uint8)
    return [params._inner_lookup.get(vals[l * L:(l + 1) * L].tobytes())
            for l in range(params.k_adv)]


def advice_coset(params: BinaryLdcParams, nodes, syms) -> np.ndarray:
    """Advice-code codebook indices of the polynomials h of degree < k with
    h(nodes[l]) == syms[l] for every l, in lex order of the free
    coefficients.  The constraints [V | s] are F-linear in h, and the columns
    of V for h_0..h_{k_adv-1} form an invertible Vandermonde matrix (the
    nodes are distinct), so one elimination leaves [I | A | c]: the pinned
    coefficients are c + A h_free for every free assignment."""
    F, ka = params.F, params.k_adv
    k = params.advice_code.outer.msg_len
    V = [[field_pow(F, lam, j) for j in range(k)] for lam in nodes]
    R = _rref(F, np.column_stack([V, syms]))[0]
    free = params.advice_grid
    h = np.empty((len(free), k), dtype=np.int64)
    h[:, ka:] = free
    for l in range(ka):
        h[:, l] = R[l, k]
        for j in range(ka, k):
            h[:, l] ^= mul_lut(F, int(R[l, j]))[free[:, j - ka]]
    return codebook(params.advice_code).index_of_packed(h)


def decode_advice_from_words(params: BinaryLdcParams, plan: AdvicePlan,
                             words, adv_values) -> int:
    """Majority vote over the iterations that end with exactly one candidate
    in the advice coset within the list-decoding radius; each votes that
    candidate's bit at the target.  An advice block that is not an inner
    codeword pins no coset, so then no iteration scans or votes."""
    syms = advice_symbols(params, adv_values)
    votes = []
    if None not in syms:
        for it, word in zip(plan.iterations, words):
            cands = list_decode_concat(params.advice_code, word, params.eps,
                                       idx=advice_coset(params, it.nodes, syms))
            if len(cands) == 1:
                h0 = int(params.pack(cands[0][0])[0])
                votes.append(int(params.inner_words[h0, plan.offset]))
    if not votes:
        raise AdviceMismatch(
            f"no unique candidate in any of {params.t_advice} iterations")
    ones = sum(votes)
    return 1 if ones * 2 > len(votes) else 0


def decode_with_advice(oracle, i: int, adv: AdvicePositions, adv_values,
                       params: BinaryLdcParams, rng, index: str = "message") -> int:
    """Recover bit i given the true bits at the advice positions.  Raises
    AdviceMismatch when the advice never pins down a unique candidate."""
    plan = sample_advice_plan(params, i, adv, rng, index=index)
    words = [gather(oracle, it.positions) for it in plan.iterations]
    return decode_advice_from_words(params, plan, words, adv_values)


# ---------------------------------------------------------------------------
# asymptotic parameter relations (documentation/validation only)

def asymptotic_regime(n: int, eps: Fraction) -> dict:
    """The asymptotic parameter relations behind the construction, for a
    query budget Q: q ~ sqrt(Q), d ~ eps^6 sqrt(Q)/4, m ~ log n / log d, with
    t_smooth ~ Q^(1/3), t_advice ~ sqrt(Q), k_adv = ceil(1/eps).  Returned for
    inspection; desk-scale profiles override all of them."""
    eps = Fraction(eps)
    Q = max(16, math.ceil((math.log(max(n, 2)) / float(eps)) ** 6))
    q = 1 << max(1, math.ceil(math.log2(math.sqrt(Q))))
    d = max(1, math.floor(float(eps) ** 6 * math.sqrt(Q) / 4))
    m = max(1, math.ceil(math.log(max(n, 2)) / math.log(max(d, 2) + 1)))
    return {"Q": Q, "q": q, "d": d, "m": m,
            "t_smooth": max(1, round(Q ** (1 / 3))),
            "t_advice": max(1, round(math.sqrt(Q))),
            "k_adv": math.ceil(1 / float(eps))}
