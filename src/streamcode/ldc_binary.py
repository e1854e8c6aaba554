"""Binary locally decodable code: the Reed-Muller core (ldc_core) over
F = GF(2^b) with K = GF(2), so each field symbol packs b message bits and a
binary inner code re-encodes it.  Two local decoders read the core's curves:

- smooth_local_decode: t_smooth curves, unique decoding per curve (message
  and dist2), and an exact confidence pair (p0, p1) with p0 + p1 == 1.
  smooth_confidence_from_words decodes one target's or a stacked plan's
  curve words with one unique_decode call and folds each target in integers.
- decode_with_advice: t_advice iterations of higher-degree curves pinned at
  uncorrupted advice blocks, and a majority vote; raises AdviceMismatch when
  no iteration ever produces a unique candidate.  An iteration's candidates
  are the codewords within the list radius of its curve word whose
  polynomial h takes the advice symbols at the iteration's nodes.  GMD
  certifies most words' lists; only a word it leaves over is list decoded,
  over the whole advice codebook.
  An AdvicePlan is a SmoothPlan plus those nodes, so one call plans, and one
  call decodes, a stack of targets (reading the advice once).

Every decoder is split into a plan-sampling half (which positions to read)
and a value-consuming half, so single-pass stream drivers can schedule reads
without random access.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes
from .gf import GF, FieldSpec, mul_arrays, poly_interpolate, powers
from .codes import (LinearCode, block_dist2, certified_decode, concat, list_decode_concat,
                    list_radius2, rs_code, unique_decode)
from .ldc_core import (RmLdc, SmoothPlan, block_positions, curve_blocks, gather,
                       plan_targets, sample_smooth_plan)

# Not called here: list_decode_concat builds the advice codebook.  The name
# stays bound because bench/tracing.py patches it on this module.
codebook = codes.codebook


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

    def describe(self) -> dict:
        return {"q": self.F.q, "m": self.m, "d": self.d, "n": self.n,
                "eps": str(self.eps), "inner": self.inner.describe(),
                "code_len": self.code_len, "t_smooth": self.t_smooth,
                "t_advice": self.t_advice, "k_adv": self.k_adv}


# ---------------------------------------------------------------------------
# smooth local decoding

def smooth_confidence_from_words(params: BinaryLdcParams, plan: SmoothPlan, words):
    """The exact (p0, p1) pair of a one-target plan from its t_smooth curve
    words, or one pair per target of a stacked plan from its words in the
    plan's block order.  One unique_decode call decodes every curve word."""
    got = unique_decode(params.curve_code, np.reshape(words, (-1, params.curve_code.code_len)))
    failed = [g is None for g in got]
    got = [g or (np.zeros(params.e, dtype=np.int64), 0) for g in got]   # folded as failed
    bits = params.inner_words[params.pack(np.array([msg[:params.e] for msg, _ in got])),
                              np.repeat(plan.offset, params.t_smooth)]
    conf = _smooth_fold(bits, [d2 for _, d2 in got], failed, params.t_smooth,
                        2 * params.curve_code.code_len)
    return conf if np.ndim(plan.offset) else conf[0]


def _smooth_fold(bits, d2, failed, t: int, n2: int) -> list:
    """One Confidence per t consecutive curve outcomes.  A curve decoded at
    relative distance delta = d2 / n2 gives weight 1/2 - delta to its h(0)
    bit and delta to the other, a failed one 1/4 to each, and p(b) is 2/t
    times b's weight: in units of 1 / (4 t n2), the integers 4 n2 - 8 d2,
    8 d2 and 2 n2."""
    d8, den = 8 * np.asarray(d2, dtype=np.int64), 4 * t * n2
    to0 = np.where(failed, 2 * n2, np.where(bits, d8, 4 * n2 - d8)).reshape(-1, t).sum(1).tolist()
    to1 = np.where(failed, 2 * n2, np.where(bits, 4 * n2 - d8, d8)).reshape(-1, t).sum(1).tolist()
    return [Confidence(Fraction(a, den), Fraction(b, den)) for a, b in zip(to0, to1)]


def smooth_local_decode(oracle, i: int, params: BinaryLdcParams, rng,
                        index: str = "message") -> Confidence:
    plan = sample_smooth_plan(params, i, rng, index=index)
    return smooth_confidence_from_words(params, plan, gather(oracle, plan.positions))


# ---------------------------------------------------------------------------
# advice decoding

def sample_advice(params: BinaryLdcParams, rng) -> AdvicePositions:
    """k_adv independent uniform RM points, expanded to whole inner blocks."""
    points = tuple(rng.randrange(params.num_blocks) for _ in range(params.k_adv))
    return AdvicePositions(points, tuple(block_positions(points, params.block_len).tolist()))


@dataclass
class AdvicePlan(SmoothPlan):
    """A SmoothPlan of t_advice curves, whose nodes (t_advice, k_adv) are the
    distinct nonzero lambdas where each meets the advice points, in advice
    order; (P, t_advice, k_adv) for a stack of P targets."""

    nodes: np.ndarray


def sample_advice_plan(params: BinaryLdcParams, i, adv: AdvicePositions,
                       rng, index: str = "message") -> AdvicePlan:
    """The advice curves of index i, or one stacked plan for a sequence of
    indices.  Curves draw their nodes in target, then iteration order, and
    pass through the target at lambda = 0 and the advice points at the nodes."""
    F, m, ka, t = params.F, params.m, params.k_adv, params.t_advice
    targets, one = plan_targets(params, i, index)
    anchors = [params.point_coords(p) for p in adv.rm_points]
    nodes = [rng.sample(params.nonzero_points, ka) for _ in range(len(targets) * t)]
    coefs = np.zeros((len(targets) * t, ka, m), dtype=np.intp)
    for c, (block, nd) in enumerate(zip(np.repeat(targets[:, 0], t).tolist(), nodes)):
        for a, x in enumerate(params.point_coords(block)):
            poly = poly_interpolate(F, [(0, x)] + [(lam, pt[a]) for lam, pt in zip(nd, anchors)])[1:]
            coefs[c, :len(poly), a] = poly
    blocks = curve_blocks(params, targets[:, :1], coefs.reshape(-1, t, ka, m))
    return AdvicePlan(targets[one, 1], blocks[one], params.block_len,
                      np.array(nodes, dtype=np.int64).reshape(-1, t, ka)[one])


def advice_symbols(params: BinaryLdcParams, adv_values) -> list:
    """Decode each advice block of bits to the field symbol whose inner
    codeword it is exactly (at dist2 0); an invalid block gives None (and no
    candidate survives it)."""
    d2 = block_dist2(np.reshape(adv_values, (params.k_adv, params.block_len)), params.inner_words)
    return [int(row.argmin()) if row.min() == 0 else None for row in d2]


def decode_advice_from_words(params: BinaryLdcParams, plan: AdvicePlan,
                             words, adv_values):
    """Per target, a majority vote over the iterations that end with exactly
    one candidate: a codeword within the list-decoding radius whose
    polynomial h takes the advice symbols at the iteration's nodes; each
    votes that candidate's bit at the target.  Words come in the plan's block
    order; one bit, or a list for a stacked plan.  Raises AdviceMismatch at
    the first target with no vote, so at once on an advice block that is not
    an inner codeword: it names no symbol for h to take.

    GMD settles most words without a scan: a codeword c at dist2 below
    dist2_bound - thresh2 (thresh2 the list radius) leaves every other
    codeword past thresh2, so the list is [c] when c is within thresh2 and
    empty otherwise.  Only the words GMD leaves over are list decoded, over
    the whole codebook; every listed codeword then takes the same advice
    test."""
    syms = advice_symbols(params, adv_values)
    if None in syms:
        raise AdviceMismatch("an advice block is not an inner codeword")
    code, F, t, ka = params.advice_code, params.F, params.t_advice, params.k_adv
    k = code.outer.msg_len
    nodes = np.reshape(plan.nodes, (-1, ka))
    words = np.reshape(words, (len(nodes), -1))
    thresh2 = list_radius2(code, params.eps)
    got, left = certified_decode(code, words, code.dist2_bound - thresh2 - 1)
    lists = [[] if g is None or g[1] > thresh2 else [g[0]] for g in got]
    for r in left:
        lists[r] = [msg for msg, _ in list_decode_concat(code, words[r], params.eps)]
    rows = [r for r, msgs in enumerate(lists) for _ in msgs]
    h = params.pack([msg for msgs in lists for msg in msgs]).reshape(len(rows), k)
    at = np.bitwise_xor.reduce(mul_arrays(
        F, powers(F, nodes[rows].ravel(), k).reshape(len(rows), ka, k), h[:, None]), axis=-1)
    kept = [[] for _ in lists]   # h(0) of each word's candidates that pass
    for r, c, pinned in zip(rows, h[:, 0].tolist(), (at == syms).all(axis=1).tolist()):
        if pinned:
            kept[r].append(c)
    h0 = [c[0] if len(c) == 1 else None for c in kept]
    bits = []
    for j, offset in enumerate(np.reshape(plan.offset, -1).tolist()):
        votes = [int(params.inner_words[c, offset]) for c in h0[j * t:(j + 1) * t]
                 if c is not None]
        if not votes:
            raise AdviceMismatch(f"no unique candidate in any of {t} iterations")
        bits.append(1 if sum(votes) * 2 > len(votes) else 0)
    return bits if np.ndim(plan.offset) else bits[0]


def decode_with_advice(oracle, i: int, adv: AdvicePositions, adv_values,
                       params: BinaryLdcParams, rng, index: str = "message") -> int:
    """Recover bit i given the true bits at the advice positions.  Raises
    AdviceMismatch when the advice never pins down a unique candidate."""
    plan = sample_advice_plan(params, i, adv, rng, index=index)
    return decode_advice_from_words(params, plan, gather(oracle, plan.positions), adv_values)
