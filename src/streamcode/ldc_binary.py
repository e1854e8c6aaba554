"""Binary locally decodable code: the Reed-Muller core (ldc_core) over
F = GF(2^b) with K = GF(2), so each field symbol packs b message bits and a
binary inner code re-encodes it.  Two local decoders read the core's curves:

- smooth_local_decode: t_smooth curves, unique decoding per curve (message
  and dist2), and an exact confidence pair (p0, p1) with p0 + p1 == 1.
  smooth_confidence_from_words decodes one target's or a stacked plan's
  curve words with one unique_decode call and folds each target in integers.
- decode_with_advice: t_advice iterations of higher-degree curves pinned at
  uncorrupted advice blocks, and a majority vote; raises AdviceMismatch when
  no iteration ever produces a unique candidate.  Each iteration list-decodes
  its curve word over the advice coset only: the curve polynomials h that
  take the advice symbols at the iteration's nodes, an affine subspace of
  codimension k_adv that advice_coset enumerates as codebook indices.
  An AdvicePlan is a SmoothPlan plus those nodes, so one call plans, and one
  call decodes, a stack of targets (reading the advice once).

Every decoder is split into a plan-sampling half (which positions to read)
and a value-consuming half, so single-pass stream drivers can schedule reads
without random access.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf import GF, FieldSpec, mul_lut, poly_interpolate, powers
from .codes import (LinearCode, _rref, block_dist2, codebook, concat,
                    list_decode_concat, rs_code, unique_decode)
from .ldc_core import (RmLdc, SmoothPlan, block_positions, curve_blocks, gather,
                       plan_targets, sample_smooth_plan)


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


def advice_coset(params: BinaryLdcParams, nodes, syms) -> np.ndarray:
    """Advice-code codebook indices of the polynomials h of degree < k with
    h(nodes[l]) == syms[l] for every l, in lex order of the free
    coefficients.  The constraints [V | s] are F-linear in h, and the columns
    of V for h_0..h_{k_adv-1} form an invertible Vandermonde matrix (the
    nodes are distinct), so one elimination leaves [I | A | c]: the pinned
    coefficients are c + A h_free for every free assignment."""
    F, ka = params.F, params.k_adv
    k = params.advice_code.outer.msg_len
    R = _rref(F, np.column_stack([powers(F, nodes, k), syms]))[0]
    free = params.advice_grid
    h = np.empty((len(free), k), dtype=np.int64)
    h[:, ka:] = free
    for l in range(ka):
        h[:, l] = R[l, k]
        for j in range(ka, k):
            h[:, l] ^= mul_lut(F, int(R[l, j]))[free[:, j - ka]]
    return codebook(params.advice_code).index_of_packed(h)


def decode_advice_from_words(params: BinaryLdcParams, plan: AdvicePlan,
                             words, adv_values):
    """Per target, a majority vote over the iterations that end with exactly
    one candidate in the advice coset within the list-decoding radius; each
    votes that candidate's bit at the target.  Words come in the plan's block
    order; one bit, or a list for a stacked plan.  Raises AdviceMismatch at
    the first target with no vote, so at once on an advice block that is not
    an inner codeword: it pins no coset."""
    syms = advice_symbols(params, adv_values)
    if None in syms:
        raise AdviceMismatch("an advice block is not an inner codeword")
    t = params.t_advice
    nodes = np.reshape(plan.nodes, (-1, t, params.k_adv))
    words, bits = np.reshape(words, (len(nodes), t, -1)), []
    for nd, ws, offset in zip(nodes, words, np.reshape(plan.offset, -1).tolist()):
        votes = []
        for it_nodes, word in zip(nd, ws):
            cands = list_decode_concat(params.advice_code, word, params.eps,
                                       idx=advice_coset(params, it_nodes, syms))
            if len(cands) == 1:
                h0 = int(params.pack(cands[0][0])[0])
                votes.append(int(params.inner_words[h0, offset]))
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
