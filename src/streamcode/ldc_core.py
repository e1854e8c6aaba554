"""Reed-Muller locally decodable code read along random low-degree curves.

The shared core of ldc_binary and ldc_large.  A message of K-symbols is cut
into groups of e, each group packs into one symbol of F = GF(|K|^e), the
packed symbols sit at the systematic points of a Reed-Muller code RM_F(m, d),
and every evaluation is re-encoded by a systematic K-linear inner code of
block length L.  One codeword symbol is addressed as (block, offset) = (RM
point index, inner position).  The binary code is the case K = GF(2), e = b.

The restriction of the code to a curve through q - 1 nonzero parameters is a
Reed-Solomon/inner concatenation (`curve_code` for degree-2 curves); local
decoders sample curves through the point that carries their target, gather
the blocks along them, and hand the words to their own confidence rule.  One
sample_smooth_plan (or ldc_binary's sample_advice_plan) call plans one target
or a stack, whose curves curve_blocks walks at once; positions are built only
for callers that read them.

Parameter classes mix in RmLdc and provide K, F, e, m, d, inner, eps,
t_smooth and msg_len (the number of K-symbols carried); __post_init__ calls
_init_core().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .codes import concat, make_systematic, rm_code, rs_code
from .gf import mul_arrays, packing, powers


class RmLdc:
    """Geometry, tables and sizes shared by both parameter classes."""

    def _init_core(self):
        self.eps = Fraction(self.eps)
        if self.inner.field != self.K or self.inner.msg_len != self.e:
            raise ValueError(f"inner code must map {self.e} symbols of {self.K} "
                             f"to one block")
        if self.inner.systematic_positions is None:
            raise ValueError("inner code must be systematic")
        if not 0 < self.d < self.F.q:
            raise ValueError("need 0 < d < q")
        if self.msg_len > self.capacity:
            raise ValueError(f"message too long: {self.msg_len} > capacity {self.capacity}")
        self.rm = make_systematic(rm_code(self.F, self.m, self.d))
        # restriction of the code to a degree-2 curve: RS on F* of degree 2d
        self.curve_code = concat(rs_code(self.F, self.nonzero_points, 2 * self.d + 1),
                                 self.inner)
        self.packing = packing(self.K, self.F)
        self.inner_words = self.curve_code.inner_words   # (q_F, L)
        # row j < q: lambda^j over the nonzero lambdas; then c * x for all c, x
        self.powers = np.ascontiguousarray(powers(self.F, self.nonzero_points, self.F.q).T)
        self.mul_table = mul_arrays(self.F, *np.ix_(range(self.F.q), range(self.F.q)))
        # bit offset of each coordinate in a block index, first one highest
        self.coord_shifts = self.F.k * np.arange(self.m - 1, -1, -1)[:, None]

    # -- derived sizes ------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Message K-symbols the code can carry."""
        return math.comb(self.d + self.m, self.m) * self.e

    @property
    def nonzero_points(self):
        return list(range(1, self.F.q))

    @property
    def num_blocks(self) -> int:
        return self.F.q ** self.m

    @property
    def block_len(self) -> int:
        return self.inner.code_len

    @property
    def code_len(self) -> int:
        return self.num_blocks * self.block_len

    @property
    def queries_smooth(self) -> int:
        """Q: symbols read by one smooth decode."""
        return self.t_smooth * (self.F.q - 1) * self.block_len

    # -- addressing ---------------------------------------------------------

    def point_coords(self, p: int) -> tuple:
        q = self.F.q
        return tuple((p // q ** (self.m - 1 - a)) % q for a in range(self.m))

    def sym_position(self, i: int) -> int:
        """Codeword position where message symbol i reads back (systematic)."""
        block, offset = self.target(i, "message")
        return block * self.block_len + offset

    def target(self, i: int, index: str) -> tuple:
        """(block, offset) carrying message symbol i (index="message") or raw
        codeword position i (index="codeword")."""
        if index == "message":
            j, slot = divmod(i, self.e)
            return self.rm.systematic_positions[j], self.inner.systematic_positions[slot]
        if index == "codeword":
            return divmod(i, self.block_len)
        raise ValueError("index must be 'message' or 'codeword'")

    def pack(self, syms) -> np.ndarray:
        """K-symbols, e per group, to the F-symbols they pack into."""
        groups = np.asarray(syms, dtype=np.int64).reshape(-1, self.e)
        return self.packing.sym[np.ravel_multi_index(groups.T, (self.K.q,) * self.e)]


# ---------------------------------------------------------------------------
# encoding

def encode(params: RmLdc, x) -> np.ndarray:
    """pack -> RM -> inner: msg_len K-symbols to the full codeword."""
    x = np.asarray(x, dtype=np.int32)
    if x.shape != (params.msg_len,):
        raise ValueError(f"message must have {params.msg_len} symbols")
    padded = np.zeros(params.capacity, dtype=np.int32)
    padded[:params.msg_len] = x
    evals = params.rm.encode(params.pack(padded))
    return params.inner_words[evals].reshape(-1)


# ---------------------------------------------------------------------------
# curves

def block_positions(blocks, block_len: int) -> np.ndarray:
    """Codeword positions of whole blocks, block-major."""
    return (np.asarray(blocks, dtype=np.int64)[..., None] * block_len
            + np.arange(block_len)).reshape(-1)


@dataclass
class SmoothPlan:
    """t_smooth curves through the point carrying one target, or through those
    of P targets: then offset is (P,) and blocks (P, t_smooth, q - 1).  One
    curve's positions are a row of positions.reshape(len(blocks), -1)."""

    offset: int           # inner position of the target symbol
    blocks: np.ndarray    # (t_smooth, q - 1) block index per curve and lambda
    block_len: int

    @cached_property
    def positions(self) -> np.ndarray:
        """All codeword positions, curve-major, then lambda-major."""
        return block_positions(self.blocks, self.block_len)


def curve_blocks(params: RmLdc, base, coefs) -> np.ndarray:
    """Blocks at the nonzero lambdas of each curve through block `base`
    (broadcast over the curves) at lambda = 0 whose coordinate a has
    coefficient coefs[..., j - 1, a] at lambda^j.  Coordinates fill disjoint
    bit fields of a block index (q is a power of two), so one product-table
    lookup, one shift and one XOR reduction walk every curve of the stack."""
    coefs = np.asarray(coefs, dtype=np.intp)
    terms = params.mul_table[coefs[..., None], params.powers[1:coefs.shape[-2] + 1, None]]
    terms <<= params.coord_shifts
    return np.bitwise_xor.reduce(terms, axis=(-3, -2)) ^ np.asarray(base)[..., None]


def sample_smooth_plan(params: RmLdc, i, rng, index: str = "message") -> SmoothPlan:
    """Plan t_smooth random degree-2 curves through the point that carries
    index i (a message symbol by default, a raw codeword position with
    index="codeword"), or one stacked plan for a sequence of indices.  Each
    curve draws v1, then v2, coordinate by coordinate, in target order."""
    q, m, t = params.F.q, params.m, params.t_smooth
    targets, one = plan_targets(params, i, index)
    coefs = np.array([rng.randrange(q) for _ in range(len(targets) * t * 2 * m)],
                     dtype=np.intp).reshape(-1, t, 2, m)
    return SmoothPlan(targets[one, 1], curve_blocks(params, targets[:, :1], coefs)[one],
                      params.block_len)


def plan_targets(params: RmLdc, i, index: str):
    """The (block, offset) row of each index in i, and the slice that keeps
    the stack axis of a sequence i or drops it (0) for a scalar i."""
    js, one = (i, slice(None)) if np.ndim(i) else ([i], 0)
    return np.array([params.target(j, index) for j in js], dtype=np.int64).reshape(-1, 2), one


def gather(oracle, positions) -> np.ndarray:
    if isinstance(oracle, np.ndarray):
        return oracle[positions]
    return np.array([oracle[int(p)] for p in positions], dtype=np.int32)
