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
the blocks along them, and hand the words to their own confidence rule.

Parameter classes mix in RmLdc and provide K, F, e, m, d, inner, eps,
t_smooth and msg_len (the number of K-symbols carried); __post_init__ calls
_init_core().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .codes import concat, make_systematic, rm_code, rs_code, symbol_words
from .gf import GF, field_pow, mul_lut, pack_symbols


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
        K, F, e = self.K, self.F, self.e
        # F-symbol of the K-digit group with lex index v (digit 0 most significant)
        self.pack_tbl = np.array(
            [pack_symbols(K, F, [(v // K.q ** (e - 1 - u)) % K.q for u in range(e)])
             for v in range(F.q)], dtype=np.int64)
        self._digit_weights = K.q ** np.arange(e - 1, -1, -1, dtype=np.int64)
        self.inner_words = symbol_words(self.inner, F)   # (q_F, L)

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

    def point_index(self, coords):
        """Block index of an RM point; coordinates may be ints or arrays."""
        p = 0
        for c in coords:
            p = p * self.F.q + c
        return p

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

    def block_positions(self, blocks) -> np.ndarray:
        """Codeword positions of whole blocks, block-major."""
        L = self.block_len
        out = np.empty((len(blocks), L), dtype=np.int64)
        out[:] = np.arange(L)   # in place: no broadcast temporaries
        out += np.asarray(blocks, dtype=np.int64)[:, None] * L
        return out.reshape(-1)

    def pack(self, syms) -> np.ndarray:
        """K-symbols, e per group, to the F-symbols they pack into."""
        groups = np.asarray(syms, dtype=np.int64).reshape(-1, self.e)
        return self.pack_tbl[groups @ self._digit_weights]


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

@dataclass
class CurvePlan:
    blocks: list          # block index per lambda (lambda = 1..q-1 in order)
    positions: np.ndarray  # all codeword positions, lambda-major


@dataclass
class SmoothPlan:
    v0: tuple             # curve base point (coordinates)
    offset: int           # inner position of the target symbol
    curves: list          # t_smooth CurvePlans

    @property
    def positions(self) -> np.ndarray:
        return np.concatenate([c.positions for c in self.curves])


@lru_cache(maxsize=None)
def _powers(k: int, j: int) -> np.ndarray:
    """lambda^j for lambda = 1..q-1 over GF(2^k)."""
    F = GF(k)
    return np.array([field_pow(F, lam, j) for lam in range(1, F.q)], dtype=np.int64)


def curve_plan(params: RmLdc, coord_polys) -> CurvePlan:
    """Blocks and positions of the curve lambda -> (c_a(lambda))_a, one
    coefficient list per coordinate, over the nonzero lambdas."""
    F = params.F
    coords = []
    for poly in coord_polys:
        c = np.zeros(F.q - 1, dtype=np.int64)
        for j, coef in enumerate(poly):
            if coef:
                c ^= mul_lut(F, coef)[_powers(F.k, j)]
        coords.append(c)
    blocks = params.point_index(coords)
    return CurvePlan(blocks.tolist(), params.block_positions(blocks))


def sample_smooth_plan(params: RmLdc, i: int, rng, index: str = "message") -> SmoothPlan:
    """Plan t_smooth random degree-2 curves through the point that carries
    index i (a message symbol by default, a raw codeword position with
    index="codeword").  Each curve draws v1, then v2, coordinate by coordinate."""
    block, offset = params.target(i, index)
    v0 = params.point_coords(block)
    q, m = params.F.q, params.m
    curves = []
    for _ in range(params.t_smooth):
        v1 = [rng.randrange(q) for _ in range(m)]
        v2 = [rng.randrange(q) for _ in range(m)]
        curves.append(curve_plan(params, [[v0[a], v1[a], v2[a]] for a in range(m)]))
    return SmoothPlan(v0, offset, curves)


def gather(oracle, positions) -> np.ndarray:
    if isinstance(oracle, np.ndarray):
        return oracle[positions]
    return np.array([oracle[int(p)] for p in positions], dtype=np.int32)
