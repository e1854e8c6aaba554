"""Tensor-power stream codec for linear functions of the message.

The encoder views the n-bit message as a depth-d tensor over K, applies the
large-alphabet locally decodable code along every axis, and protects each
K-symbol with a small binary code (one block of N_inner bits per symbol,
blocks in lexicographic tuple order).

The decoder computes one K-linear functional of the message from the
(possibly corrupted) stream.  A base block's outcome is a symbol sigma kept
with probability 1 - 2*delta(block, encoding of sigma) by one coin drawn
before any instance runs (_decode_base_blocks).  recurse_linear works on a
tuple T of block indices at level a >= 1: it restricts the functional to
each first-axis message index i, evaluates the children queried by that
index's smooth-decoding plan (base outcomes at level 1, recursive calls
above), runs the confidence decoder over the returned values, and returns
sigma_1 + ... + sigma_r with probability min_i p_i (anything else is ⊥).

Sharing discipline across the parallel instances of linear_dec_traced:
  - base blocks: one decode and one acceptance coin, cached per block tuple —
    instances never disagree on a block's sigma/⊥ outcome;
  - level-1 nodes: their (value, p) pair is a deterministic function of the
    shared base outcomes and the per-level query lists, so every node the
    lists of levels d..2 reach is computed before any instance runs
    (_fill_level1): their distinct curve words, keyed by (T, child index,
    curve, coefficient), go through one batched curve scan.  Every instance
    still draws its own acceptance coin on a node;
  - levels above 1 (and the roots): fully per-instance, coins included;
    the instances walk the root together, index by index, so each index's
    curve words from every instance still alive go through one scan
    (_node_values), while each instance draws its coins from its own rng.
Query lists are generated once per level and reused by all instances, which
is what keeps the live-tuple count under cap^depth (cap = ceil(3 r Q^2 / R)).

The desk-scale driver materializes the received word with a single in-order
read and bounds the lockstep footprint through the structural live-tuple
counter rather than a bit ledger.  The base table has no row for an erased
bit, so a word holding an erasure raises ValueError instead of misreading.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ldc_large
from .gf import ERASE, GF, FieldSpec, mul_lut, packing
from .codes import (LinearCode, block_dist2, codebook, concat, repetition_code,
                    symbol_words)
from .ldc_large import (LargeLdcParams, confidence_from_decoded, decode_curves_large,
                        gen_qlists, overlap_cap)
from .stream import SymbolStream

# Not called here: every curve word goes through decode_curves_large.  The
# name stays bound because bench/tracing.py patches it on this module.
confidence_from_words_large = ldc_large.confidence_from_words_large


# ---------------------------------------------------------------------------
# domain types

@dataclass
class LinearFunctional:
    """Coefficient vector over K for a prefix of message indices; restriction
    to a first digit i is the contiguous lexicographic slice."""

    K: FieldSpec
    coeffs: np.ndarray
    path: tuple = ()

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.int32)

    def restrict(self, i: int, r: int) -> "LinearFunctional":
        sub = len(self.coeffs) // r
        return LinearFunctional(self.K, self.coeffs[i * sub:(i + 1) * sub],
                                self.path + (i,))


def base_symbol_code(K: FieldSpec) -> LinearCode:
    """Binary code protecting one K-symbol at the bottom of the tensor stack.

    For two-bit symbols this is an [8,2,5] code: unique decoding then succeeds
    up to two flips, i.e. through relative distance 1/4, which the acceptance
    coin 1 - 2*delta turns into a 1/2 keep rate at delta = 1/4.  One-bit
    symbols get the [4,1,4] repetition code.
    """
    if K.k == 1:
        return repetition_code(GF(1), 4)
    if K.k == 2:
        gen = np.array([[1, 0, 1, 1, 1, 1, 0, 0],
                        [0, 1, 0, 1, 1, 1, 1, 1]], dtype=np.int32).T
        return LinearCode(field=GF(1), gen=gen, kind="symbol-shield",
                          systematic_positions=(0, 1), dist2_bound=10)
    raise ValueError(f"no base code pinned for {K.k}-bit symbols")


@dataclass
class TensorParams:
    ldc: LargeLdcParams        # per-axis code K^r -> K^R
    depth: int                 # tensor power d
    n: int                     # message bits; must equal r^depth
    base_code: LinearCode      # binary shield, one K-symbol per block
    instances: int | None = None  # parallel decoders (default desk-scale rule)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.ldc.r != self.ldc.capacity_syms:
            raise ValueError("axis code must carry exactly its capacity "
                             "(no per-axis padding)")
        if self.n != self.ldc.r ** self.depth:
            raise ValueError(f"need n = r^depth = {self.ldc.r ** self.depth}")
        if self.base_code.field.k != 1:
            raise ValueError("base code must be binary")
        if self.base_code.msg_len != self.ldc.K.k:
            raise ValueError("base code must encode one K-symbol")
        if self.instances is None:
            self.instances = default_instances(self.n)
        self.axis_code = concat(self.ldc.rm, self.ldc.inner)
        assert self.axis_code.msg_len == self.ldc.r
        assert self.axis_code.code_len == self.R

    K = property(lambda self: self.ldc.K)
    r = property(lambda self: self.ldc.r)
    R = property(lambda self: self.ldc.code_len)
    Q = property(lambda self: self.ldc.queries)
    N_inner = property(lambda self: self.base_code.code_len)
    cap = property(lambda self: overlap_cap(self.r, self.Q, self.R))
    code_bits = property(lambda self: self.N_inner * self.R ** self.depth)

    def describe(self) -> dict:
        return {"axis": self.ldc.describe(), "depth": self.depth, "n": self.n,
                "r": self.r, "R": self.R, "Q": self.Q, "N_inner": self.N_inner,
                "cap": self.cap, "code_bits": self.code_bits,
                "instances": self.instances}


def default_instances(n: int) -> int:
    return min(49, max(9, math.ceil(math.log2(n)) ** 2))


# ---------------------------------------------------------------------------
# encoding

def _apply_axis(K: FieldSpec, gen: np.ndarray, arr: np.ndarray,
                axis: int) -> np.ndarray:
    arr = np.moveaxis(arr, axis, 0)
    out = np.zeros((gen.shape[0],) + arr.shape[1:], dtype=np.int32)
    for j in range(gen.shape[0]):
        acc = np.zeros(arr.shape[1:], dtype=np.int32)
        for i in range(gen.shape[1]):
            g = int(gen[j, i])
            if g:
                acc ^= mul_lut(K, g)[arr[i]]
        out[j] = acc
    return np.moveaxis(out, 0, axis)


def tensor_encode(code: LinearCode, d: int, x, axis_order=None) -> np.ndarray:
    """Apply the code along each of the d axes of the message tensor; the
    result is flattened in lexicographic (row-major) tuple order."""
    K = code.field
    r, R = code.msg_len, code.code_len
    x = np.asarray(x, dtype=np.int32)
    if x.size != r ** d:
        raise ValueError(f"message must have {r ** d} symbols")
    if d == 0:
        return x.copy()
    if axis_order is None:
        axis_order = range(d)
    arr = x.reshape((r,) * d)
    for axis in axis_order:
        arr = _apply_axis(K, code.gen, arr, axis)
    if arr.shape != (R,) * d:
        raise ValueError("axis_order must visit every axis exactly once")
    return arr.ravel()


def enc_linear(params: TensorParams, x) -> np.ndarray:
    """n message bits -> N_inner * R^depth codeword bits."""
    x = np.asarray(x, dtype=np.int32)
    if len(x) != params.n:
        raise ValueError(f"message must have {params.n} bits")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("message bits must be 0/1")
    syms = tensor_encode(params.axis_code, params.depth, x)
    return symbol_words(params.base_code, params.K)[syms].ravel()


# ---------------------------------------------------------------------------
# decoding

def _coin(rng, p: Fraction) -> bool:
    """True with probability p; p >= 1 and p <= 0 draw nothing."""
    num, den = p.numerator, p.denominator  # den > 0, so no Fraction compares
    if num >= den or num <= 0:
        return num > 0
    return rng.randrange(den) < num


def _base_tables(params: TensorParams):
    """Exhaustive decode table for the base code: word index -> (symbol or -1,
    dist2)."""
    tbl = getattr(params, "_base_tbl", None)
    if tbl is None:
        N = params.N_inner
        if N > 16:
            raise ValueError("base decode table capped at 16-bit blocks")
        cb = codebook(params.base_code)
        bits = (np.arange(1 << N)[:, None] >> np.arange(N)) & 1
        d2 = block_dist2(bits, cb.words)
        best = np.argmin(d2, axis=1)
        best_d2 = d2[np.arange(1 << N), best]
        radius2 = (params.base_code.dist2_bound - 1) // 2
        syms = packing(GF(1), params.K).sym[best].astype(np.int32)   # best is a lex value
        syms[best_d2 > radius2] = -1
        tbl = (syms, best_d2.astype(np.int64))
        params._base_tbl = tbl
    return tbl


def _decode_base_blocks(params: TensorParams, word, keys, rng) -> dict:
    """Shared symbol/⊥ outcome of every base block tuple in keys: unique
    decode, then one acceptance coin at probability 1 - 2*delta, drawn in
    key order (the stream order when keys are)."""
    d, Ni = params.depth, params.N_inner
    syms_tbl, d2_tbl = _base_tables(params)  # Ni <= 16, so block indices fit int32
    flats = np.array(keys, dtype=np.int64).reshape(len(keys), d) \
        @ params.R ** np.arange(d - 1, -1, -1, dtype=np.int64)
    idxs = np.asarray(word).reshape(-1, Ni)[flats] @ (1 << np.arange(Ni, dtype=np.int32))
    syms, d2s = syms_tbl[idxs], d2_tbl[idxs]
    # coin probability 1 - d2/Ni in lowest terms, tabled by d2 = 0..2*Ni
    ps = [1 - Fraction(d2, Ni) for d2 in range(2 * Ni + 1)]
    nums = np.array([p.numerator for p in ps])[d2s]
    dens = np.array([p.denominator for p in ps])[d2s]
    keep = (syms >= 0) & (nums > 0)  # as _coin: p >= 1 keeps and p <= 0 drops, drawing nothing
    for k in np.flatnonzero(keep & (nums < dens)).tolist():
        keep[k] = rng.randrange(int(dens[k])) < nums[k]
    return dict(zip(keys, [s if kp else None for s, kp in zip(syms.tolist(), keep.tolist())]))


def recurse_linear(params: TensorParams, a: int, T: tuple,
                   ell: LinearFunctional, qlists: dict, rng, node_cache: dict):
    """Value of the functional ell on the message behind block tuple T, or
    None (⊥).  a >= 1 is the remaining depth; qlists maps each remaining depth
    to its per-index query lists; node_cache holds the (value, p) of every
    level-1 node the lists reach (see _fill_level1)."""
    if a == 1:
        value, p = node_cache[T, ell.path]
    else:
        (value, p), = _node_values(params, a, T, ell, qlists, [rng], node_cache)
    if value is None:
        return None
    return value if _coin(rng, p) else None


def _fold(merged) -> tuple:
    """(sigma_1 + ... + sigma_r, min_i p_i) over the merged (sigma_i, p_i)
    confidences of a node's indices, or (None, 0) at the first index with no
    field-symbol mass; merged is consumed lazily, so later indices never run."""
    total, p_min = 0, Fraction(1)
    for sigma, p in merged:
        if sigma is None:
            return None, Fraction(0)
        total, p_min = total ^ sigma, min(p_min, p)
    return total, p_min


def _node_values(params: TensorParams, a: int, T: tuple, ell: LinearFunctional,
                 qlists: dict, rngs: list, node_cache: dict) -> list:
    """(value, p) of a node above level 1 before its acceptance coin, once per
    instance rng in rngs.  Index by index, each instance with no ⊥ index yet
    draws its children's coins from its own rng, in the order one instance
    alone would, and one decode_curves_large call scans all their curve
    words; an instance stops at its first ⊥ index."""
    ql, r = qlists[a], params.r
    out = [(0, Fraction(1))] * len(rngs)
    live = list(range(len(rngs)))
    for i in range(r):
        child_ell, plan = ell.restrict(i, r), ql.plans[i]
        heads = sorted({int(p) for p in ql.lists[i]})
        words = []
        for n in live:
            values = {j: recurse_linear(params, a - 1, T + (j,), child_ell, qlists, rngs[n],
                                        node_cache) for j in heads}
            words += [ERASE if values[j] is None else values[j] for j in plan.positions.tolist()]
        decoded, c = decode_curves_large(params.ldc, words), len(plan.blocks)
        for s, n in enumerate(live):
            got = decoded[s * c:(s + 1) * c]
            sigma, p = confidence_from_decoded(params.ldc, plan, got).merged()[:2]
            total, p_min = out[n]
            out[n] = (None, Fraction(0)) if sigma is None else (total ^ sigma, min(p_min, p))
        live = [n for n in live if out[n][0] is not None]
    return out


def _fill_level1(params: TensorParams, nodes: list, qlists: dict,
                 base_cache: dict, node_cache: dict):
    """node_cache[(T, ell.path)] = (value, p) for every level-1 node (T, ell),
    folded as _node_values folds, with the nodes' distinct curve words (one
    per (T, child index, curve, coefficient)) decoded by one batched scan.
    Level 1 draws no coins, so an index past a ⊥ one only costs a scan."""
    K, plans = params.K, qlists[1].plans
    heads = sorted({int(p) for lst in qlists[1].lists for p in lst})
    pos = [plan.positions.reshape(len(plan.blocks), -1) for plan in plans]
    rows, spans, words = {}, {}, []
    for T, ell in nodes:
        if T not in rows:  # base outcome of block T + (j,) at j; -1 for ⊥ or unread
            rows[T] = row = np.full(params.R, -1, dtype=np.int32)
            row[heads] = [-1 if (v := base_cache[T + (j,)]) is None else v for j in heads]
        for i, c in enumerate(ell.coeffs.tolist()):
            if (T, i, c) not in spans:
                spans[T, i, c] = range(len(words), len(words) + len(pos[i]))
                x = rows[T][pos[i]]
                words.extend(np.where(x < 0, ERASE, mul_lut(K, c)[x]))
    decoded, folds = decode_curves_large(params.ldc, words), {}

    def merged(T, i, c):  # equal curve outcomes of an index fold to equal confidences
        got = (i,) + tuple(decoded[w] for w in spans[T, i, c])
        if got not in folds:
            folds[got] = confidence_from_decoded(params.ldc, plans[i], got[1:]).merged()[:2]
        return folds[got]
    for T, ell in nodes:
        node_cache[T, ell.path] = _fold(merged(T, i, c)
                                        for i, c in enumerate(ell.coeffs.tolist()))


def lift_functional(params: TensorParams, ell_bits) -> LinearFunctional:
    ell_bits = np.asarray(ell_bits, dtype=np.int32)
    if len(ell_bits) != params.n:
        raise ValueError(f"functional must have {params.n} coefficients")
    if not np.all((ell_bits == 0) | (ell_bits == 1)):
        raise ValueError("functional coefficients must be 0/1")
    return LinearFunctional(params.K, ell_bits)


def functional_dot(ell_bits, x_bits) -> int:
    """Ground truth ell . x over GF(2)."""
    return int(np.bitwise_and(np.asarray(ell_bits, dtype=np.int32),
                              np.asarray(x_bits, dtype=np.int32)).sum() & 1)


def linear_dec_traced(params: TensorParams, stream: SymbolStream, ell_bits,
                      rng) -> tuple:
    """(majority bit, diagnostics).  One in-order read of the stream; shared
    query lists, base outcomes and level-1 nodes; per-instance coins."""
    d = params.depth
    word = np.asarray(stream.read_run(params.code_bits), dtype=np.int32)
    if (word == ERASE).any():
        raise ValueError("tensor decoding reads bits; the word holds an erasure")
    ell = lift_functional(params, ell_bits)
    qlists = {a: gen_qlists(params.ldc, rng) for a in range(d, 0, -1)}
    seeds = [rng.randrange(2 ** 63) for _ in range(params.instances)]

    # lockstep live-tuple footprint: at depth j a block tuple is live for one
    # (functional path) per query list containing each of its digits
    live_max, live_cap, prod = {}, {}, 1
    for depth_j, a in enumerate(range(d, 0, -1), start=1):
        prod *= int(qlists[a].counts.max())
        live_max[depth_j] = prod
        live_cap[depth_j] = params.cap ** depth_j

    # shared base outcomes, drawn in stream order (fixed coin schedule)
    needed = [sorted({int(p) for lst in qlists[a].lists for p in lst})
              for a in range(d, 0, -1)]
    base_cache = _decode_base_blocks(params, word, list(itertools.product(*needed)), rng)

    # every level-1 node the lists of levels d..2 reach, filled before any instance
    nodes = [((), ell)]
    for a in range(d, 1, -1):
        nodes = [(T + (j,), f.restrict(i, params.r)) for T, f in nodes
                 for i in range(params.r) for j in sorted({int(p) for p in qlists[a].lists[i]})]
    node_cache: dict = {}
    _fill_level1(params, nodes, qlists, base_cache, node_cache)
    # the instances walk the root together, so each index's words share one scan
    rngs = [random.Random(seed) for seed in seeds]
    roots = (_node_values(params, d, (), ell, qlists, rngs, node_cache) if d > 1
             else [node_cache[(), ell.path]] * len(rngs))
    votes, bots = [], 0
    for inst_rng, (value, p) in zip(rngs, roots):
        val = value if value is not None and _coin(inst_rng, p) else None
        bots += val is None
        votes.append(inst_rng.randrange(2) if val is None else val & 1)
    bit = 1 if sum(votes) * 2 > len(votes) else 0
    return bit, {"votes": votes, "bot_instances": bots, "live_max": live_max,
                 "live_cap": live_cap,
                 "live_ok": all(live_max[j] <= live_cap[j] for j in live_max),
                 "base_blocks": len(base_cache), "level1_nodes": len(node_cache),
                 "qlist_cap": params.cap}
