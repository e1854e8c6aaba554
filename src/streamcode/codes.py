"""Generator-matrix linear codes over GF(2^k) and their decoders.

A LinearCode is a generator matrix with its field; rows are codeword
positions, columns are message symbols, so encoding is gen @ msg over the
field.  Words (received vectors) are int numpy arrays where ERASE (-1) marks
an erasure; distances are tracked as integer "dist2" values (twice the
absolute distance) so that erasures can count exactly one half each.

Every word-to-code distance goes through block_dist2, the dist2 of each
block of a word to each row of a table of inner codewords.  A plain code's
Codebook scans its whole codeword table as one block.  A concatenated code's
Codebook measures each block against the |F| inner codewords once, sums
those distances over a few consecutive blocks into one table per group
(indexed by the group's combined F-symbols), and adds, group by group, one
take of that table over the group's column of outer-codeword symbols, so it
never builds the codeword table.  A scan takes one word or a stack of words;
a stack shares every take (the tensor decoder scans its level-1 curve words
that way).  GMD's inner decode and the tensor codec's base table use the
same block_dist2 against the inner code's codewords.

Decoding entry points:

- nearest_codeword_bruteforce / min_distance_bruteforce: exhaustive scans over
  a cached codebook.  These double as test oracles for everything else, so
  they stay deliberately simple.
- unique_decode: within-half-distance decoding, returning (message, dist2)
  like the other two, or None.  Concatenated codes with a Reed-Solomon outer
  layer go through generalized-minimum-distance (GMD) decoding: every block
  is decoded to its nearest inner codeword, and the outer word of their
  symbols is checked against the outer parity-check matrix.  A zero syndrome
  settles the decode at once: the message reads off the outer word and its
  dist2 is the sum of the blocks' own distances.  Only a nonzero syndrome
  runs the erasure sweep, ordered by block confidence, each step a
  Berlekamp-Welch errors-and-erasures solve whose candidate is measured
  through the same block table.  Anything else small enough falls back to
  the brute-force scan.
- list_decode_concat: all codewords within a radius, by one codebook scan
  (block table plus per-group takes for concatenated codes; the codebook is
  capped at 2^20 messages by design).  The scan covers every message, or only
  the message indices the caller passes, as the advice decoder does with the
  coset its advice pins; both go through the same takes and threshold.

Linear algebra over the field (make_systematic, gf_solve, validate, and
ldc_binary's advice coset) is one Gauss-Jordan elimination, _rref.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf import (
    ERASE, GF, MODULI, FieldSpec, field_inv, field_mul, field_pow, gf_matvec,
    mul_arrays, mul_lut, pack_symbols, poly_divmod, poly_eval, unpack_symbol,
)

BRUTE_FORCE_LIMIT = 1 << 20  # largest message space we will ever enumerate


@dataclass
class LinearCode:
    """A linear code given by its (code_len x msg_len) generator matrix."""

    field: FieldSpec
    gen: np.ndarray
    kind: str = "generic"
    systematic_positions: tuple | None = None
    dist2_bound: int = 0  # 2x a proven lower bound on the minimum distance

    def __post_init__(self):
        self.gen = np.asarray(self.gen, dtype=np.int32)
        self._codebook = None

    @property
    def msg_len(self) -> int:
        return self.gen.shape[1]

    @property
    def code_len(self) -> int:
        return self.gen.shape[0]

    @property
    def msg_space(self) -> int:
        return self.field.q ** self.msg_len

    def encode(self, msg) -> np.ndarray:
        msg = np.asarray(msg, dtype=np.int32)
        if msg.shape != (self.msg_len,):
            raise ValueError(f"message length {msg.shape} != {self.msg_len}")
        return gf_matvec(self.field, self.gen, msg)

    def validate(self):
        """Check full column rank and (if present) the systematic layout."""
        if len(_rref(self.field, self.gen.T)[1]) != self.msg_len:
            raise ValueError("generator does not have full column rank")
        if self.systematic_positions is not None:
            sub = self.gen[list(self.systematic_positions)]
            if not np.array_equal(sub, np.eye(self.msg_len, dtype=np.int32)):
                raise ValueError("systematic positions do not read back the message")
        return self

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "field_k": self.field.k,
            "msg_len": self.msg_len,
            "code_len": self.code_len,
            "dist2_bound": self.dist2_bound,
            "systematic": self.systematic_positions is not None,
        }


@dataclass
class ConcatCode(LinearCode):
    """Concatenation: outer code over F, each F-symbol re-encoded by an inner
    code over K, where |F| = |K|^e and e = inner.msg_len.  The message is read
    as groups of e K-symbols packed into one F-symbol each."""

    outer: LinearCode = None
    inner: LinearCode = None

    @property
    def block_len(self) -> int:
        return self.inner.code_len

    @property
    def num_blocks(self) -> int:
        return self.outer.code_len

    @cached_property
    def inner_words(self) -> np.ndarray:
        """(|F|, block_len) table: row s is the block that F-symbol s becomes."""
        return symbol_words(self.inner, self.outer.field)

    @cached_property
    def gmd(self) -> "GmdTables":
        return GmdTables(self)


# ---------------------------------------------------------------------------
# distances

def word_dist2(w, c) -> int:
    """2*(Hamming distance) where a position erased in exactly one of the two
    words counts 1 (i.e. one half)."""
    w = np.asarray(w)
    c = np.asarray(c)
    era = int(((w == ERASE) != (c == ERASE)).sum())
    return 2 * int((w != c).sum()) - era


def _dist2_dtype(length: int):
    """int16 holds every dist2 of a word shorter than 2^14 symbols."""
    return np.int16 if length < 1 << 14 else np.int64


def block_dist2(blocks, table: np.ndarray) -> np.ndarray:
    """(len(blocks), len(table)) dist2 of every block (a row of `blocks`,
    erasures allowed) to every row of `table`: 2 * mismatches - erasures."""
    dt = _dist2_dtype(table.shape[1])
    blocks = np.asarray(blocks).astype(table.dtype, copy=False)
    era = (blocks == ERASE).sum(axis=1, dtype=dt)
    mism = (table[None, :, :] != blocks[:, None, :]).sum(axis=2, dtype=dt)
    return 2 * mism - era[:, None]


# ---------------------------------------------------------------------------
# dense linear algebra over GF(2^k)

def _rref(K: FieldSpec, M) -> tuple:
    """(R, pivot_cols): the reduced row echelon form of M over K by one
    Gauss-Jordan elimination.  Each pivot is the first nonzero entry at or
    below the current row; the pivot columns are the lexicographically first
    set of independent columns."""
    R = np.array(M, dtype=np.int32)
    nrows, ncols = R.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(R[r:, c])
        if not len(nz):
            continue
        R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        R[r] = mul_lut(K, field_inv(K, int(R[r, c])))[R[r]]
        f = R[:, c].copy()
        f[r] = 0
        rows = np.flatnonzero(f)
        R[rows] ^= mul_arrays(K, f[rows, None], R[r])
        pivots.append(c)
    return R, pivots


def gf_solve(K: FieldSpec, A, b):
    """One solution of A x = b over the field, or None.  Free variables -> 0."""
    A = np.asarray(A, dtype=np.int32)
    ncols = A.shape[1]
    R, pivots = _rref(K, np.column_stack([A, np.asarray(b, dtype=np.int32)]))
    if pivots and pivots[-1] == ncols:
        return None  # inconsistent
    x = [0] * ncols
    for i, c in enumerate(pivots):
        x[c] = int(R[i, ncols])
    return x


# ---------------------------------------------------------------------------
# constructions

def rs_code(F: FieldSpec, eval_points, degree_bound: int) -> LinearCode:
    """Reed-Solomon: evaluations of polynomials of degree < degree_bound."""
    pts = list(eval_points)
    if len(set(pts)) != len(pts):
        raise ValueError("evaluation points must be distinct")
    if not 1 <= degree_bound <= len(pts):
        raise ValueError("need 1 <= degree_bound <= number of points")
    gen = np.zeros((len(pts), degree_bound), dtype=np.int32)
    for i, x in enumerate(pts):
        for j in range(degree_bound):
            gen[i, j] = field_pow(F, x, j)
    # MDS: distance is exactly n - k + 1
    code = LinearCode(F, gen, kind="rs", dist2_bound=2 * (len(pts) - degree_bound + 1))
    code.eval_points = tuple(pts)
    return code


def rm_monomials(m: int, d: int):
    """Exponent tuples of total degree <= d, in lexicographic order."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], d)
    return sorted(out)


def rm_code(F: FieldSpec, m: int, d: int) -> LinearCode:
    """Reed-Muller: m-variate polynomials of total degree <= d evaluated on
    all q^m points.  Point index encodes coordinates base q, first coordinate
    most significant.  Distance >= (q - d) * q^(m-1)."""
    if not 0 <= d < F.q:
        raise ValueError("need degree < field size")
    q = F.q
    n_pts = q ** m
    idx = np.arange(n_pts)
    coords = np.stack([(idx // q ** (m - 1 - a)) % q for a in range(m)], axis=1).astype(np.int32)
    monos = rm_monomials(m, d)
    cols = []
    pow_lut = {e: np.array([field_pow(F, x, e) for x in range(q)], dtype=np.int32) for e in range(d + 1)}
    for es in monos:
        col = np.ones(n_pts, dtype=np.int32)
        for a, e in enumerate(es):
            if e:
                col = mul_arrays(F, col, pow_lut[e][coords[:, a]])
        cols.append(col)
    gen = np.stack(cols, axis=1)
    code = LinearCode(F, gen, kind="rm", dist2_bound=2 * (q - d) * q ** (m - 1))
    code.rm_m, code.rm_d = m, d
    return code


def make_systematic(code: LinearCode) -> LinearCode:
    """Re-parameterize so the message reads back at a fixed set of positions,
    chosen greedily in position order (first lexicographic information set)."""
    R, pivots = _rref(code.field, code.gen.T)
    if len(pivots) < code.msg_len:
        raise ValueError("generator does not have full column rank")
    new = LinearCode(code.field, R.T, kind=code.kind,
                     systematic_positions=tuple(pivots), dist2_bound=code.dist2_bound)
    for attr in ("rm_m", "rm_d", "eval_points"):
        if hasattr(code, attr):
            setattr(new, attr, getattr(code, attr))
    return new


def concat(outer: LinearCode, inner: LinearCode) -> ConcatCode:
    """Concatenated code.  Requires |outer.field| = |inner.field|^inner.msg_len
    so outer symbols unpack exactly into inner messages; the result is linear
    over the inner field because the packing map is."""
    F, K = outer.field, inner.field
    e = inner.msg_len
    if F.k != K.k * e:
        raise ValueError(f"alphabet mismatch: |F|=2^{F.k} vs |K|^e=2^{K.k * e}")
    m = outer.msg_len * e
    # column u encodes the unit message e_u: basis symbol pack(e_{u mod e})
    # times outer column u // e, then every block through the inner code
    words = symbol_words(inner, F)
    basis = [pack_symbols(K, F, np.eye(e, dtype=np.int32)[s]) for s in range(e)]
    cols = np.stack([words[mul_lut(F, basis[u % e])[outer.gen[:, u // e]]].ravel()
                     for u in range(m)], axis=1)
    sys_pos = None
    if outer.systematic_positions is not None and inner.systematic_positions is not None:
        sys_pos = tuple(
            outer.systematic_positions[j // e] * inner.code_len + inner.systematic_positions[j % e]
            for j in range(m))
    cc = ConcatCode(K, cols, kind="concat", systematic_positions=sys_pos,
                    dist2_bound=outer.dist2_bound * inner.dist2_bound // 2,
                    outer=outer, inner=inner)
    return cc


def pack_table(K: FieldSpec, F: FieldSpec) -> np.ndarray:
    """F-symbol that each group of F.k/K.k K-symbols packs into, indexed by
    the group's lex value (symbol 0 most significant)."""
    e = F.k // K.k
    return np.array([pack_symbols(K, F, [(v // K.q ** (e - 1 - u)) % K.q for u in range(e)])
                     for v in range(F.q)], dtype=np.int64)


def symbol_words(inner: LinearCode, F: FieldSpec) -> np.ndarray:
    """(|F|, inner.code_len) table: row s is the inner codeword of the
    inner.msg_len symbols that the F-symbol s unpacks to."""
    return np.stack([inner.encode(np.array(unpack_symbol(inner.field, F, s), dtype=np.int32))
                     for s in range(F.q)]).astype(np.int32)


def replicate(code: LinearCode, times: int) -> LinearCode:
    """Repeat every codeword `times` times end-to-end (distance scales along)."""
    gen = np.concatenate([code.gen] * times, axis=0)
    sys_pos = code.systematic_positions  # first copy still reads back
    return LinearCode(code.field, gen, kind=code.kind, systematic_positions=sys_pos,
                      dist2_bound=code.dist2_bound * times)


def simplex_code(b: int) -> LinearCode:
    """[2^b - 1, b] binary code: evaluations of all nonzero linear functionals;
    every nonzero codeword has weight exactly 2^(b-1)."""
    K = GF(1)
    pts = np.arange(1, 1 << b)
    gen = np.stack([(pts >> j) & 1 for j in range(b)], axis=1).astype(np.int32)
    sys_pos = tuple((1 << j) - 1 for j in range(b))  # rows for unit masks e_j
    return LinearCode(K, gen, kind="simplex", systematic_positions=sys_pos,
                      dist2_bound=2 * (1 << (b - 1)))


def extended_hamming_code() -> LinearCode:
    """The [8,4,4] binary code (self-dual, contains the all-ones word)."""
    gen = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ], dtype=np.int32)
    return LinearCode(GF(1), gen, kind="ext-hamming", systematic_positions=(0, 1, 2, 3),
                      dist2_bound=8)


def repetition_code(K: FieldSpec, times: int) -> LinearCode:
    gen = np.ones((times, 1), dtype=np.int32)
    return LinearCode(K, gen, kind="repetition", systematic_positions=(0,),
                      dist2_bound=2 * times)


def doubly_extended_rs(F: FieldSpec) -> LinearCode:
    """[q+1, 2, q] MDS code over GF(q): (a, a+b*x for all x, b)."""
    q = F.q
    gen = np.zeros((q + 1, 2), dtype=np.int32)
    gen[0] = (1, 0)
    for i, x in enumerate(range(1, q)):
        gen[1 + i] = (1, x)
    gen[q] = (0, 1)
    return LinearCode(F, gen, kind="rs-ext", systematic_positions=(0, q), dist2_bound=2 * q)


# ---------------------------------------------------------------------------
# codebooks (exhaustive enumeration, cached on the code object)

class Codebook:
    """All codewords of a small code, message index in lexicographic order
    (message symbol 0 most significant).

    A plain code keeps every codeword in `words`.  A concatenated code keeps
    none: it holds the outer codewords column by column, in groups of `group`
    consecutive blocks (the last one padded with blocks at distance 0), where
    `cols[b]` is the combined F-symbol of group b in every message's codeword
    (q^group <= 256 values).  A scan measures each block once against the |F|
    inner codewords, sums those distances into one table per group over its
    combined symbols, and adds, group by group, one take of that table at the
    group's column."""

    def __init__(self, code: LinearCode):
        if code.msg_space > BRUTE_FORCE_LIMIT:
            raise ValueError(f"message space {code.msg_space} exceeds the enumeration cap")
        self.code = code
        self.words = None
        idx = np.arange(code.msg_space, dtype=np.int64)
        if isinstance(code, ConcatCode):
            outer, F = code.outer, code.outer.field
            self.inner_words = code.inner_words   # (|F|, block_len)
            # lex index over K-digits -> lex index over the packed F-symbols
            pack = pack_table(code.field, F)
            self._unpack = np.argsort(pack)   # F-symbol -> lex value of its K-digits
            outer_idx = np.zeros_like(idx)
            for t in range(outer.msg_len):
                outer_idx = outer_idx * F.q + pack[(idx // F.q ** (outer.msg_len - 1 - t)) % F.q]
            self.group = g = max(1, 8 // F.k)
            rows = codebook(outer).words[outer_idx]
            # intp is take()'s index type; a padding block adds symbol 0
            self.cols = np.zeros((-(-outer.code_len // g), len(idx)), dtype=np.intp)
            for b in range(outer.code_len):  # q^g <= 256, so each term fits rows' int16
                self.cols[b // g] += rows[:, b] * F.q ** (g - 1 - b % g)
            return
        K, m = code.field, code.msg_len
        self.words = np.zeros((code.msg_space, code.code_len), dtype=np.int16)
        for j in range(m):
            digit = (idx // K.q ** (m - 1 - j)) % K.q
            contrib = np.stack([mul_lut(K, v)[code.gen[:, j]] for v in range(K.q)])
            self.words ^= contrib.astype(np.int16)[digit]

    def msg_of_index(self, i: int) -> np.ndarray:
        K, m = self.code.field, self.code.msg_len
        return np.array([(i // K.q ** (m - 1 - j)) % K.q for j in range(m)], dtype=np.int32)

    def index_of_packed(self, rows) -> np.ndarray:
        """Message indices of a concatenated code's messages given as rows of
        packed outer symbols (one F-symbol per group of K-digits)."""
        F, T = self.code.outer.field, self.code.outer.msg_len
        return self._unpack[np.asarray(rows)] @ F.q ** np.arange(T - 1, -1, -1, dtype=np.int64)

    def dist2_scan(self, w, idx=None) -> np.ndarray:
        """dist2 from w to every codeword, or to the codewords of the message
        indices `idx` in their order (erasures allowed, charged 1 each).  A
        stack of words (a 2-D w) gives one row of distances per word."""
        w = np.asarray(w, dtype=np.int32)
        stack = w.reshape(-1, w.shape[-1])
        if idx is not None:
            idx = np.asarray(idx, dtype=np.intp)
        if self.words is not None:
            d2 = block_dist2(stack, self.words if idx is None else self.words[idx])
        else:
            n, (q, blen), g = len(stack), self.inner_words.shape, self.group
            cols = self.cols if idx is None else np.take(self.cols, idx, axis=1)
            # every dist2 is at most 2 * code_len, which this dtype holds
            d2 = np.zeros((n, cols.shape[1]), dtype=_dist2_dtype(self.code.code_len))
            # block distances to the inner codewords; padding blocks stay at 0
            blocks = np.zeros((n, len(cols) * g, q), dtype=d2.dtype)
            blocks[:, :stack.shape[1] // blen] = block_dist2(
                stack.reshape(-1, blen), self.inner_words).reshape(n, -1, q)
            blocks = blocks.reshape(n, len(cols), g, q)
            # per group, distances by combined symbol (first block most significant)
            table = blocks[:, :, 0]
            for k in range(1, g):
                table = (table[..., None] + blocks[:, :, k, None, :]).reshape(n, len(cols), -1)
            part = np.empty_like(d2)
            for b, col in enumerate(cols):  # valid symbols: clip skips take()'s buffer
                d2 += np.take(table[:, b], col, axis=1, out=part, mode="clip")
        return d2 if w.ndim == 2 else d2[0]


def codebook(code: LinearCode) -> Codebook:
    if code._codebook is None:
        code._codebook = Codebook(code)
    return code._codebook


# ---------------------------------------------------------------------------
# brute-force oracles

def nearest_codeword_bruteforce(code: LinearCode, w):
    """(message, dist2) of the closest codeword; ties break to the smallest
    message index, so the result is deterministic."""
    cb = codebook(code)
    d2 = cb.dist2_scan(w)
    i = int(np.argmin(d2))
    return cb.msg_of_index(i), int(d2[i])


def min_distance_bruteforce(code: LinearCode) -> int:
    """Exact minimum distance (= minimum nonzero weight; the code is linear)."""
    cb = codebook(code)
    weights = cb.dist2_scan(np.zeros(code.code_len, dtype=np.int32)) // 2
    weights[0] = code.code_len + 1  # skip the zero codeword (message index 0)
    return int(weights.min())


# ---------------------------------------------------------------------------
# unique decoding

def unique_decode(code: LinearCode, w, radius2: int | None = None):
    """(message, dist2) of the unique codeword within the radius, or None.

    radius2 is twice the absolute radius and defaults to just under half the
    declared minimum distance, where uniqueness is guaranteed.  Concatenated
    codes with a Reed-Solomon outer layer use GMD decoding; everything else
    falls back to the brute-force scan when the message space allows.
    """
    if radius2 is None:
        if code.dist2_bound <= 0:
            raise ValueError("code has no declared distance; pass radius2 explicitly")
        radius2 = (code.dist2_bound - 1) // 2
    if isinstance(code, ConcatCode) and code.outer.kind == "rs" \
            and code.inner.msg_space <= BRUTE_FORCE_LIMIT:
        return _gmd_decode(code, w, radius2)
    if code.msg_space <= BRUTE_FORCE_LIMIT:
        got = nearest_codeword_bruteforce(code, w)
        return got if got[1] <= radius2 else None
    raise ValueError("no decoding route: message space too large and no GMD structure")


class GmdTables:
    """What GMD needs of one Reed-Solomon-outer concatenation, built once.

    Inner codewords are kept in inner message (lex) order, so argmin ties
    break to the smallest inner message; sym_of_index packs that index into
    its F-symbol and index_of_sym inverts it.  H is a parity-check matrix of
    the outer code (the null space of gen.T); an outer word is a codeword iff
    H @ word == 0.  The outer message reads back from the word's symbols at
    the pivots of gen.T through `rec`, the inverse of the generator's rows
    there; that holds for every full-rank outer generator, systematic or not.
    vander evaluates a polynomial of degree < k at every outer evaluation
    point: it is the outer generator itself for a plain RS code, and is built
    apart only for a systematized one."""

    def __init__(self, cc: ConcatCode):
        F, K, outer = cc.outer.field, cc.inner.field, cc.outer
        n, k = outer.code_len, outer.msg_len
        self.F = F
        self.inner_table = codebook(cc.inner).words
        self.sym_of_index = pack_table(K, F)
        self.index_of_sym = np.argsort(self.sym_of_index)
        self.unpack = np.array([unpack_symbol(K, F, s) for s in range(F.q)],
                               dtype=np.int32).reshape(F.q, -1)
        R, pivots = _rref(F, outer.gen.T)
        free = [c for c in range(n) if c not in pivots]
        self.H = np.zeros((len(free), n), dtype=np.int32)
        self.H[np.arange(len(free)), free] = 1
        self.H[:, pivots] = R[:, free].T
        self.pivots = pivots
        self.rec = _rref(F, np.hstack([outer.gen[pivots], np.eye(k, dtype=np.int32)]))[0][:, k:]
        self.vander = (outer.gen if outer.systematic_positions is None
                       else rs_code(F, outer.eval_points, k).gen)

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        return np.bitwise_xor.reduce(mul_arrays(self.F, self.H, word[None, :]), axis=1)

    def message(self, word: np.ndarray) -> np.ndarray:
        """The concatenated message whose outer codeword is `word`."""
        return self.unpack[gf_matvec(self.F, self.rec, word[self.pivots])].ravel()


def _gmd_inner(cc: ConcatCode, w):
    """(d2, syms, best_d2): the (block, inner message) dist2 table of w, the
    F-symbol of each block's nearest inner codeword and its dist2."""
    g = cc.gmd
    d2 = block_dist2(np.asarray(w, dtype=np.int32).reshape(cc.num_blocks, cc.block_len),
                     g.inner_table)
    best = np.argmin(d2, axis=1)
    return d2, g.sym_of_index[best], d2[np.arange(cc.num_blocks), best]


def _gmd_decode(cc: ConcatCode, w, radius2: int):
    """Generalized minimum distance decoding for RS-outer concatenations.

    Decode every block to its nearest inner codeword and take the outer word
    of their F-symbols.  If its syndrome is zero, it is the only outer
    codeword any sweep step could find, and the concatenated codeword it
    names is at dist2 best_d2.sum() (every block already sits on its nearest
    inner word): return (message, dist2) when that is inside radius2, else
    None.  Otherwise run the erasure sweep (_gmd_sweep).  GMD finds the
    codeword whenever dist2(w, c) is below half the designed composite
    distance; we return the first candidate inside radius2 (unique there by
    assumption).
    """
    d2, syms, best_d2 = _gmd_inner(cc, w)
    if not cc.gmd.syndrome(syms).any():
        total = int(best_d2.sum(dtype=np.int64))
        return (cc.gmd.message(syms), total) if total <= radius2 else None
    return _gmd_sweep(cc, d2, syms, best_d2, radius2)


def _gmd_sweep(cc: ConcatCode, d2, syms, best_d2, radius2: int):
    """The GMD erasure sweep over _gmd_inner's output: for erasure counts
    0..d_out-1, erase the least confident blocks, run a Berlekamp-Welch
    errors-and-erasures solve on the rest, and read each new candidate's
    dist2 off the block table.  The first candidate inside radius2 wins, as
    (message, dist2)."""
    F, g = cc.outer.field, cc.gmd
    n_blocks, k_rs = cc.num_blocks, cc.outer.msg_len
    xs_all = cc.outer.eval_points
    blocks = np.arange(n_blocks)
    order = np.argsort(-best_d2, kind="stable")  # least confident first
    seen = set()
    for n_erase in range(0, n_blocks - k_rs + 1):
        erased = set(order[:n_erase].tolist())
        kept = [p for p in range(n_blocks) if p not in erased]
        h = _bw_decode(F, [xs_all[p] for p in kept], [int(syms[p]) for p in kept], k_rs)
        if h is None or tuple(h) in seen:
            continue
        seen.add(tuple(h))
        word = gf_matvec(F, g.vander, h + [0] * (k_rs - len(h)))
        total = int(d2[blocks, g.index_of_sym[word]].sum(dtype=np.int64))
        if total <= radius2:
            return g.message(word), total
    return None


def _bw_decode(F: FieldSpec, xs, ys, k_rs: int):
    """Berlekamp-Welch: the polynomial of degree < k_rs agreeing with all but
    at most (len(xs) - k_rs) // 2 of the (x, y) pairs, or None."""
    n = len(xs)
    if n < k_rs:
        return None
    e = (n - k_rs) // 2
    # unknowns: N (deg < k_rs + e), E (monic deg e): N(x) = y * E(x)
    ncols = (k_rs + e) + e
    A, b = [], []
    for x, y in zip(xs, ys):
        row = [field_pow(F, x, j) for j in range(k_rs + e)]
        row += [field_mul(F, y, field_pow(F, x, i)) for i in range(e)]
        A.append(row)
        b.append(field_mul(F, y, field_pow(F, x, e)))
    sol = gf_solve(F, A, b)
    if sol is None:
        return None
    N = sol[:k_rs + e]
    E = sol[k_rs + e:] + [1]  # monic
    h, rem = poly_divmod(F, N, E)
    if rem or len(h) > k_rs:
        return None
    agree = sum(1 for x, y in zip(xs, ys) if poly_eval(F, h, x) == y)
    return h if agree >= n - e else None


# ---------------------------------------------------------------------------
# list decoding

def list_decode_concat(code: LinearCode, w, eps, radius: Fraction | None = None,
                       idx=None):
    """All (message, dist2) within relative radius (1-eps)/2 of w (erasures a
    half each), sorted by dist2 then msg index, by one codebook scan over
    every message or over the message indices `idx` only.  A restricted scan
    returns the full result filtered to idx; an index given twice is listed
    twice."""
    if radius is None:
        radius = (1 - Fraction(eps)) / 2
    cb = codebook(code)
    d2 = cb.dist2_scan(w, idx)
    index = np.arange(len(d2)) if idx is None else np.asarray(idx, dtype=np.int64)
    thresh = radius * 2 * code.code_len  # dist2 <= 2*M*radius
    hits = np.nonzero(d2 <= float(thresh) + 1e-12)[0]
    hits = [(int(d2[h]), int(index[h])) for h in hits if Fraction(int(d2[h])) <= thresh]
    hits.sort()
    return [(cb.msg_of_index(i), d) for d, i in hits]


# ---------------------------------------------------------------------------
# epsilon-balanced systematic code family

def ecc_eps(K: FieldSpec, eps: Fraction, n: int) -> LinearCode:
    """Systematic linear code over K with relative distance >= 1 - 1/|K| - eps.

    Outer: Reed-Solomon at rate <= eps/2 over an extension field F of K.
    Inner: Reed-Solomon again when the required length fits inside K (MDS),
    otherwise a random linear code searched to relative distance
    >= 1 - 1/|K| - eps/2 (retry budget 10^4; fixed seed, so deterministic).
    Composite: (1 - eps/2)(1 - 1/|K| - eps/2) >= 1 - 1/|K| - eps.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    # pick the extension degree e so the outer RS length fits inside F = K^e
    choice = None
    for e in range(1, 13):
        if K.k * e not in MODULI:
            continue
        n_F = -(-n // e)
        if _ceil_div(2 * n_F, eps) <= (1 << (K.k * e)):
            choice = e
            break
    if choice is None:
        raise ValueError("message too long for the supported field tower")
    e = choice
    F = GF(K.k * e)
    n_F = -(-n // e)
    M_out = max(_ceil_div(2 * n_F, eps), n_F)
    outer = make_systematic(rs_code(F, list(range(M_out)), n_F))
    inner = _ecc_inner(K, e, eps)
    code = concat(outer, inner)
    if n < outer.msg_len * e:
        code = _shorten(code, n)
    target = Fraction(1) - Fraction(1, K.q) - eps
    code.dist2_bound = max(code.dist2_bound, _ceil_frac(2 * code.code_len * target))
    code.kind = "ecc-eps"
    return code


def _ceil_div(a: int, eps: Fraction) -> int:
    f = Fraction(a) / eps
    return -(-f.numerator // f.denominator)


def _ceil_frac(f: Fraction) -> int:
    return -(-f.numerator // f.denominator)


def _shorten(code: LinearCode, n: int) -> LinearCode:
    """Restrict a systematic code to its first n message symbols (the rest are
    pinned to zero).  Distance can only shrink the other way, never down; the
    result is a plain LinearCode because block decode structure no longer
    matches the slimmer message."""
    return LinearCode(code.field, code.gen[:, :n], kind=code.kind,
                      systematic_positions=code.systematic_positions[:n],
                      dist2_bound=code.dist2_bound)


def _ecc_inner(K: FieldSpec, e: int, eps: Fraction) -> LinearCode:
    """Inner code over K with msg_len e and relative distance
    >= 1 - 1/|K| - eps/2."""
    target = Fraction(1) - Fraction(1, K.q) - eps / 2
    # MDS route: length-N RS over K has distance (N - e + 1)/N
    for N in range(e, K.q + 1):
        if N <= K.q and e <= N and Fraction(N - e + 1, N) >= target:
            return make_systematic(rs_code(K, list(range(N)), e))
    # random search route, lengthening every thousand failures
    rng = np.random.default_rng(97 + 1000 * K.k + e)
    N = max(e + 1, _ceil_frac(Fraction(4 * e) / (1 - Fraction(1, K.q))))
    for attempt in range(10_000):
        if attempt and attempt % 1000 == 0:
            N += max(1, N // 8)
        gen = rng.integers(0, K.q, size=(N, e), dtype=np.int32)
        cand = LinearCode(K, gen, kind="random-inner")
        try:
            cand = make_systematic(cand)
        except ValueError:
            continue
        d = min_distance_bruteforce(cand)
        if d >= _ceil_frac(N * target):
            cand.dist2_bound = 2 * d
            return cand
    raise RuntimeError("inner code search exhausted its retry budget")
