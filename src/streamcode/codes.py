"""Generator-matrix linear codes over GF(2^k) and their decoders.

A LinearCode is a generator matrix with its field; rows are codeword
positions, columns are message symbols, so encoding is gen @ msg over the
field.  Words (received vectors) are int numpy arrays where ERASE (-1) marks
an erasure; distances are tracked as integer "dist2" values (twice the
absolute distance) so that erasures can count exactly one half each.

Decoding entry points:

- nearest_codeword_bruteforce / min_distance_bruteforce: exhaustive scans over
  a cached codebook.  These double as test oracles for everything else, so
  they stay deliberately simple.
- unique_decode: within-half-distance decoding.  Concatenated codes with a
  Reed-Solomon outer layer go through generalized-minimum-distance decoding
  (per-block inner decode, then an erasure sweep ordered by block confidence,
  each step finished by a Berlekamp-Welch errors-and-erasures solve); anything
  else small enough falls back to the brute-force scan.
- list_decode_concat: all codewords within a radius, by exhaustive codebook
  scan (the codebook is capped at 2^20 messages by design).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import (
    ERASE, GF, MODULI, FieldSpec, field_inv, field_mul, field_pow, gf_matvec,
    mul_arrays, mul_lut, pack_symbols, poly_divmod, poly_eval,
    poly_interpolate, unpack_symbol,
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
        rows = [list(map(int, self.gen[:, j])) for j in range(self.msg_len)]
        if _gf_rank(self.field, rows) != self.msg_len:
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


# ---------------------------------------------------------------------------
# distances

def word_dist2(w, c) -> int:
    """2*(Hamming distance) where erasures in w count 1 (i.e. one half)."""
    w = np.asarray(w)
    c = np.asarray(c)
    era = int((w == ERASE).sum())
    mism = int((w != c).sum())  # erasure positions always count as mismatches here
    return 2 * (mism - era) + era


# ---------------------------------------------------------------------------
# small dense linear algebra over GF(2^k) (python lists; matrices stay small)

def _gf_rank(K: FieldSpec, rows) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field_inv(K, rows[rank][col])
        rows[rank] = [field_mul(K, inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a ^ field_mul(K, f, b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def gf_solve(K: FieldSpec, A, b):
    """One solution of A x = b over the field, or None.  Free variables -> 0."""
    nrows, ncols = len(A), len(A[0]) if A else 0
    aug = [list(map(int, A[i])) + [int(b[i])] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = field_inv(K, aug[r][c])
        aug[r] = [field_mul(K, inv, v) for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x ^ field_mul(K, f, y) for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None  # inconsistent
    x = [0] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


def gf_mat_inv(K: FieldSpec, A):
    n = len(A)
    aug = [list(map(int, A[i])) + [int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = field_inv(K, aug[c][c])
        aug[c] = [field_mul(K, inv, v) for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x ^ field_mul(K, f, y) for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


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
    K = code.field
    m = code.msg_len
    pivots, rows = [], []
    for p in range(code.code_len):
        cand = rows + [list(map(int, code.gen[p]))]
        if _gf_rank(K, cand) == len(cand):
            rows = cand
            pivots.append(p)
            if len(pivots) == m:
                break
    if len(pivots) < m:
        raise ValueError("generator does not have full column rank")
    inv = gf_mat_inv(K, rows)
    # new_gen = gen @ inv, column by column
    cols = []
    for j in range(m):
        col = np.zeros(code.code_len, dtype=np.int32)
        for t in range(m):
            c = inv[t][j]
            if c:
                col ^= mul_lut(K, c)[code.gen[:, t]]
        cols.append(col)
    new = LinearCode(K, np.stack(cols, axis=1), kind=code.kind,
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
    (message symbol 0 most significant).  Binary codes also keep a packed-bit
    copy for fast distance scans."""

    def __init__(self, code: LinearCode):
        if code.msg_space > BRUTE_FORCE_LIMIT:
            raise ValueError(f"message space {code.msg_space} exceeds the enumeration cap")
        self.code = code
        K = code.field
        q, m, M = K.q, code.msg_len, code.code_len
        n = code.msg_space
        dtype = np.uint8 if q <= 128 else np.int16  # keep headroom vs the -1 erasure cast
        words = np.zeros((n, M), dtype=dtype)
        idx = np.arange(n)
        for j in range(m):
            digit = (idx // q ** (m - 1 - j)) % q
            contrib = np.stack([mul_lut(K, v)[code.gen[:, j]] for v in range(q)]).astype(dtype)
            words ^= contrib[digit]
        self.packed = np.packbits(words, axis=1) if K.k == 1 else None
        # big binary codebooks keep only the packed copy (the flat table can
        # run to tens of MB and every scan that needs it fits the packed path)
        self.words = None if (K.k == 1 and n > 4096) else words

    def msg_of_index(self, i: int) -> np.ndarray:
        K, m = self.code.field, self.code.msg_len
        return np.array([(i // K.q ** (m - 1 - j)) % K.q for j in range(m)], dtype=np.int32)

    def dist2_scan(self, w) -> np.ndarray:
        """dist2 from w to every codeword (erasures allowed, charged 1 each)."""
        w = np.asarray(w, dtype=np.int32)
        n_era = int((w == ERASE).sum())
        if self.packed is not None and n_era == 0:
            wp = np.packbits(w.astype(np.uint8))
            mism = np.bitwise_count(self.packed ^ wp).sum(axis=1, dtype=np.int64)
            return 2 * mism
        if self.words is None:
            raise ValueError("erasure scan not supported on packed-only codebooks")
        mism = (self.words != w.astype(self.words.dtype)).sum(axis=1, dtype=np.int64)
        return 2 * mism - n_era


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
    """The unique codeword within the radius, as a message, or None.

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
        msg, d2 = nearest_codeword_bruteforce(code, w)
        return msg if d2 <= radius2 else None
    raise ValueError("no decoding route: message space too large and no GMD structure")


def _gmd_decode(cc: ConcatCode, w, radius2: int):
    """Generalized minimum distance decoding for RS-outer concatenations.

    Inner-decode every block to the nearest inner codeword, then sweep erasure
    counts 0..d_out-1 erasing the least confident blocks first; each sweep step
    runs a Berlekamp-Welch errors-and-erasures solve.  Guaranteed to find the
    codeword whenever dist2(w, c) < half the designed composite distance; we
    return the first candidate inside radius2 (unique there by assumption).
    """
    F, K = cc.outer.field, cc.inner.field
    w = np.asarray(w, dtype=np.int32)
    n_blocks, blen = cc.num_blocks, cc.block_len
    icb = codebook(cc.inner)
    blocks = w.reshape(n_blocks, blen)
    # vectorized inner scan: dist2 of every block to every inner codeword
    era = (blocks == ERASE).sum(axis=1)
    mism = (icb.words[None, :, :] != blocks[:, None, :].astype(np.int32)).sum(axis=2)
    d2 = 2 * mism - era[:, None]
    best = np.argmin(d2, axis=1)
    best_d2 = d2[np.arange(n_blocks), best]
    syms = np.array([pack_symbols(K, F, icb.msg_of_index(int(b))) for b in best], dtype=np.int32)

    xs_all = list(cc.outer.eval_points)
    k_rs = cc.outer.msg_len
    d_out = n_blocks - k_rs + 1
    order = np.argsort(-best_d2, kind="stable")  # least confident first
    seen = set()
    for n_erase in range(0, d_out):
        erased = set(int(order[i]) for i in range(n_erase))
        xs = [xs_all[p] for p in range(n_blocks) if p not in erased]
        ys = [int(syms[p]) for p in range(n_blocks) if p not in erased]
        h = _bw_decode(F, xs, ys, k_rs)
        if h is None or tuple(h) in seen:
            continue
        seen.add(tuple(h))
        cand_msg = _outer_poly_to_msg(cc, h)
        cand = cc.encode(cand_msg)
        if word_dist2(w, cand) <= radius2:
            return cand_msg
    return None


def _outer_poly_to_msg(cc: ConcatCode, h) -> np.ndarray:
    """Turn the decoded outer polynomial into a concat message.  For a
    systematic outer code the message is the codeword restricted to the pivot
    positions; for a plain RS generator it is the coefficient vector."""
    K, F = cc.inner.field, cc.outer.field
    e = cc.inner.msg_len
    if cc.outer.systematic_positions is not None:
        pts = cc.outer.eval_points
        syms = [poly_eval(F, h, pts[p]) for p in cc.outer.systematic_positions]
    else:
        syms = list(h) + [0] * (cc.outer.msg_len - len(h))
    out = np.zeros(cc.outer.msg_len * e, dtype=np.int32)
    for i, c in enumerate(syms):
        out[i * e:(i + 1) * e] = unpack_symbol(K, F, int(c))
    return out


def _bw_decode(F: FieldSpec, xs, ys, k_rs: int):
    """Berlekamp-Welch: the polynomial of degree < k_rs agreeing with all but
    at most (len(xs) - k_rs) // 2 of the (x, y) pairs, or None."""
    n = len(xs)
    if n < k_rs:
        return None
    e = (n - k_rs) // 2
    if e == 0:
        # interpolate on the first k_rs points and verify the rest
        h = poly_interpolate(F, list(zip(xs[:k_rs], ys[:k_rs])))
        if len(h) > k_rs:
            return None
        return h if all(poly_eval(F, h, x) == y for x, y in zip(xs, ys)) else None
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

def list_decode_concat(code: LinearCode, w, eps, radius: Fraction | None = None):
    """All (message, dist2) within relative radius (1-eps)/2 of w (erasures a
    half each), by exhaustive codebook scan, sorted by dist2 then msg index."""
    if radius is None:
        radius = (1 - Fraction(eps)) / 2
    cb = codebook(code)
    d2 = cb.dist2_scan(w)
    thresh = radius * 2 * code.code_len  # dist2 <= 2*M*radius
    hits = np.nonzero(d2 <= float(thresh) + 1e-12)[0]
    hits = [int(i) for i in hits if Fraction(int(d2[i])) <= thresh]
    hits.sort(key=lambda i: (int(d2[i]), i))
    return [(cb.msg_of_index(i), int(d2[i])) for i in hits]


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
