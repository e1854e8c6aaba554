"""Arithmetic over binary extension fields GF(2^k).

Field elements are plain python ints in [0, 2^k): the bits of the int are the
coefficients of a polynomial over GF(2), so addition is xor.  Multiplication
is carry-less multiplication reduced by a fixed irreducible modulus; every k
supported by the package uses the modulus pinned in MODULI so that serialized
words and generator matrices mean the same thing everywhere.

Each field keeps log/exp tables for a fixed primitive element, which makes
single multiplications O(1) and lets the linear-algebra layer build per-scalar
numpy lookup tables (see mul_lut).  Every table of powers x^j over a field
(Vandermonde and Reed-Solomon generators, Reed-Muller monomials, curve
parameters) comes from powers.

Words over a field may carry erasures; those are represented by ERASE (-1)
and are never valid operands for the arithmetic here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Fixed irreducible moduli (bit i = coefficient of x^i).  These choices are
# part of the wire format: changing one silently changes every codeword.
MODULI = {
    1: 0b11,                # x + 1
    2: 0b111,               # x^2 + x + 1
    3: 0b1011,              # x^3 + x + 1
    4: 0b10011,             # x^4 + x + 1
    6: 0b1000011,           # x^6 + x + 1
    8: 0b100011011,         # x^8 + x^4 + x^3 + x + 1
    10: 0b10000001001,      # x^10 + x^3 + 1
    12: 0b1000001010011,    # x^12 + x^6 + x^4 + x + 1
}

ERASE = -1  # erasure marker in words over K ∪ {⊥}


@dataclass(frozen=True)
class FieldSpec:
    """A concrete GF(2^k) with its modulus.  Obtain instances via GF(k)."""

    k: int
    modulus: int

    @property
    def q(self) -> int:
        return 1 << self.k

    @property
    def hex_width(self) -> int:
        return (self.k + 3) // 4

    def __repr__(self) -> str:
        return f"GF(2^{self.k})"


@lru_cache(maxsize=None)
def GF(k: int) -> FieldSpec:
    if k not in MODULI:
        raise ValueError(f"no modulus pinned for k={k}; supported: {sorted(MODULI)}")
    return FieldSpec(k, MODULI[k])


def _clmul_reduce(a: int, b: int, modulus: int, k: int) -> int:
    # schoolbook carry-less multiply, reduce as we go
    r = 0
    top = 1 << k
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


@lru_cache(maxsize=None)
def _tables(k: int):
    """(exp, log, generator) for GF(2^k).

    exp has length 2*(q-1) so exp[i+j] works without a modulo for i, j < q-1.
    log[0] is unused (kept as -1).
    """
    K = GF(k)
    q = K.q
    if k == 1:
        # trivial multiplicative group {1}
        return [1, 1], [-1, 0], 1
    for g in range(2, q):
        exp = [1] * (q - 1)
        seen = {1}
        x = 1
        ok = True
        for i in range(1, q - 1):
            x = _clmul_reduce(x, g, K.modulus, k)
            if x in seen:
                ok = False
                break
            exp[i] = x
            seen.add(x)
        if ok and len(seen) == q - 1:
            log = [-1] * q
            for i, v in enumerate(exp):
                log[v] = i
            return exp + exp, log, g
    raise AssertionError(f"no primitive element found for k={k}; modulus not primitive?")


def field_generator(K: FieldSpec) -> int:
    return _tables(K.k)[2]


def field_add(K: FieldSpec, a: int, b: int) -> int:
    return a ^ b


def field_mul(K: FieldSpec, a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    exp, log, _ = _tables(K.k)
    return exp[log[a] + log[b]]


def field_inv(K: FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    if a == 1:
        return 1
    exp, log, _ = _tables(K.k)
    return exp[K.q - 1 - log[a]]


def field_pow(K: FieldSpec, a: int, e: int) -> int:
    if e == 0:
        return 1
    if a == 0:
        return 0
    exp, log, _ = _tables(K.k)
    return exp[(log[a] * e) % (K.q - 1)]


# ---------------------------------------------------------------------------
# numpy helpers: words are int32 arrays, ERASE allowed only where noted

@lru_cache(maxsize=None)
def _lut_cache(k: int, c: int) -> np.ndarray:
    K = GF(k)
    exp, log, _ = _tables(k)
    lut = np.zeros(K.q, dtype=np.int32)
    if c != 0:
        lc = log[c]
        for x in range(1, K.q):
            lut[x] = exp[lc + log[x]]
    return lut


def mul_lut(K: FieldSpec, c: int) -> np.ndarray:
    """Lookup table for y = c*x, indexable by a whole numpy word at once."""
    return _lut_cache(K.k, c)


@lru_cache(maxsize=None)
def _exp_log_arrays(k: int):
    """exp and log as arrays, with log[0] pointed past every sum of two
    nonzero logs into a run of zeros, so exp[log[a] + log[b]] == a * b."""
    exp, log, _ = _tables(k)
    zero = len(exp)   # 2(q-1) > any sum of two logs in [0, q-2]
    exp_z = np.zeros(2 * zero + 1, dtype=np.int32)
    exp_z[:zero] = exp
    log_z = np.array(log, dtype=np.int64)
    log_z[0] = zero
    return exp_z, log_z


def mul_arrays(K: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of two broadcastable arrays over GF(2^k)."""
    exp, log = _exp_log_arrays(K.k)
    return exp[log[np.asarray(a)] + log[np.asarray(b)]]


def powers(K: FieldSpec, xs, n: int) -> np.ndarray:
    """(len(xs), n) table of x^j for each x in xs and j < n (0^0 = 1), as
    intp: most of these tables are indexes into other tables."""
    xs = np.asarray(xs, dtype=np.intp)
    out = np.ones((len(xs), n), dtype=np.intp)
    for j in range(1, n):
        out[:, j] = mul_arrays(K, out[:, j - 1], xs)
    return out


def gf_matvec(K: FieldSpec, gen: np.ndarray, msg) -> np.ndarray:
    """gen @ msg over GF(2^k).  gen is (M, m) int, msg length m."""
    out = np.zeros(gen.shape[0], dtype=np.int32)
    for j, s in enumerate(msg):
        s = int(s)
        if s:
            out ^= _lut_cache(K.k, s)[gen[:, j]]
    return out


# ---------------------------------------------------------------------------
# polynomials: little-endian coefficient lists (index i = coeff of λ^i)

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(K: FieldSpec, p, r):
    n = max(len(p), len(r))
    return poly_trim([(p[i] if i < len(p) else 0) ^ (r[i] if i < len(r) else 0) for i in range(n)])


def poly_scale(K: FieldSpec, p, c: int):
    return poly_trim([field_mul(K, c, a) for a in p])


def poly_mul(K: FieldSpec, p, r):
    if not p or not r:
        return []
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(r):
            if b:
                out[i + j] ^= field_mul(K, a, b)
    return poly_trim(out)


def poly_eval(K: FieldSpec, p, x: int) -> int:
    acc = 0
    for c in reversed(list(p)):
        acc = field_mul(K, acc, x) ^ c
    return acc


def poly_interpolate(K: FieldSpec, points):
    """Lagrange interpolation through (x, y) pairs with distinct x."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x")
    result = []
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = poly_mul(K, basis, [xj, 1])  # (λ - xj) == (λ + xj)
            denom = field_mul(K, denom, xi ^ xj)
        c = field_mul(K, yi, field_inv(K, denom))
        result = poly_add(K, result, poly_scale(K, basis, c))
    return result


# ---------------------------------------------------------------------------
# serialization

def elem_to_hex(K: FieldSpec, a: int) -> str:
    if a == ERASE:
        return "?" * K.hex_width
    if not 0 <= a < K.q:
        raise ValueError(f"{a} out of range for {K}")
    return format(a, f"0{K.hex_width}x")


def elem_from_hex(K: FieldSpec, s: str) -> int:
    if s == "?" * K.hex_width:
        return ERASE
    a = int(s, 16)
    if not 0 <= a < K.q:
        raise ValueError(f"{s!r} out of range for {K}")
    return a


def word_to_hex(K: FieldSpec, word) -> str:
    return "".join(elem_to_hex(K, int(a)) for a in word)


def word_from_hex(K: FieldSpec, s: str) -> np.ndarray:
    w = K.hex_width
    if len(s) % w:
        raise ValueError("hex string length not a multiple of element width")
    return np.array([elem_from_hex(K, s[i:i + w]) for i in range(0, len(s), w)], dtype=np.int32)


# ---------------------------------------------------------------------------
# subfield embedding and symbol packing

@lru_cache(maxsize=None)
def _embed_tables(kk: int, kf: int) -> list:
    """The canonical embedding GF(2^kk) -> GF(2^kf), kk | kf, as a table.

    The image of the small field's primitive element g is chosen as the
    smallest root (as an int) in the big field of g's minimal polynomial over
    GF(2); the embedding is then extended multiplicatively.  This is a field
    homomorphism by construction and is verified exhaustively below.
    """
    if kf % kk:
        raise ValueError(f"GF(2^{kk}) does not embed in GF(2^{kf})")
    K, F = GF(kk), GF(kf)
    if kk == kf:
        return list(range(K.q))
    g = field_generator(K)
    # minimal polynomial of g over GF(2): ∏ (λ - g^(2^j)) over the orbit
    conj, x = [], g
    while x not in conj:
        conj.append(x)
        x = field_mul(K, x, x)
    mu = [1]
    for c in conj:
        mu = poly_mul(K, mu, [c, 1])
    assert all(c in (0, 1) for c in mu), "minimal polynomial must have GF(2) coefficients"
    root = next(y for y in range(F.q) if poly_eval(F, mu, y) == 0 and y != 0)
    fwd = [0] * K.q
    fwd[1] = 1
    img = 1
    for i in range(1, K.q - 1):
        img = field_mul(F, img, root)
        fwd[field_pow(K, g, i)] = img
    for a in range(K.q):
        for b in range(K.q):
            assert fwd[a ^ b] == fwd[a] ^ fwd[b], "embedding is not additive"
    return fwd


def embed(K: FieldSpec, F: FieldSpec, a: int) -> int:
    return _embed_tables(K.k, F.k)[a]


class Packing(NamedTuple):
    """The packing of groups of e K-symbols into F-symbols as lookup tables,
    so a whole numpy array of groups or symbols maps in one take.  A group's
    lex value reads its K-symbols as base-|K| digits, symbol 0 first."""

    sym: np.ndarray      # (|F|,) int64: the F-symbol of each lex value
    lex: np.ndarray      # (|F|,) int64: the lex value of each F-symbol
    digits: np.ndarray   # (|F|, e) int32: the K-symbols of each F-symbol


@lru_cache(maxsize=None)
def packing(K: FieldSpec, F: FieldSpec) -> Packing:
    """Bijection K^e <-> F, e = F.k/K.k, K-linear in each slot, built once
    per field pair: every other module reads these arrays.

    Basis over the embedded subfield: 1, g, g^2, ..., g^(e-1) for the big
    field's primitive element g (primitive elements have degree e over the
    subfield, so these are independent).
    """
    e = F.k // K.k
    digits = np.arange(F.q)[:, None] // K.q ** np.arange(e - 1, -1, -1) % K.q
    basis = powers(F, [field_generator(F)], e)[0]
    fwd = np.array(_embed_tables(K.k, F.k))
    sym = np.bitwise_xor.reduce(mul_arrays(F, fwd[digits], basis), axis=1).astype(np.int64)
    lex = np.argsort(sym)   # the inverse permutation
    assert np.array_equal(sym[lex], np.arange(F.q)), "packing map is not a bijection"
    pk = Packing(sym, lex, digits[lex].astype(np.int32))
    for table in pk:   # shared by every caller: a write would change the wire format
        table.flags.writeable = False
    return pk


def pack_symbols(K: FieldSpec, F: FieldSpec, syms) -> int:
    """Pack e = F.k/K.k small-field symbols into one big-field symbol."""
    pk = packing(K, F)
    return int(pk.sym[np.ravel_multi_index([int(s) for s in syms], pk.digits.shape[1] * (K.q,))])


def unpack_symbol(K: FieldSpec, F: FieldSpec, x: int) -> tuple:
    return tuple(packing(K, F).digits[int(x)].tolist())
