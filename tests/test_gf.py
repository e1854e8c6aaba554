"""Field arithmetic tests.

The worked examples (GF(4) and GF(8) products and inverses, the GF(4)->GF(16)
embedding) were computed by hand from the pinned moduli before the
implementation existed; those expected values are FROZEN here.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streamcode import codec_tensor, codes, ldc_core
from streamcode.gf import (
    ERASE, GF, MODULI, Packing, elem_from_hex, elem_to_hex, embed, field_add,
    field_generator, field_inv, field_mul, field_pow, gf_matvec,
    pack_symbols, packing, poly_eval, poly_interpolate, poly_mul, powers,
    unpack_symbol, word_from_hex, word_to_hex,
)
from streamcode.ldc_binary import BinaryLdcParams
from streamcode.profiles import build_params, load_profile

ALL_K = sorted(MODULI)


def test_moduli_table_pinned():
    assert MODULI[1] == 0b11
    assert MODULI[2] == 0b111
    assert MODULI[3] == 0b1011
    assert MODULI[4] == 0b10011
    assert MODULI[6] == 0b1000011
    assert MODULI[8] == 0x11B
    assert MODULI[10] == (1 << 10) + (1 << 3) + 1
    assert MODULI[12] == (1 << 12) + (1 << 6) + (1 << 4) + (1 << 1) + 1


def test_gf4_worked_examples():
    K = GF(2)
    # x*x = x+1 mod x^2+x+1, i.e. 2*2 = 3
    assert field_mul(K, 2, 2) == 3
    assert field_mul(K, 2, 3) == 1  # x*(x+1) = x^2+x = 1
    assert field_inv(K, 2) == 3
    assert field_inv(K, 3) == 2


def test_gf8_worked_examples():
    K = GF(3)
    # x^2 * x = x^3 = x+1 mod x^3+x+1
    assert field_mul(K, 4, 2) == 3
    # x * (x^2+1) = x^3+x = (x+1)+x = 1
    assert field_inv(K, 2) == 5


def test_gf16_spot_checks():
    K = GF(4)
    # x^4 = x+1 mod x^4+x+1, so 8*2 = 3
    assert field_mul(K, 8, 2) == 3
    assert field_mul(K, 9, 9) == field_pow(K, 9, 2)


@pytest.mark.parametrize("k", ALL_K)
def test_field_laws_random(k):
    K = GF(k)
    rng = random.Random(1000 + k)
    q = K.q
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert field_mul(K, a, b) == field_mul(K, b, a)
        assert field_mul(K, a, field_mul(K, b, c)) == field_mul(K, field_mul(K, a, b), c)
        assert field_mul(K, a, b ^ c) == field_mul(K, a, b) ^ field_mul(K, a, c)
        # Frobenius: squaring is additive in characteristic 2
        assert field_pow(K, a ^ b, 2) == field_pow(K, a, 2) ^ field_pow(K, b, 2)
        if a:
            assert field_mul(K, a, field_inv(K, a)) == 1
    assert field_add(K, 5 % q, 5 % q) == 0


@pytest.mark.parametrize("k", ALL_K)
def test_generator_has_full_order(k):
    K = GF(k)
    g = field_generator(K)
    seen = set()
    x = 1
    for _ in range(K.q - 1):
        seen.add(x)
        x = field_mul(K, x, g)
    assert x == 1 and len(seen) == K.q - 1


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf256_distributivity_hypothesis(a, b, c):
    K = GF(8)
    assert field_mul(K, a, b ^ c) == field_mul(K, a, b) ^ field_mul(K, a, c)


@given(st.integers(1, 15), st.integers(1, 15))
def test_gf16_inverse_hypothesis(a, b):
    K = GF(4)
    assert field_mul(K, field_mul(K, a, b), field_mul(K, field_inv(K, a), field_inv(K, b))) == 1


# ---------------------------------------------------------------------------
# polynomials

def test_interpolate_identity():
    K = GF(4)
    assert poly_interpolate(K, [(0, 0), (1, 1)]) == [0, 1]


def test_interpolate_roundtrip_gf16():
    K = GF(4)
    rng = random.Random(7)
    for _ in range(50):
        p = [rng.randrange(16) for _ in range(4)]
        while p and p[-1] == 0:
            p.pop()
        pts = rng.sample(range(16), 4)
        q = poly_interpolate(K, [(x, poly_eval(K, p, x)) for x in pts])
        assert all(poly_eval(K, q, x) == poly_eval(K, p, x) for x in range(16))


def test_poly_mul():
    K = GF(4)
    rng = random.Random(9)
    for _ in range(40):
        a = [rng.randrange(16) for _ in range(rng.randint(1, 5))]
        b = [rng.randrange(16) for _ in range(rng.randint(1, 4))]
        if not any(b):
            b[-1] = 1
        ab = poly_mul(K, a, b)
        # degree < 16, so the values at all 16 points pin a*b down exactly
        assert len(ab) <= len(a) + len(b) - 1 and (not ab or ab[-1])
        assert all(poly_eval(K, ab, x) == field_mul(K, poly_eval(K, a, x), poly_eval(K, b, x))
                   for x in range(16))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_powers_table(k):
    K = GF(k)
    xs = list(range(K.q))
    tbl = powers(K, xs, 6)
    assert tbl.shape == (K.q, 6)
    assert tbl.tolist() == [[field_pow(K, x, j) for j in range(6)] for x in xs]
    assert tbl[0].tolist() == [1, 0, 0, 0, 0, 0]   # 0^0 = 1
    assert powers(K, [], 3).shape == (0, 3) and powers(K, xs, 0).shape == (K.q, 0)


# ---------------------------------------------------------------------------
# serialization

def test_hex_width_and_roundtrip():
    assert elem_to_hex(GF(4), 11) == "b"
    assert elem_to_hex(GF(8), 27) == "1b"
    assert elem_to_hex(GF(10), 27) == "01b"
    assert elem_to_hex(GF(1), 1) == "1"
    for k in ALL_K:
        K = GF(k)
        for a in range(0, K.q, max(1, K.q // 97)):
            assert elem_from_hex(K, elem_to_hex(K, a)) == a


def test_word_hex_with_erasure():
    K = GF(4)
    w = np.array([0, 5, ERASE, 15], dtype=np.int32)
    s = word_to_hex(K, w)
    assert s == "05?f"
    assert list(word_from_hex(K, s)) == [0, 5, ERASE, 15]


# ---------------------------------------------------------------------------
# embedding / packing

def test_embedding_gf4_into_gf16_pinned():
    K, F = GF(2), GF(4)
    # FROZEN: x in GF(4) must land on a cube root of unity in GF(16); the
    # canonical (smallest) one is x^2+x = 6, so x+1 -> 7.
    assert [embed(K, F, a) for a in range(4)] == [0, 1, 6, 7]


@pytest.mark.parametrize("kk,kf", [(1, 4), (2, 4), (2, 6), (3, 6), (4, 8), (4, 12), (2, 12)])
def test_embedding_is_field_hom(kk, kf):
    K, F = GF(kk), GF(kf)
    emb = [embed(K, F, a) for a in range(K.q)]
    assert emb[0] == 0 and emb[1] == 1
    assert len(set(emb)) == K.q
    rng = random.Random(kk * 100 + kf)
    for _ in range(200):
        a, b = rng.randrange(K.q), rng.randrange(K.q)
        assert emb[a ^ b] == emb[a] ^ emb[b]
        assert emb[field_mul(K, a, b)] == field_mul(F, emb[a], emb[b])


def test_packing_bijective_and_linear():
    K, F = GF(2), GF(4)
    seen = set()
    for a in range(4):
        for b in range(4):
            seen.add(pack_symbols(K, F, (a, b)))
            assert unpack_symbol(K, F, pack_symbols(K, F, (a, b))) == (a, b)
    assert len(seen) == 16
    # K-linearity in both slots
    for a1, b1, a2, b2, c in [(1, 2, 3, 0, 2), (2, 2, 1, 3, 3), (0, 1, 3, 3, 1)]:
        lhs = pack_symbols(K, F, (a1 ^ a2, b1 ^ b2))
        assert lhs == pack_symbols(K, F, (a1, b1)) ^ pack_symbols(K, F, (a2, b2))
        scaled = pack_symbols(K, F, (field_mul(K, c, a1), field_mul(K, c, b1)))
        assert scaled == field_mul(F, embed(K, F, c), pack_symbols(K, F, (a1, b1)))


def test_pack_first_slot_is_plain_embedding():
    K, F = GF(2), GF(4)
    for a in range(4):
        assert pack_symbols(K, F, (a, 0)) == embed(K, F, a)


def _reference_packing(K, F):
    """The packing built the old way: one dict each way between tuples of
    K-symbols and F-symbols, over the basis 1, g, ..., g^(e-1) of F."""
    e = F.k // K.k
    basis = [field_pow(F, field_generator(F), j) for j in range(e)]
    pack, unpack = {}, {}
    for tup in np.ndindex(*([K.q] * e)):   # lex order, symbol 0 slowest
        v = 0
        for j, s in enumerate(tup):
            v ^= field_mul(F, embed(K, F, s), basis[j])
        pack[tup], unpack[v] = v, tup
    return pack, unpack


PACK_PAIRS = [(kk, kf) for kk in MODULI for kf in MODULI if kf % kk == 0 and kf <= 10]


@pytest.mark.parametrize("kk,kf", PACK_PAIRS, ids=[f"{kk}-{kf}" for kk, kf in PACK_PAIRS])
def test_packing_arrays_match_dict_reference(kk, kf):
    K, F = GF(kk), GF(kf)
    pk = packing(K, F)
    pack, unpack = _reference_packing(K, F)
    groups = list(pack)
    assert pk.sym.tolist() == [pack[t] for t in groups]
    assert [tuple(row) for row in pk.digits.tolist()] == [unpack[s] for s in range(F.q)]
    # inverse bijections of [0, |F|)
    assert sorted(pk.sym.tolist()) == list(range(F.q))
    assert np.array_equal(pk.lex[pk.sym], np.arange(F.q))
    assert np.array_equal(pk.sym[pk.lex], np.arange(F.q))
    assert np.array_equal(pk.digits @ K.q ** np.arange(F.k // K.k - 1, -1, -1), pk.lex)
    assert [pack_symbols(K, F, t) for t in groups] == [pack[t] for t in groups]
    assert [unpack_symbol(K, F, s) for s in range(F.q)] == [unpack[s] for s in range(F.q)]
    assert packing(K, F) is pk   # built once per field pair, shared read-only
    assert not any(table.flags.writeable for table in pk)


def _flipped(pk: Packing) -> Packing:
    """Another bijection in the same layout: F-symbol s becomes s ^ 1."""
    flip = np.arange(len(pk.sym)) ^ 1
    return Packing(pk.sym ^ 1, pk.lex[flip], pk.digits[flip])


def test_packing_consumers_read_gfs_arrays(monkeypatch):
    """Codebook, GmdTables, RmLdc and the tensor base table take the packing
    from gf.packing: handed another bijection there, each one follows it, so
    a table a module built for itself would show here."""
    fakes = {}

    def fake_packing(K, F):
        return fakes.setdefault((K.k, F.k), _flipped(packing(K, F)))

    K, F = GF(1), GF(4)
    outer = codes.make_systematic(codes.rs_code(F, list(range(1, 16)), 3))
    cc = codes.concat(outer, codes.extended_hamming_code())
    tensor = build_params(load_profile("tensor-toy"))
    for module in (codes, ldc_core, codec_tensor):
        monkeypatch.setattr(module, "packing", fake_packing)
    fake = fake_packing(K, F)
    assert not np.array_equal(fake.sym, packing(K, F).sym)

    rows = np.array([[0, 1, 2], [15, 7, 3], [6, 6, 9]])
    got = codes.Codebook(cc).index_of_packed(rows)
    assert got.tolist() == (fake.lex[rows] @ F.q ** np.arange(2, -1, -1)).tolist()

    h = np.array([3, 10, 13])
    assert codes.GmdTables(cc).message(outer.encode(h)).tolist() == fake.digits[h].ravel().tolist()
    word = cc.encode(np.arange(12) % 2)
    blocks = word.reshape(-1, cc.block_len)
    best = np.argmin(codes.block_dist2(blocks, codes.codebook(cc.inner).words), axis=1)
    assert codes._gmd_inner(cc, word)[1].tolist() == fake.sym[best].tolist()

    p = BinaryLdcParams(F=F, m=2, d=1, inner=codes.extended_hamming_code(), n=12,
                        eps=Fraction(1, 5))
    assert p.packing is fake   # ldc_large's curve decoder reads it there too
    assert p.pack([1, 0, 0, 0, 0, 1, 1, 0]).tolist() == fake.sym[[8, 6]].tolist()

    syms = codec_tensor._base_tables(tensor)[0]
    N = tensor.N_inner
    bits = (np.arange(1 << N)[:, None] >> np.arange(N)) & 1
    best = np.argmin(codes.block_dist2(bits, codes.codebook(tensor.base_code).words), axis=1)
    kept = syms >= 0
    assert kept.any()
    assert syms[kept].tolist() == fake_packing(GF(1), tensor.K).sym[best[kept]].tolist()


# ---------------------------------------------------------------------------
# numpy helpers

def test_gf_matvec_matches_scalar_path():
    K = GF(4)
    rng = np.random.default_rng(3)
    gen = rng.integers(0, 16, size=(20, 3), dtype=np.int32)
    msg = [5, 0, 9]
    out = gf_matvec(K, gen, msg)
    for i in range(20):
        acc = 0
        for j, s in enumerate(msg):
            acc ^= field_mul(K, int(gen[i, j]), s)
        assert int(out[i]) == acc

