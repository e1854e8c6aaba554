"""Linear-code layer tests.

FROZEN oracle values (computed by independent pipeline enumeration over the
field primitives before this module existed):
  - RS[4,2] over GF(4) concatenated with the [3,2,2] parity code has nonzero
    codeword weights exactly {6, 8}; minimum distance 6.
  - RM(q=4, m=2, d=1) has nonzero weights exactly {12, 16}; minimum 12.
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcode.gf import ERASE, GF, mul_arrays, pack_symbols, poly_eval, powers
from streamcode.codes import (
    ConcatCode, LinearCode, _bw_decode, _gmd_inner, _gmd_sweep, codebook, concat,
    doubly_extended_rs, ecc_eps, extended_hamming_code, list_decode_concat, make_systematic,
    min_distance_bruteforce, nearest_codeword_bruteforce, repetition_code,
    replicate, rm_code, rs_code, simplex_code, unique_decode, word_dist2,
)

GF2, GF4, GF16 = GF(1), GF(2), GF(4)


def parity_code():
    return LinearCode(GF2, np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int32),
                      kind="parity", systematic_positions=(0, 1), dist2_bound=4)


def toy_concat():
    outer = rs_code(GF4, [0, 1, 2, 3], 2)
    return concat(make_systematic(outer), parity_code())


# ---------------------------------------------------------------------------
# constructions

def test_rs_encode_is_polynomial_evaluation():
    code = rs_code(GF16, list(range(15)), 7)
    rng = random.Random(5)
    msg = [rng.randrange(16) for _ in range(7)]
    cw = code.encode(msg)
    for i, x in enumerate(range(15)):
        assert int(cw[i]) == poly_eval(GF16, msg, x)
    assert code.dist2_bound == 2 * 9


def test_rs_is_mds():
    code = rs_code(GF16, list(range(8)), 2)
    assert min_distance_bruteforce(code) == 7


def test_rm_shape_and_distance():
    code = rm_code(GF4, m=2, d=1)
    assert code.msg_len == 3 and code.code_len == 16
    # FROZEN: exact minimum distance 12; declared bound (q-d)q^(m-1) = 12
    assert code.dist2_bound == 24
    assert min_distance_bruteforce(code) == 12


def test_rm_m1_reduces_to_rs():
    rm = rm_code(GF4, m=1, d=2)
    rs = rs_code(GF4, list(range(4)), 3)
    assert np.array_equal(rm.gen, rs.gen)


def test_rm_capacity_binomial():
    code = rm_code(GF16, m=3, d=3)
    assert code.msg_len == 20  # C(3+3, 3)
    assert code.code_len == 16 ** 3


def test_make_systematic_readback():
    code = make_systematic(rm_code(GF4, 2, 1))
    rng = random.Random(11)
    for _ in range(20):
        msg = np.array([rng.randrange(4) for _ in range(3)], dtype=np.int32)
        cw = code.encode(msg)
        assert np.array_equal(cw[list(code.systematic_positions)], msg)
    assert list(code.systematic_positions) == sorted(code.systematic_positions)
    code.validate()
    # repeat-toy's Reed-Muller code: pinned pivots (the greedy lexicographic
    # information set) and generator
    code = make_systematic(rm_code(GF16, 3, 3))
    assert code.systematic_positions == (0, 1, 2, 3, 16, 17, 18, 32, 33, 48, 256, 257,
                                         258, 272, 273, 288, 512, 513, 528, 768)
    digest = hashlib.sha256(code.gen.astype("<i4").tobytes()).hexdigest()
    assert digest == "5974303ba9cd64dbb9ab26929075d43a82c0d90e1a7b4c0484e425ac08584510"
    assert np.array_equal(code.gen[list(code.systematic_positions)],
                          np.eye(20, dtype=np.int32))


def test_make_systematic_rejects_rank_deficient():
    gen = np.array([[1, 2], [3, 6], [2, 4], [0, 0]], dtype=np.int32)  # col 1 = 2 * col 0
    code = LinearCode(GF16, gen)
    with pytest.raises(ValueError):
        make_systematic(code)
    with pytest.raises(ValueError):
        code.validate()


def test_concat_matches_handwritten_pipeline():
    cc = toy_concat()
    assert cc.msg_len == 4 and cc.code_len == 12
    rng = random.Random(3)
    for _ in range(16):
        bits = [rng.randrange(2) for _ in range(4)]
        a = bits[0] | (bits[1] << 1)
        b = bits[2] | (bits[3] << 1)
        # systematic outer: message symbols read back at the outer systematic
        # positions, so compute the outer codeword through its generator
        outer_cw = cc.outer.encode([a, b])
        expect = []
        for s in outer_cw:
            u, v = int(s) & 1, int(s) >> 1
            expect += [u, v, u ^ v]
        assert list(cc.encode(np.array(bits))) == expect


def test_concat_is_linear_and_systematic():
    cc = toy_concat()
    rng = random.Random(7)
    for _ in range(20):
        m1 = np.array([rng.randrange(2) for _ in range(4)], dtype=np.int32)
        m2 = np.array([rng.randrange(2) for _ in range(4)], dtype=np.int32)
        assert np.array_equal(cc.encode(m1 ^ m2), cc.encode(m1) ^ cc.encode(m2))
        assert np.array_equal(cc.encode(m1)[list(cc.systematic_positions)], m1)


def test_concat_min_distance_frozen():
    cc = toy_concat()
    assert min_distance_bruteforce(cc) == 6
    cb = codebook(cc)
    wts = set(int(w) // 2 for w in cb.dist2_scan(np.zeros(12, dtype=np.int32))[1:])
    assert wts == {6, 8}
    assert cc.dist2_bound == 12  # designed product bound == 2*6, tight here


def test_simplex_equidistant():
    code = simplex_code(4)
    assert (code.code_len, code.msg_len) == (15, 4)
    cb = codebook(code)
    wts = cb.dist2_scan(np.zeros(15, dtype=np.int32))[1:] // 2
    assert set(int(w) for w in wts) == {8}
    code.validate()
    rep = replicate(code, 3)
    wts = codebook(rep).dist2_scan(np.zeros(45, dtype=np.int32))[1:] // 2
    assert set(int(w) for w in wts) == {24}  # equidistant survives replication


def test_extended_hamming():
    code = extended_hamming_code()
    assert min_distance_bruteforce(code) == 4
    # contains the all-ones word (complement closure matters downstream)
    ones = np.ones(8, dtype=np.int32)
    msg, d2 = nearest_codeword_bruteforce(code, ones)
    assert d2 == 0
    code.validate()


def test_doubly_extended_rs():
    code = doubly_extended_rs(GF4)
    assert (code.code_len, code.msg_len) == (5, 2)
    assert min_distance_bruteforce(code) == 4
    msg = np.array([3, 2], dtype=np.int32)
    cw = code.encode(msg)
    assert int(cw[0]) == 3 and int(cw[-1]) == 2  # systematic at both ends
    code.validate()


def test_repetition_code():
    code = repetition_code(GF16, 3)
    assert list(code.encode([9])) == [9, 9, 9]
    assert min_distance_bruteforce(code) == 3


# ---------------------------------------------------------------------------
# distances and words

def test_word_dist2_with_erasures():
    w = np.array([1, ERASE, 0], dtype=np.int32)
    c = np.array([1, 1, 1], dtype=np.int32)
    assert word_dist2(w, c) == 2 * 1 + 1
    assert word_dist2(c, c) == 0
    assert word_dist2(np.array([ERASE, ERASE]), np.array([0, 1])) == 2
    # symmetric: an erasure in either word costs one half, a shared one nothing
    assert word_dist2(c, w) == 2 * 1 + 1
    assert word_dist2(w, w) == 0


def test_codebook_tiny_by_hand():
    code = LinearCode(GF4, np.array([[1], [2]], dtype=np.int32))
    cb = codebook(code)
    assert [list(r) for r in cb.words] == [[0, 0], [1, 2], [2, 3], [3, 1]]
    assert list(cb.msg_of_index(3)) == [3]


def inner_4_2_2():
    return LinearCode(GF2, np.array([[1, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int32),
                      kind="toy-4-2-2", systematic_positions=(0, 1), dist2_bound=4)


def noisy_words(code, rng, count=3):
    """Codewords of random messages with a quarter of the positions hit:
    half of those get a random symbol, half an erasure."""
    words = []
    for _ in range(count):
        w = code.encode(rng.integers(0, code.field.q, code.msg_len))
        hit = rng.choice(code.code_len, size=code.code_len // 4, replace=False)
        half = len(hit) // 2
        w[hit[:half]] = rng.integers(0, code.field.q, half)
        w[hit[half:]] = ERASE
        words.append(w)
    return words


def _repeat_toy_advice_code():
    from streamcode.profiles import build_params, load_profile
    return build_params(load_profile("repeat-toy")).ldc.advice_code


def _tensor_toy_curve_code():
    from streamcode.profiles import build_params, load_profile
    return build_params(load_profile("tensor-toy")).ldc.curve_code


def _repeat_toy_curve_code():
    from streamcode.profiles import build_params, load_profile
    return build_params(load_profile("repeat-toy")).ldc.curve_code


def _ecc_eps_code():
    # systematic RS[16,2] over GF(16) outer, random binary [32,4] inner
    return ecc_eps(GF(1), Fraction(1, 4), 8)


def _ecc_eps_gf16_code():
    # systematic RS[16,2] over GF(256) outer, RS[6,2] over GF(16) inner; unlike
    # GF(2) -> GF(16), its packing map is not an involution on lex indices
    return ecc_eps(GF16, Fraction(1, 4), 4)


@pytest.mark.parametrize("make, samples", [
    (lambda: concat(rs_code(GF4, [0, 1, 2], 2), inner_4_2_2()), None),  # criterion 3
    (lambda: concat(rm_code(GF4, 2, 1), inner_4_2_2()), None),
    (lambda: concat(make_systematic(rm_code(GF16, 1, 1)), doubly_extended_rs(GF4)), None),
    (_tensor_toy_curve_code, None),
    (_repeat_toy_advice_code, 300),
], ids=["c03-rs-422", "rm-outer", "rs16-rs4ext", "tensor-toy-curve", "repeat-toy-advice"])
def test_concat_block_scan_matches_word_dist2(make, samples):
    code = make()
    assert isinstance(code, ConcatCode)
    cb = codebook(code)
    assert cb.words is None          # no per-codeword table for concatenations
    rng = np.random.default_rng(code.code_len)
    idx = range(code.msg_space) if samples is None else \
        rng.choice(code.msg_space, size=samples, replace=False)
    codewords = [(int(i), code.encode(cb.msg_of_index(int(i)))) for i in idx]
    for w in noisy_words(code, rng):
        assert (w == ERASE).any()
        d2 = cb.dist2_scan(w)
        assert len(d2) == code.msg_space
        for i, c in codewords:
            assert int(d2[i]) == word_dist2(w, c), i


# (single-row scans are checked against word_dist2 above; outer fields give
# groups of 4 (GF(4)), 2 (GF(16)) and 1 (GF(256)) blocks, 3 and 15 blocks pad)
@pytest.mark.parametrize("make", [
    toy_concat,
    lambda: concat(rs_code(GF4, [0, 1, 2], 2), inner_4_2_2()),
    _tensor_toy_curve_code,
    lambda: concat(rs_code(GF(8), [1, 2, 3], 2),
                   LinearCode(GF2, np.eye(8, dtype=np.int32), systematic_positions=tuple(range(8)))),
    lambda: rs_code(GF4, [0, 1, 2, 3], 2),
], ids=["concat-gf4", "concat-gf4-padded", "tensor-toy-curve", "concat-gf256", "plain"])
def test_dist2_scan_stack_matches_rows(make):
    code = make()
    cb = codebook(code)
    rng = np.random.default_rng(45)
    stack = np.array(noisy_words(code, rng, count=5))
    assert (stack == ERASE).any()
    picked = rng.choice(code.msg_space, size=min(9, code.msg_space), replace=False)
    for idx in [None, picked, [], [int(picked[0]), int(picked[1]), int(picked[0])]]:
        got = cb.dist2_scan(stack, idx)
        rows = [cb.dist2_scan(w, idx) for w in stack]
        assert got.shape == (len(stack), code.msg_space if idx is None else len(idx))
        assert np.array_equal(got, np.array(rows).reshape(got.shape))


# ---------------------------------------------------------------------------
# decoding

def test_unique_decode_bruteforce_route():
    cc = toy_concat()
    rng = random.Random(19)
    plain = LinearCode(cc.field, cc.gen, dist2_bound=cc.dist2_bound)  # force brute
    for _ in range(30):
        msg = np.array([rng.randrange(2) for _ in range(4)], dtype=np.int32)
        w = cc.encode(msg)
        for p in rng.sample(range(12), 2):
            w[p] ^= 1
        got = unique_decode(plain, w)
        assert got is not None and np.array_equal(got[0], msg)
        assert got[1] == word_dist2(w, plain.encode(got[0])) == 4


def test_gmd_corrects_all_radius_error_patterns():
    cc = toy_concat()
    msg = np.array([1, 0, 1, 1], dtype=np.int32)
    cw = cc.encode(msg)
    patterns = [()] + [(i,) for i in range(12)] + \
               [(i, j) for i in range(12) for j in range(i + 1, 12)]
    for pat in patterns:
        w = cw.copy()
        for p in pat:
            w[p] ^= 1
        got = unique_decode(cc, w)
        assert got is not None and np.array_equal(got[0], msg), f"failed at {pat}"


def test_gmd_agrees_with_bruteforce_oracle():
    cc = toy_concat()
    radius2 = (cc.dist2_bound - 1) // 2
    rng = np.random.default_rng(23)
    for _ in range(300):
        w = rng.integers(0, 2, size=12).astype(np.int32)
        got = unique_decode(cc, w)
        brute_msg, brute_d2 = nearest_codeword_bruteforce(cc, w)
        if brute_d2 <= radius2:
            assert got is not None and np.array_equal(got[0], brute_msg)
        else:
            assert got is None


def test_gmd_with_erasures():
    cc = toy_concat()
    msg = np.array([0, 1, 1, 0], dtype=np.int32)
    w = cc.encode(msg)
    w[0] = ERASE
    w[5] = ERASE
    w[7] ^= 1  # dist2 = 2*1 + 2 = 4 <= radius2 5
    got = unique_decode(cc, w)
    assert got is not None and np.array_equal(got[0], msg)


def _gmd_cases(code, rng, flips_beyond, radius2):
    """(word, message, kind) for the three GMD paths, kind in {"near",
    "nonzero", "beyond"}."""
    n, L = code.num_blocks, code.block_len
    cases = []
    for _ in range(12):
        msg = rng.integers(0, code.field.q, code.msg_len).astype(np.int32)
        cw = code.encode(msg)
        # in-radius noise plus erasures
        w = cw.copy()
        hit = rng.choice(code.code_len, size=radius2 // 6, replace=False)
        w[hit[::2]] ^= 1   # changes the symbol over any field
        w[hit[1::2]] = ERASE
        cases.append((w, msg, "near"))
        # nonzero syndrome: 1-3 blocks swapped for other inner codewords
        w = cw.copy()
        for p in rng.choice(n, size=rng.integers(1, 4), replace=False):
            others = code.inner_words[(code.inner_words != w[p * L:(p + 1) * L]).any(axis=1)]
            w[p * L:(p + 1) * L] = others[rng.integers(len(others))]
        cases.append((w, msg, "nonzero"))
        # zero syndrome beyond the radius: every block keeps its inner codeword
        w = cw.copy()
        for p in range(n):
            w[p * L + rng.choice(L, size=flips_beyond, replace=False)] ^= 1
        cases.append((w, msg, "beyond"))
    return cases


@pytest.mark.parametrize("make, flips, radius2", [
    (_repeat_toy_curve_code, 8, 215),   # the default radius; 15 x 8 flips: dist2 240
    (_ecc_eps_code, 6, 100),            # 16 x 6 flips: dist2 192
    (_ecc_eps_gf16_code, 2, 40),        # 16 x 2 flips: dist2 64
], ids=["repeat-toy-curve", "ecc-eps", "ecc-eps-gf16"])
def test_gmd_syndrome_first_matches_sweep(make, flips, radius2):
    """unique_decode equals the erasure sweep run on its own, and both find
    the sent message whenever it is within radius2 (below half the designed
    distance, where GMD is guaranteed to), each with the dist2 of the word to
    the codeword it returns."""
    code = make()
    assert radius2 <= (code.dist2_bound - 1) // 2
    rng = np.random.default_rng(code.code_len + flips)
    for w, msg, kind in _gmd_cases(code, rng, flips, radius2):
        d2, syms, best_d2 = _gmd_inner(code, w)
        assert code.gmd.syndrome(syms).any() == (kind == "nonzero")
        got = unique_decode(code, w, radius2)
        swept = _gmd_sweep(code, d2, syms, best_d2, radius2)
        for found in (got, swept):
            assert found is None or found[1] == word_dist2(w, code.encode(found[0]))
        if kind == "beyond":
            assert int(best_d2.sum()) == 2 * flips * code.num_blocks > radius2
            assert got is None and swept is None
        elif word_dist2(w, code.encode(msg)) <= radius2:
            assert np.array_equal(got[0], msg) and np.array_equal(swept[0], msg)
        else:
            assert kind == "nonzero" and (got is None) == (swept is None)
            assert got is None or (np.array_equal(got[0], swept[0]) and got[1] == swept[1])


def _repeat_unit_curve_code():
    from streamcode.profiles import build_params, load_profile
    return build_params(load_profile("repeat-unit")).ldc.curve_code


def _same_decodes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        assert g is None or (np.array_equal(g[0], w[0]) and g[1] == w[1])


@pytest.mark.parametrize("make, flips, radius2", [
    (_repeat_toy_curve_code, 8, 215),
    (_repeat_unit_curve_code, 1, 20),   # 15 x 1 flip: dist2 30
], ids=["repeat-toy-curve", "repeat-unit-curve"])
def test_unique_decode_stack_matches_rows(make, flips, radius2):
    """One call on a stack gives, row by row, what each word gives alone,
    over zero-syndrome rows inside and outside radius2, rows whose nonzero
    syndrome sends them through the sweep, rows with erasures and uniformly
    random rows; a stacked int8 copy of the words decodes the same."""
    code = make()
    rng = np.random.default_rng(code.code_len)
    stack = np.array([w for w, _, _ in _gmd_cases(code, rng, flips, radius2)]
                     + list(rng.integers(0, 2, (4, code.code_len))), dtype=np.int32)
    _, syms, best_d2 = _gmd_inner(code, stack)
    zero = ~code.gmd.syndrome(syms).any(axis=1)
    inside = best_d2.sum(axis=1) <= radius2
    assert (zero & inside).any() and (zero & ~inside).any() and (~zero).any()
    assert (stack == ERASE).any(axis=1).sum() >= 12
    got = unique_decode(code, stack, radius2)
    _same_decodes(got, [unique_decode(code, w, radius2) for w in stack])
    _same_decodes(unique_decode(code, stack.astype(np.int8), radius2), got)
    assert sum(g is None for g in got) >= 12 and sum(g is not None for g in got) >= 12
    if code.msg_space <= 1 << 12:   # repeat-unit: the brute-force oracle
        for w, g in zip(stack, got):
            msg, d2 = nearest_codeword_bruteforce(code, w)
            _same_decodes([g], [(msg, d2) if d2 <= radius2 else None])


def test_unique_decode_stack_bruteforce_route():
    """A stack on a code without RS-outer structure takes the brute-force
    fallback, row by row equal to each word alone and to the oracle."""
    cc = toy_concat()
    plain = LinearCode(cc.field, cc.gen, dist2_bound=cc.dist2_bound)
    rng = np.random.default_rng(3)
    stack = rng.integers(-1, 2, (40, plain.code_len))
    got = unique_decode(plain, stack)
    _same_decodes(got, [unique_decode(plain, w) for w in stack])
    radius2 = (plain.dist2_bound - 1) // 2
    want = [nearest_codeword_bruteforce(plain, w) for w in stack]
    _same_decodes(got, [mw if mw[1] <= radius2 else None for mw in want])
    assert any(g is None for g in got) and any(g is not None for g in got)


@pytest.mark.parametrize("n", [7, 8, 15])
def test_berlekamp_welch_random_errors(n):
    """Up to (n - 7) // 2 errors decode to the sent polynomial of degree < 7;
    at n = 8 one error is caught: no such polynomial meets 7 of the 8 points
    but the sent one, which misses the eighth."""
    rng = random.Random(31)
    xs = list(range(n))
    e = (n - 7) // 2
    for trial in range(40):
        coeffs = [rng.randrange(16) for _ in range(7)]
        ys = [poly_eval(GF16, coeffs, x) for x in xs]
        n_err = trial % 2 if n == 8 else trial % (e + 1)  # n = 15: up to 4
        for p in rng.sample(range(n), n_err):
            ys[p] ^= rng.randrange(1, 16)
        h = _bw_decode(GF16, powers(GF16, xs, n), ys, 7)
        if n_err > e:
            assert h is None
            continue
        assert h is not None
        assert all(poly_eval(GF16, h, x) == poly_eval(GF16, coeffs, x) for x in xs)


def test_berlekamp_welch_rejects_garbage():
    rng = random.Random(37)
    xs = list(range(15))
    rejected = 0
    for _ in range(20):
        ys = [rng.randrange(16) for _ in range(15)]
        h = _bw_decode(GF16, powers(GF16, xs, 15), ys, 3)
        if h is None:
            rejected += 1
        else:
            agree = sum(1 for x, y in zip(xs, ys) if poly_eval(GF16, h, x) == y)
            assert agree >= 15 - 6
    assert rejected >= 15  # random words are far from every low-degree poly


@pytest.mark.parametrize("k", [1, 2])
def test_berlekamp_welch_matches_exhaustive_search_on_point_subsets(k):
    """On random subsets of GF(16) (as the erasure sweep passes them), with
    errors, Berlekamp-Welch returns the one polynomial of degree < k within
    (n - k) // 2 disagreements, found by trying all 16^k, or None exactly
    when no polynomial is that close."""
    rng = random.Random(43 + k)
    every = np.array([[(i // 16 ** (k - 1 - j)) % 16 for j in range(k)]
                      for i in range(16 ** k)], dtype=np.int32)
    outcomes = {"found_through_errors": 0, "none": 0}
    for _ in range(300):
        n = rng.randint(k, 16)
        xs = sorted(rng.sample(range(16), n))
        P = powers(GF16, xs, 16)
        e = (n - k) // 2
        sent = every[rng.randrange(len(every))]
        ys = np.bitwise_xor.reduce(mul_arrays(GF16, P[:, :k], sent), axis=1)
        for p in rng.sample(range(n), rng.randint(0, min(n, 2 * e + 2))):
            ys[p] ^= rng.randrange(1, 16)
        evals = np.bitwise_xor.reduce(mul_arrays(GF16, every[:, None, :], P[None, :, :k]), axis=2)
        close = np.flatnonzero((evals != ys).sum(axis=1) <= e)
        assert len(close) <= 1   # two such polynomials would agree on n - 2e >= k points
        h = _bw_decode(GF16, P, ys.tolist(), k)
        if not len(close):
            assert h is None
            outcomes["none"] += 1
            continue
        assert h == every[close[0]].tolist()
        outcomes["found_through_errors"] += bool((evals[close[0]] != ys).any())
    assert min(outcomes.values()) >= 30   # both branches and real errors exercised


def test_list_decode_matches_direct_enumeration():
    cc = toy_concat()
    rng = np.random.default_rng(41)
    cb = codebook(cc)
    for _ in range(25):
        w = rng.integers(0, 2, size=12).astype(np.int32)
        eps = Fraction(2, 5)
        got = list_decode_concat(cc, w, eps)
        thresh = (1 - eps) / 2 * 2 * 12
        expect = sorted(
            (i for i in range(16) if Fraction(int(cb.dist2_scan(w)[i])) <= thresh),
            key=lambda i: (int(cb.dist2_scan(w)[i]), i))
        assert [tuple(m) for m, _ in got] == [tuple(cb.msg_of_index(i)) for i in expect]
        for m, d2 in got:
            assert word_dist2(w, cc.encode(m)) == d2


def test_list_decode_radius_override():
    cc = toy_concat()
    w = cc.encode(np.array([1, 1, 0, 0], dtype=np.int32))
    full = list_decode_concat(cc, w, 0, radius=Fraction(1))
    assert len(full) == 16  # radius 1 includes every codeword


@pytest.mark.parametrize("make", [
    toy_concat,
    # GF(2) -> GF(256) packing, unlike GF(2) -> GF(4) or GF(16), is not its own inverse
    lambda: concat(rs_code(GF(8), [1, 2, 3], 2),
                   LinearCode(GF2, np.eye(8, dtype=np.int32), systematic_positions=tuple(range(8)))),
], ids=["gf4", "gf256"])
def test_index_of_packed_inverts_the_packing(make):
    code = make()
    cb = codebook(code)
    K, F, e = code.field, code.outer.field, code.inner.msg_len
    idx = np.random.default_rng(44).choice(code.msg_space, size=min(200, code.msg_space),
                                           replace=False)
    rows = [[pack_symbols(K, F, cb.msg_of_index(int(i))[t * e:(t + 1) * e])
             for t in range(code.outer.msg_len)] for i in idx]
    assert cb.index_of_packed(rows).tolist() == idx.tolist()


@pytest.mark.parametrize("make", [toy_concat, lambda: rs_code(GF4, [0, 1, 2, 3], 2)],
                         ids=["concat", "plain"])
def test_list_decode_restricted_to_indices(make):
    code = make()
    cb = codebook(code)
    rng = np.random.default_rng(43)
    for w in noisy_words(code, rng, count=5):
        full = list_decode_concat(code, w, 0, radius=Fraction(3, 4))
        index = {tuple(cb.msg_of_index(i)): i for i in range(code.msg_space)}
        assert len(full) > 1
        for idx in [rng.choice(code.msg_space, size=7, replace=False), np.arange(code.msg_space),
                    [index[tuple(m)] for m, _ in full][::-1], []]:
            got = list_decode_concat(code, w, 0, radius=Fraction(3, 4), idx=idx)
            want = [(tuple(m), d2) for m, d2 in full if index[tuple(m)] in set(idx)]
            assert [(tuple(m), d2) for m, d2 in got] == want
        # an index given twice is listed twice
        hits = {index[tuple(m)]: d2 for m, d2 in full}
        i = index[tuple(full[0][0])]
        twice = [i, (i + 1) % code.msg_space, i]
        got = list_decode_concat(code, w, 0, radius=Fraction(3, 4), idx=twice)
        assert [(d2, index[tuple(m)]) for m, d2 in got] == \
            sorted((hits[j], j) for j in twice if j in hits)


# ---------------------------------------------------------------------------
# ecc_eps family

def test_ecc_eps_binary_anchor():
    eps = Fraction(1, 4)
    code = ecc_eps(GF2 := GF(1), eps, 4)
    assert code.msg_len == 4
    assert code.systematic_positions is not None
    rng = random.Random(43)
    for _ in range(10):
        m = np.array([rng.randrange(2) for _ in range(4)], dtype=np.int32)
        assert np.array_equal(code.encode(m)[list(code.systematic_positions)], m)
    target = 1 - Fraction(1, 2) - eps
    assert Fraction(min_distance_bruteforce(code), code.code_len) >= target


def test_ecc_eps_gf16_anchor():
    eps = Fraction(1, 4)
    code = ecc_eps(GF16, eps, 4)
    assert code.msg_len == 4
    target = 1 - Fraction(1, 16) - eps
    assert Fraction(min_distance_bruteforce(code), code.code_len) >= target
    # deterministic: same parameters, same generator
    again = ecc_eps(GF16, eps, 4)
    assert np.array_equal(code.gen, again.gen)


def test_ecc_eps_length_one_message():
    code = ecc_eps(GF(2), Fraction(1, 2), 1)
    assert code.msg_len == 1
    assert Fraction(min_distance_bruteforce(code), code.code_len) >= Fraction(1, 4)


# ---------------------------------------------------------------------------
# properties

@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=4, max_size=4),
       st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_concat_linearity_hypothesis(m1, m2):
    cc = toy_concat()
    a = np.array(m1, dtype=np.int32)
    b = np.array(m2, dtype=np.int32)
    assert np.array_equal(cc.encode(a ^ b), cc.encode(a) ^ cc.encode(b))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 15), st.integers(0, 4095))
def test_nearest_codeword_within_half_distance_hypothesis(msg_idx, noise_seed):
    cc = toy_concat()
    cb = codebook(cc)
    msg = cb.msg_of_index(msg_idx)
    w = cc.encode(msg)
    rng = random.Random(noise_seed)
    for p in rng.sample(range(12), 2):
        w[p] ^= 1
    got, d2 = nearest_codeword_bruteforce(cc, w)
    assert np.array_equal(got, msg) and d2 <= 4
