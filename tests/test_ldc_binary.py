"""Binary LDC tests on a small instance: RM(q=16, m=2, d=1) over an [8,4,4]
extended-Hamming inner code, 12 message bits into 2048 codeword bits."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcode.gf import ERASE, GF, pack_symbols, poly_eval, poly_interpolate
from streamcode.codes import (certified_decode, extended_hamming_code, list_decode_concat,
                              list_radius2, replicate, simplex_code, unique_decode)
from streamcode.ldc_binary import (
    AdviceMismatch, AdvicePlan, BinaryLdcParams, advice_symbols,
    decode_advice_from_words, decode_with_advice,
    sample_advice, sample_advice_plan, sample_smooth_plan,
    smooth_local_decode, gather,
)
from streamcode.ldc_core import encode
from streamcode.profiles import build_params, load_profile


def toy_params(**over):
    kw = dict(F=GF(4), m=2, d=1, inner=extended_hamming_code(), n=12,
              eps=Fraction(1, 5), t_smooth=2, t_advice=3, k_adv=1)
    kw.update(over)
    return BinaryLdcParams(**kw)


def random_message(params, rng):
    return np.array([rng.randrange(2) for _ in range(params.n)], dtype=np.int32)


def test_shapes_and_capacity():
    p = toy_params()
    assert p.capacity_syms == 3 and p.capacity_bits == 12
    assert p.num_blocks == 256 and p.code_len == 2048
    assert p.queries_smooth == 2 * 15 * 8
    assert p.advice_size == 8


def test_encode_systematic_readback():
    p = toy_params()
    rng = random.Random(1)
    for _ in range(10):
        x = random_message(p, rng)
        w = encode(p, x)
        assert len(w) == p.code_len
        got = [int(w[p.bit_position(i)]) for i in range(p.n)]
        assert got == list(x)


def test_encode_is_linear():
    p = toy_params()
    rng = random.Random(2)
    a, b = random_message(p, rng), random_message(p, rng)
    assert np.array_equal(encode(p, a ^ b), encode(p, a) ^ encode(p, b))


def test_curve_restriction_is_curve_codeword():
    """Reading the codeword along a sampled curve must give an exact codeword
    of the restricted RS-concat code whose h(lambda) matches the RM values."""
    p = toy_params()
    rng = random.Random(3)
    x = random_message(p, rng)
    w = encode(p, x)
    syms = np.array([pack_symbols(GF(1), p.F, x[j * 4:(j + 1) * 4]) for j in range(3)])
    evals = p.rm.encode(syms)
    for i in range(4):
        plan = sample_smooth_plan(p, i, rng)
        for blocks, positions in zip(plan.blocks.tolist(),
                                     plan.positions.reshape(len(plan.blocks), -1)):
            word = gather(w, positions)
            got = unique_decode(p.curve_code, word)
            assert got is not None
            coeffs, d2 = p.pack(got[0]).tolist(), got[1]
            assert d2 == 0
            for lam, blk in zip(p.nonzero_points, blocks):
                assert poly_eval(p.F, coeffs, lam) == int(evals[blk])


def test_smooth_uncorrupted_certainty():
    p = toy_params()
    rng = random.Random(4)
    x = random_message(p, rng)
    w = encode(p, x)
    for i in range(p.n):
        c = smooth_local_decode(w, i, p, rng)
        assert (c.p1, c.p0) == (Fraction(1), Fraction(0)) if x[i] else \
               (c.p0, c.p1) == (Fraction(1), Fraction(0))


def test_smooth_complement_oracle_certain_zero():
    # the inner code contains the all-ones word, so the bitwise complement of
    # a codeword is again a codeword and every curve decodes to flipped bits
    p = toy_params()
    rng = random.Random(5)
    x = random_message(p, rng)
    w = 1 - encode(p, x)
    for i in range(0, p.n, 3):
        c = smooth_local_decode(w, i, p, rng)
        assert (c.p1 if x[i] else c.p0) == Fraction(0)


def test_smooth_codeword_index():
    p = toy_params()
    rng = random.Random(6)
    x = random_message(p, rng)
    w = encode(p, x)
    for j in [0, 5, 100, 1027, 2047]:
        c = smooth_local_decode(w, j, p, rng, index="codeword")
        assert c.best() == int(w[j])
        assert max(c.p0, c.p1) == Fraction(1)


def test_smooth_under_mild_corruption():
    p = toy_params()
    rng = random.Random(7)
    ok = 0
    for _ in range(30):
        x = random_message(p, rng)
        w = encode(p, x)
        for pos in rng.sample(range(p.code_len), p.code_len // 20):  # 5%
            w[pos] ^= 1
        i = rng.randrange(p.n)
        c = smooth_local_decode(w, i, p, rng)
        ok += int(c.best() == x[i])
    assert ok >= 27


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_confidence_sums_to_one_on_garbage(seed):
    # the exact-arithmetic invariant p0 + p1 == 1 holds for any oracle at all
    p = toy_params()
    rng = random.Random(seed)
    w = np.array([rng.randrange(2) for _ in range(p.code_len)], dtype=np.int32)
    c = smooth_local_decode(w, seed % p.n, p, rng)
    assert c.p0 + c.p1 == 1 and c.p0 >= 0 and c.p1 >= 0


def test_plan_positions_shape():
    p = toy_params()
    rng = random.Random(8)
    plan = sample_smooth_plan(p, 3, rng)
    pos = plan.positions
    assert len(pos) == p.queries_smooth
    assert pos.min() >= 0 and pos.max() < p.code_len
    # whole blocks, in lambda order
    assert plan.positions.reshape(len(plan.blocks), -1).shape == (p.t_smooth, 15 * 8)


def test_sample_advice_expands_blocks():
    p = toy_params()
    rng = random.Random(9)
    adv = sample_advice(p, rng)
    assert len(adv.rm_points) == 1 and len(adv.positions) == 8
    blk = adv.rm_points[0]
    assert list(adv.positions) == list(range(blk * 8, blk * 8 + 8))


def test_advice_decode_uncorrupted():
    p = toy_params()
    rng = random.Random(10)
    x = random_message(p, rng)
    w = encode(p, x)
    adv = sample_advice(p, rng)
    vals = gather(w, list(adv.positions))
    for i in range(p.n):
        assert decode_with_advice(w, i, adv, vals, p, rng) == x[i]


def test_advice_decode_light_corruption():
    p = toy_params()
    rng = random.Random(11)
    ok = trials = 0
    for _ in range(25):
        x = random_message(p, rng)
        w = encode(p, x)
        adv = sample_advice(p, rng)
        vals = gather(w, list(adv.positions))  # advice stays clean
        for pos in rng.sample(range(p.code_len), p.code_len // 50):  # 2%
            w[pos] ^= 1
        i = rng.randrange(p.n)
        try:
            ok += int(decode_with_advice(w, i, adv, vals, p, rng) == x[i])
            trials += 1
        except AdviceMismatch:
            trials += 1
    assert trials == 25 and ok >= 22


def test_advice_mismatch_on_invalid_advice():
    p = toy_params()
    rng = random.Random(12)
    x = random_message(p, rng)
    w = encode(p, x)
    adv = sample_advice(p, rng)
    vals = gather(w, list(adv.positions))
    vals = vals.copy()
    vals[0] ^= 1  # now not an inner codeword: every candidate must fail
    with pytest.raises(AdviceMismatch):
        decode_with_advice(w, 0, adv, vals, p, rng)


def test_advice_wrong_but_valid_advice_changes_answer_or_mismatches():
    # advice that decodes to the wrong symbol steers the filter away from the
    # true candidate; with an otherwise clean word nothing else survives
    p = toy_params()
    rng = random.Random(13)
    x = random_message(p, rng)
    w = encode(p, x)
    adv = sample_advice(p, rng)
    wrong_sym_bits = p.inner_words[7]
    true_block = gather(w, list(adv.positions))
    if np.array_equal(true_block, wrong_sym_bits):
        wrong_sym_bits = p.inner_words[8]
    with pytest.raises(AdviceMismatch):
        decode_with_advice(w, 0, adv, wrong_sym_bits, p, rng)


def test_advice_symbols_read_exact_inner_codewords_only():
    """An advice block gives the symbol whose inner codeword it is; one flip
    or one erasure away from every inner codeword, it gives None."""
    p = toy_params(k_adv=2)
    L = p.block_len
    for s, t in [(0, 5), (9, 15), (7, 7)]:
        vals = np.concatenate([p.inner_words[s], p.inner_words[t]])
        assert advice_symbols(p, vals) == [s, t]
        assert all(type(v) is int for v in advice_symbols(p, vals))
        for pos in (0, 3, L + 1, 2 * L - 1):
            for mark in ("flip", "erase"):
                bad = vals.copy()
                bad[pos] = bad[pos] ^ 1 if mark == "flip" else ERASE
                want = [None, t] if pos < L else [s, None]
                assert advice_symbols(p, bad) == want


def _passes_advice(p, msg, nodes, syms):
    coeffs = p.pack(msg).tolist()
    return all(s is not None and poly_eval(p.F, coeffs, lam) == s
               for lam, s in zip(nodes, syms))


def _reference_advice(p, plan, words, adv_values):
    """Advice decoding as a list decode of the whole codebook followed by
    the h(lambda_l) == s_l filter: (survivor list per iteration, one bit, a
    bit per target of a stacked plan, or AdviceMismatch)."""
    syms = advice_symbols(p, adv_values)
    lists = [[(tuple(msg), d2) for msg, d2 in list_decode_concat(p.advice_code, word, p.eps)
              if _passes_advice(p, msg, nodes, syms)]
             for nodes, word in zip(np.reshape(plan.nodes, (-1, p.k_adv)).tolist(), words)]
    t, bits = p.t_advice, []
    for j, offset in enumerate(np.reshape(plan.offset, -1).tolist()):
        votes = [int(p.inner_words[p.pack(kept[0][0])[0], offset])
                 for kept in lists[j * t:(j + 1) * t] if len(kept) == 1]
        if not votes:
            return lists, AdviceMismatch
        bits.append(1 if 2 * sum(votes) > len(votes) else 0)
    return lists, bits if np.ndim(plan.offset) else bits[0]


def _vote(p, plan, words, adv_values):
    try:
        return decode_advice_from_words(p, plan, words, adv_values)
    except AdviceMismatch:
        return AdviceMismatch


ADVICE_PARAMS = {
    "toy-kadv1": lambda: toy_params(),                    # 256 messages
    "toy-kadv2": lambda: toy_params(k_adv=2),             # 4096 messages
    "repeat-toy": lambda: build_params(load_profile("repeat-toy")).ldc,  # 65536 messages
}


@pytest.mark.parametrize("name", list(ADVICE_PARAMS))
def test_advice_decode_matches_full_scan_filter(name):
    """The advice decode gives the reference's vote or AdviceMismatch, on
    clean and flipped words, an invalid advice block and wrong-but-valid
    advice."""
    p = ADVICE_PARAMS[name]()
    rng = random.Random(16)
    sizes = []
    for case in ["clean", 0.2, 0.3, 0.4, "invalid", "wrong"] * 3:
        x = random_message(p, rng)
        w = encode(p, x)
        adv = sample_advice(p, rng)
        vals = gather(w, list(adv.positions)).copy()
        if case == "invalid":
            vals[rng.randrange(len(vals))] ^= 1
        elif case == "wrong":
            true_syms = advice_symbols(p, vals)
            vals = np.concatenate([p.inner_words[(s + rng.randrange(1, p.F.q)) % p.F.q]
                                   for s in true_syms])
        elif case != "clean":
            for pos in rng.sample(range(p.code_len), int(case * p.code_len)):
                w[pos] ^= 1
        plan = sample_advice_plan(p, rng.randrange(p.n), adv, rng)
        words = gather(w, plan.positions).reshape(len(plan.blocks), -1)
        want_lists, want_vote = _reference_advice(p, plan, words, vals)
        assert _vote(p, plan, words, vals) == want_vote, case
        sizes += [len(kept) for kept in want_lists]
    assert {0, 1} <= set(sizes)   # both a vote and an iteration that abstains


CERTIFIED_PARAMS = dict(ADVICE_PARAMS, **{
    # list radius 48 under the certificate's 63: a certified codeword past
    # the radius leaves the list empty
    "toy-wide": lambda: toy_params(eps=Fraction(3, 5)),
})


@pytest.mark.parametrize("name", list(CERTIFIED_PARAMS))
def test_advice_certificate_matches_coset_scans(name):
    """Stacked advice decodes equal the full-scan reference of every word.
    Each word is its target's curve word with a few flips (GMD certifies
    it), with flips and erasures past the certificate (the full scan takes
    it), or the curve word of another message: its certified codeword mostly
    fails the advice test, so it casts no vote, and a target left with no
    vote raises AdviceMismatch as the reference does."""
    p = CERTIFIED_PARAMS[name]()
    code, n = p.advice_code, p.advice_code.code_len
    thresh2 = list_radius2(code, p.eps)
    cert2 = code.dist2_bound - thresh2 - 1
    rng, nrng = random.Random(17), np.random.default_rng(17)
    outcomes, routes = [], {"left": 0, "outside": 0, "past": 0}
    for case in range(24):
        x = random_message(p, rng)
        w, other = encode(p, x), encode(p, random_message(p, rng))
        adv = sample_advice(p, rng)
        vals = gather(w, list(adv.positions))
        plan = sample_advice_plan(p, [rng.randrange(p.n) for _ in range(3)], adv, rng)
        words = gather(w, plan.positions).reshape(-1, n)
        for r, positions in enumerate(plan.positions.reshape(-1, n)):
            kind = rng.choice(["near", "past", "past", "other"] if case % 3 else ["near"])
            if kind == "other":
                words[r] = other[positions]
            hit = nrng.permutation(n)[:nrng.integers(0, cert2 // 2 + 1) if kind != "past" else
                                      nrng.integers(cert2 // 2 + 1, max(cert2, thresh2) // 2 + 2)]
            words[r, hit] = np.where(nrng.random(len(hit)) < 0.8, words[r, hit] ^ 1, ERASE)
        outcomes.append(_reference_advice(p, plan, words, vals)[1])
        assert _vote(p, plan, words, vals) == outcomes[-1], case
        got, left = certified_decode(code, words, cert2)
        syms = advice_symbols(p, vals)
        for g, nodes in zip(got, plan.nodes.reshape(-1, p.k_adv).tolist()):
            if g is not None:
                routes["outside"] += not _passes_advice(p, g[0], nodes, syms)
                routes["past"] += g[1] > thresh2
        routes["left"] += len(left)
    assert AdviceMismatch in outcomes and any(o is not AdviceMismatch for o in outcomes)
    assert routes["left"] and routes["outside"]
    assert routes["past"] or cert2 <= thresh2


def _block(p, coords):
    """Block index of an RM point: its coordinates base q, first most significant."""
    return sum(c * p.F.q ** (p.m - 1 - a) for a, c in enumerate(coords))


def _one(plan, j):
    """Target j of a stacked advice plan, as the plan of that target alone."""
    return AdvicePlan(plan.offset[j], plan.blocks[j], plan.block_len, plan.nodes[j])


@pytest.mark.parametrize("k_adv", [1, 2])
def test_batched_advice_plan_equals_per_target_plans(k_adv):
    """One call for many targets gives the blocks, nodes, offsets and
    positions of one call per target and leaves the rng where those calls
    leave it.  Both match curves whose nodes are drawn target by target,
    iteration by iteration, and whose coordinates are interpolated and
    evaluated point by point; each curve meets advice point l at its node l.
    Targets repeat."""
    p = toy_params(k_adv=k_adv)
    t, ka = p.t_advice, p.k_adv
    for index, count in (("message", p.n), ("codeword", p.code_len)):
        for seed in range(3):
            adv = sample_advice(p, random.Random(100 + seed))
            anchors = [p.point_coords(b) for b in adv.rm_points]
            idx = random.Random(seed).choices(range(count), k=5)
            idx += idx[:2]
            rngs = [random.Random(seed) for _ in range(3)]
            batch = sample_advice_plan(p, idx, adv, rngs[0], index=index)
            singles = [sample_advice_plan(p, i, adv, rngs[1], index=index) for i in idx]
            assert rngs[0].getstate() == rngs[1].getstate()
            assert batch.blocks.shape == (len(idx), t, p.F.q - 1)
            assert batch.nodes.shape == (len(idx), t, ka)
            assert np.array_equal(batch.blocks, [s.blocks for s in singles])
            assert np.array_equal(batch.nodes, [s.nodes for s in singles])
            assert batch.offset.tolist() == [s.offset for s in singles]
            assert np.array_equal(batch.positions,
                                  np.concatenate([s.positions for s in singles]))
            for i, s in zip(idx, singles):
                block, offset = p.target(i, index)
                v0 = p.point_coords(block)
                assert s.offset == offset
                rows = s.positions.reshape(len(s.blocks), -1)
                for blocks, nodes, positions in zip(s.blocks.tolist(), s.nodes.tolist(), rows):
                    assert nodes == rngs[2].sample(p.nonzero_points, ka)
                    polys = [poly_interpolate(p.F, [(0, v0[a])] + [
                        (lam, pt[a]) for lam, pt in zip(nodes, anchors)]) for a in range(p.m)]
                    assert blocks == [_block(p, [poly_eval(p.F, poly, lam) for poly in polys])
                                      for lam in p.nonzero_points]
                    assert [blocks[lam - 1] for lam in nodes] == list(adv.rm_points)
                    assert np.array_equal(positions, np.concatenate(
                        [np.arange(b * p.block_len, (b + 1) * p.block_len) for b in blocks]))
            assert rngs[2].getstate() == rngs[0].getstate()


def _decode_or_mismatch(p, plan, words, adv_values):
    try:
        return decode_advice_from_words(p, plan, words, adv_values)
    except AdviceMismatch:
        return AdviceMismatch


@pytest.mark.parametrize("k_adv", [1, 2])
def test_stacked_advice_decode_equals_per_target_decodes(k_adv):
    """A stacked decode returns the bits of one decode per target.  It raises
    AdviceMismatch when any one target gets no vote, wherever that target
    sits in the stack, and on falsified advice."""
    p = toy_params(k_adv=k_adv)
    rng = random.Random(20 + k_adv)
    outcomes = set()
    for rate in (0, 0.05, 0.2, 0.3, 0.4) * 3:
        x = random_message(p, rng)
        w = encode(p, x)
        adv = sample_advice(p, rng)
        vals = gather(w, list(adv.positions))
        for pos in rng.sample(range(p.code_len), int(rate * p.code_len)):
            w[pos] ^= 1
        idx = [rng.randrange(p.n) for _ in range(6)]
        plan = sample_advice_plan(p, idx + idx[:1], adv, rng)
        words = gather(w, plan.positions)
        singles = [_decode_or_mismatch(p, _one(plan, j), gather(w, _one(plan, j).positions),
                                       vals) for j in range(len(plan.offset))]
        got = _decode_or_mismatch(p, plan, words, vals)
        assert got == (AdviceMismatch if AdviceMismatch in singles else singles)
        outcomes.add(got is AdviceMismatch)
        if rate == 0:
            assert got == [int(x[i]) for i in idx + idx[:1]]
    assert outcomes == {False, True}

    # one target with no vote, at the front, in the middle and at the end
    x = random_message(p, rng)
    w = encode(p, x)
    adv = sample_advice(p, rng)
    vals = gather(w, list(adv.positions))
    plan = sample_advice_plan(p, list(range(5)), adv, rng)
    words = gather(w, plan.positions).reshape(5, -1)
    assert decode_advice_from_words(p, plan, words, vals) == [int(b) for b in x[:5]]
    for j in (0, 2, 4):
        for _ in range(200):   # a word on which target j alone gets no vote
            bad = words.copy()
            bad[j] = [rng.randrange(2) for _ in range(words.shape[1])]
            if _decode_or_mismatch(p, _one(plan, j), bad[j], vals) is AdviceMismatch:
                break
        assert _decode_or_mismatch(p, _one(plan, j), bad[j], vals) is AdviceMismatch
        with pytest.raises(AdviceMismatch):
            decode_advice_from_words(p, plan, bad, vals)

    # falsified advice: an advice block that is not an inner codeword
    for _ in range(5):
        false_vals = vals.copy()
        false_vals[rng.randrange(len(false_vals))] ^= 1
        with pytest.raises(AdviceMismatch):
            decode_advice_from_words(p, plan, words, false_vals)


def test_equidistant_inner_variant_builds():
    p = toy_params(inner=replicate(simplex_code(4), 2))
    rng = random.Random(14)
    x = random_message(p, rng)
    w = encode(p, x)
    assert len(w) == 256 * 30
    c = smooth_local_decode(w, 5, p, rng)
    assert max(c.p0, c.p1) == Fraction(1)


def test_validation_errors():
    with pytest.raises(ValueError):
        toy_params(n=13)  # over capacity
    with pytest.raises(ValueError):
        toy_params(d=16)  # degree too large for the field
    bad_inner = extended_hamming_code()
    bad_inner.systematic_positions = None
    with pytest.raises(ValueError):
        toy_params(inner=bad_inner)
