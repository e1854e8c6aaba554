"""The shared Reed-Muller core.  The binary LDC is the large-alphabet LDC
over K = GF(2) with e = b: both parameter classes must give the same
codewords and, from equal seeds, the same smooth-decoding plans.  The core's
vectorized curve walk and packing are checked against pointwise references."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from streamcode.codes import (doubly_extended_rs, extended_hamming_code, replicate,
                              simplex_code)
from streamcode.gf import GF, pack_symbols, poly_eval
from streamcode.ldc_core import curve_blocks, encode, sample_smooth_plan
from streamcode.ldc_binary import BinaryLdcParams
from streamcode.ldc_large import LargeLdcParams

GEOMETRIES = {
    "ext-hamming": (extended_hamming_code, 2, 1),
    "simplex4x3": (lambda: replicate(simplex_code(4), 3), 3, 3),
}


def _block(p, coords):
    """Block index of an RM point: its coordinates base q, first most significant."""
    return sum(c * p.F.q ** (p.m - 1 - a) for a, c in enumerate(coords))


def _pair(name):
    make_inner, m, d = GEOMETRIES[name]
    F = GF(4)
    n = math.comb(d + m, m) * F.k
    binary = BinaryLdcParams(F=F, m=m, d=d, inner=make_inner(), n=n,
                             eps=Fraction(1, 5), t_smooth=2)
    large = LargeLdcParams(K=GF(1), e=F.k, m=m, d=d, inner=make_inner(), r=n,
                           eps=Fraction(1, 5), t=2)
    return binary, large


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_binary_equals_large_over_gf2(name):
    binary, large = _pair(name)
    assert binary.code_len == large.code_len
    rng = random.Random(name)
    for _ in range(3):
        x = np.array([rng.randrange(2) for _ in range(binary.n)], dtype=np.int32)
        assert np.array_equal(encode(binary, x), encode(large, x))
    for index, count in (("message", binary.n), ("codeword", binary.code_len)):
        for i in random.Random(1).sample(range(count), 6):
            pb = sample_smooth_plan(binary, i, random.Random(i), index=index)
            pl = sample_smooth_plan(large, i, random.Random(i), index=index)
            assert pb.offset == pl.offset
            assert np.array_equal(pb.positions, pl.positions)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_curve_plan_matches_pointwise_evaluation(name):
    """The vectorized curve walk against evaluating each coordinate
    polynomial at each nonzero lambda, for degrees up to 4, one curve and a
    stack of curves."""
    p, _ = _pair(name)
    rng = random.Random(5)
    for deg in range(5):
        polys = [[[rng.randrange(p.F.q) for _ in range(deg + 1)] for _ in range(p.m)]
                 for _ in range(3)]
        coefs = np.array(polys, dtype=np.intp).transpose(0, 2, 1)   # (curve, j, a)
        base = [_block(p, c[0]) for c in coefs]
        want = [[_block(p, [poly_eval(p.F, cp, lam) for cp in curve]) for lam in p.nonzero_points]
                for curve in polys]
        assert curve_blocks(p, base[0], coefs[0, 1:]).tolist() == want[0]
        assert curve_blocks(p, np.array(base), coefs[:, 1:]).tolist() == want


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_batched_plan_equals_per_target_plans(name):
    """One call for many targets gives the blocks, offsets and positions of
    one call per target and leaves the rng where those calls leave it.  Both
    match curves drawn v1 then v2, curve by curve and target by target, and
    evaluated pointwise.  Targets repeat, as trackers may."""
    for p in _pair(name):
        q, m, t = p.F.q, p.m, p.t_smooth
        for index, count in (("message", p.msg_len), ("codeword", p.code_len)):
            for seed in range(3):
                idx = random.Random(seed).choices(range(count), k=7)
                rngs = [random.Random(seed) for _ in range(3)]
                batch = sample_smooth_plan(p, idx, rngs[0], index=index)
                singles = [sample_smooth_plan(p, i, rngs[1], index=index) for i in idx]
                assert rngs[0].getstate() == rngs[1].getstate()
                assert np.array_equal(batch.blocks, [s.blocks for s in singles])
                assert batch.offset.tolist() == [s.offset for s in singles]
                assert np.array_equal(batch.positions,
                                      np.concatenate([s.positions for s in singles]))
                for i, s in zip(idx, singles):
                    block, offset = p.target(i, index)
                    v0 = p.point_coords(block)
                    assert s.offset == offset
                    rows = s.positions.reshape(len(s.blocks), -1)
                    for blocks, positions in zip(s.blocks.tolist(), rows):
                        v1 = [rngs[2].randrange(q) for _ in range(m)]
                        v2 = [rngs[2].randrange(q) for _ in range(m)]
                        assert blocks == [
                            _block(p, [poly_eval(p.F, [v0[a], v1[a], v2[a]], lam)
                                       for a in range(m)])
                            for lam in p.nonzero_points]
                        assert np.array_equal(positions, np.concatenate(
                            [np.arange(b * p.block_len, (b + 1) * p.block_len)
                             for b in blocks]))
                assert rngs[2].getstate() == rngs[0].getstate()
                assert len(singles[0].blocks) == t


def test_pack_matches_pack_symbols():
    rng = random.Random(7)
    for K, e, inner in ((GF(1), 4, extended_hamming_code()),
                        (GF(2), 2, doubly_extended_rs(GF(2)))):
        p = LargeLdcParams(K=K, e=e, m=2, d=1, inner=inner, r=1, eps=Fraction(1, 5))
        syms = np.array([rng.randrange(K.q) for _ in range(3 * e)])
        want = [pack_symbols(K, p.F, syms[j * e:(j + 1) * e]) for j in range(3)]
        assert p.pack(syms).tolist() == want
