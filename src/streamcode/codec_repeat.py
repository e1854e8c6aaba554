"""Repetition stream codec: k copies of a locally decodable encoding, decoded
in one pass over the stream with a small persistent state.

Encoding tiles the base encoding k times.  The decoder runs two phases:

  Phase 1 (tracking): fix a set of tracked codeword positions — the advice
  blocks plus v checksum positions — and, on every copy, smooth-decode each
  tracker with fresh random curves, accumulating the exact confidence pair
  (P0, P1).  Once every tracker has max(P0, P1) strictly above
  (1 - eps) * copies / 2, the trackers settle to their argmax values.

  Phase 2 (harvesting): each further copy is screened by comparing its v
  checksum positions against the settled values; a copy with mismatch count
  c below the acceptance threshold contributes the next r_out message bits
  via advice decoding against the settled advice block.  A copy that fails
  the screen, or whose advice decoding cannot pin a unique candidate, is
  skipped whole.

The stream is consumed strictly left to right (gaps are skipped, never
re-read), output bits are written to the tape in index order, and the
persistent state is measured through the canonical serializer at every copy
boundary, after plan and buffer allocation, when it is largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ldc_binary import (AdviceMismatch, BinaryLdcParams,
                         decode_advice_from_words, ldc_encode, sample_advice,
                         sample_advice_plan, sample_smooth_plan,
                         smooth_confidence_from_words)
from .stream import (MemoryLedger, OutputTape, StreamExhausted, SymbolStream,
                     state_size_bits)


@dataclass
class RepeatParams:
    ldc: BinaryLdcParams
    msg_bits: int                      # message length actually carried
    copies: int                        # repetitions of the base encoding
    v: int                             # checksum trackers per copy
    r_out: int                         # message bits harvested per accepted copy
    budget_bits: int                   # persistent-memory budget for decoding
    threshold_variant: str = "prose"   # copy-acceptance rule, see threshold
    rho: Fraction = Fraction(1, 20)    # channel promise (fraction of positions)

    def __post_init__(self):
        self.rho = Fraction(self.rho)
        if not 0 < self.msg_bits <= self.ldc.capacity_bits:
            raise ValueError("msg_bits must fit the base code capacity")
        if self.copies < 2:
            raise ValueError("need at least two copies")
        if self.v < 1 or self.r_out < 1:
            raise ValueError("v and r_out must be positive")
        if self.threshold_variant not in ("prose", "algorithm"):
            raise ValueError("threshold_variant must be 'prose' or 'algorithm'")

    @property
    def code_len(self) -> int:
        return self.copies * self.ldc.code_len

    @property
    def rate(self) -> Fraction:
        return Fraction(self.msg_bits, self.code_len)

    @property
    def threshold(self) -> Fraction:
        """Accept a phase-2 copy iff its checksum mismatch count c is strictly
        below this.  'prose' is the conservative (1/2 - 2 eps) v form; at large
        eps it can go nonpositive (accepting nothing), so 'algorithm' offers
        the (1/2 - eps) v form that matches the phase-2 screening margin."""
        e = self.ldc.eps
        if self.threshold_variant == "prose":
            return (Fraction(1, 2) - 2 * e) * self.v
        return (Fraction(1, 2) - e) * self.v

    @property
    def settle_threshold(self) -> Fraction:
        return (1 - self.ldc.eps) * Fraction(self.copies, 2)

    def describe(self) -> dict:
        return {
            "base": self.ldc.describe(),
            "msg_bits": self.msg_bits,
            "copies": self.copies,
            "code_len": self.code_len,
            "rate": str(self.rate),
            "v": self.v,
            "r_out": self.r_out,
            "budget_bits": self.budget_bits,
            "threshold": str(self.threshold),
            "threshold_variant": self.threshold_variant,
            "settle_threshold": str(self.settle_threshold),
            "rho": str(self.rho),
        }


def enc_repeat(params: RepeatParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int32)
    if len(x) != params.msg_bits:
        raise ValueError(f"message must have {params.msg_bits} bits")
    return np.tile(ldc_encode(params.ldc, x), params.copies)


@dataclass
class RepeatResult:
    success: bool
    message: np.ndarray | None
    tape: OutputTape
    copies_used: int
    settled_after: int | None          # copies consumed by phase 1
    per_copy: list                     # one record per processed copy
    advice_failures: int
    stream_exhausted: bool
    ledger: MemoryLedger
    trace: dict | None = None

    def report(self) -> dict:
        return {
            "success": self.success,
            "copies_used": self.copies_used,
            "settled_after": self.settled_after,
            "advice_failures": self.advice_failures,
            "stream_exhausted": self.stream_exhausted,
            "bits_written": len(self.tape),
            "peak_bits": self.ledger.peak_bits,
            "budget_bits": self.ledger.budget_bits,
            "budget_ok": not self.ledger.exceeded,
            "per_copy": self.per_copy,
        }


def _walk_copy(stream: SymbolStream, L: int, num_blocks: int,
               deliveries: dict, singles: dict):
    """Advance the stream over exactly one copy, reading only needed blocks.

    deliveries: block -> [(array, start)] whole-block drops;
    singles: block -> [(array, slot, offset)] single-bit drops.
    The targets are signed, so an erased bit arrives as ERASE.
    """
    needed = sorted(set(deliveries) | set(singles))
    cur = 0
    for blk in needed:
        if blk > cur:
            stream.skip((blk - cur) * L)
        bits = stream.read_run(L)
        for target, start in deliveries.get(blk, ()):
            target[start:start + L] = bits
        for arr, slot, off in singles.get(blk, ()):
            arr[slot] = bits[off]
        cur = blk + 1
    if cur < num_blocks:
        stream.skip((num_blocks - cur) * L)


def _schedule(L: int, curve_lists: list):
    """A zeroed int8 buffer per curve (one list of curves per plan) and the
    block -> [(buffer, start)] deliveries that fill them from the stream."""
    bufs = [[np.zeros(len(cv.positions), dtype=np.int8) for cv in curves]
            for curves in curve_lists]
    deliveries: dict = {}
    for row, curves in zip(bufs, curve_lists):
        for buf, cv in zip(row, curves):
            for s, blk in enumerate(cv.blocks):
                deliveries.setdefault(blk, []).append((buf, s * L))
    return bufs, deliveries


def dec_repeat(params: RepeatParams, stream: SymbolStream, rng,
               ledger: MemoryLedger | None = None,
               collect_trace: bool = False) -> RepeatResult:
    ldc = params.ldc
    L, NB, N = ldc.block_len, ldc.num_blocks, ldc.code_len
    u = ldc.advice_size
    if ledger is None:
        ledger = MemoryLedger(params.budget_bits)

    adv = sample_advice(ldc, rng)
    checks = [rng.randrange(N) for _ in range(params.v)]
    trackers = list(adv.positions) + checks
    T = len(trackers)
    tracker_arr = np.array(trackers, dtype=np.int64)

    p_acc = [[Fraction(0), Fraction(0)] for _ in range(T)]
    settled = None
    settled_after = None
    tape = OutputTape()
    next_bit = 0
    per_copy = []
    p_history = [] if collect_trace else None
    advice_failures = 0
    exhausted = False
    copies_used = 0

    for ell in range(params.copies):
        if next_bit >= params.msg_bits:
            break
        if settled is None:
            # ---- phase 1: refresh every tracker on this copy
            plans = [sample_smooth_plan(ldc, pos, rng, index="codeword")
                     for pos in trackers]
            bufs, deliveries = _schedule(L, [pl.curves for pl in plans])
            state = {
                "copy": ell,
                "next": next_bit,
                "trackers": tracker_arr,
                "p": [f for pair in p_acc for f in pair],
                "offsets": np.array([pl.offset for pl in plans], dtype=np.int64),
                "plan_blocks": np.array([b for pl in plans for cv in pl.curves
                                         for b in cv.blocks], dtype=np.int64),
                "bufs": np.concatenate([b for row in bufs for b in row]),
            }
            ledger.checkpoint(state_size_bits(state), label=f"copy{ell}/track")
            try:
                _walk_copy(stream, L, NB, deliveries, {})
            except StreamExhausted:
                exhausted = True
                break
            for ti in range(T):
                conf = smooth_confidence_from_words(ldc, plans[ti], bufs[ti])
                p_acc[ti][0] += conf.p0
                p_acc[ti][1] += conf.p1
            copies_used = ell + 1
            per_copy.append({"phase": 1})
            if p_history is not None:
                p_history.append([tuple(pair) for pair in p_acc])
            if all(max(pair) > params.settle_threshold for pair in p_acc):
                settled = np.array([1 if pair[1] > pair[0] else 0
                                    for pair in p_acc], dtype=np.uint8)
                settled_after = ell + 1
        else:
            # ---- phase 2: screen the copy, then harvest r_out bits
            pending = list(range(next_bit,
                                 min(next_bit + params.r_out, params.msg_bits)))
            plans = [sample_advice_plan(ldc, i, adv, rng, index="message")
                     for i in pending]
            bufs, deliveries = _schedule(L, [pl.iterations for pl in plans])
            check_vals = np.full(params.v, -1, dtype=np.int64)
            singles: dict = {}
            for t, pos in enumerate(checks):
                blk, off = divmod(pos, L)
                singles.setdefault(blk, []).append((check_vals, t, off))
            state = {
                "copy": ell,
                "next": next_bit,
                "trackers": tracker_arr,
                "settled": settled,
                "nodes": np.array([nd for pl in plans for it in pl.iterations
                                   for nd in it.nodes], dtype=np.int64),
                "plan_blocks": np.array([b for pl in plans for it in pl.iterations
                                         for b in it.blocks], dtype=np.int64),
                "check_vals": check_vals,
                "bufs": np.concatenate([b for row in bufs for b in row]),
            }
            ledger.checkpoint(state_size_bits(state), label=f"copy{ell}/harvest")
            try:
                _walk_copy(stream, L, NB, deliveries, singles)
            except StreamExhausted:
                exhausted = True
                break
            copies_used = ell + 1
            c = int((check_vals != settled[u:]).sum())
            passed = Fraction(c) < params.threshold
            wrote = False
            if passed:
                try:
                    bits = [decode_advice_from_words(ldc, pl, bufs[pi], settled[:u])
                            for pi, pl in enumerate(plans)]
                except AdviceMismatch:
                    advice_failures += 1
                else:
                    for i, bval in zip(pending, bits):
                        tape.write(i, int(bval))
                    next_bit = pending[-1] + 1
                    wrote = True
            per_copy.append({"phase": 2, "c": c, "passed": passed, "wrote": wrote})

    success = next_bit >= params.msg_bits
    trace = None
    if collect_trace:
        trace = {
            "settled_after": settled_after,
            "p_history": p_history,
            "settle_threshold": params.settle_threshold,
            "threshold": params.threshold,
        }
    return RepeatResult(
        success=success,
        message=tape.as_array(params.msg_bits) if success else None,
        tape=tape,
        copies_used=copies_used,
        settled_after=settled_after,
        per_copy=per_copy,
        advice_failures=advice_failures,
        stream_exhausted=exhausted,
        ledger=ledger,
        trace=trace,
    )


def errcount_property_probe(params: RepeatParams, trace: dict) -> list:
    """Cross-check phase-1 progress against the planted error counts.

    trace needs "errors_per_copy" (substitutions planted in each copy, in
    stream order) plus the fields recorded by dec_repeat(collect_trace=True).
    Whenever the decoder was still tracking after copy ell, the planted errors
    in copies 1..ell must reach (1 - eps) (ell - copies/2) N / 2 — staying
    unsettled is only possible while the adversary keeps spending.  Returns a
    list of {copy, cum_errors, bound} records for every copy where the planted
    errors fall strictly below the bound (empty when the property holds).
    This is an expectation-level diagnostic, not a per-run guarantee.
    """
    errs = trace["errors_per_copy"]
    eps = params.ldc.eps
    N = params.ldc.code_len
    half_k = Fraction(params.copies, 2)
    settled_after = trace.get("settled_after")
    horizon = (settled_after - 1) if settled_after else min(len(errs), params.copies)
    violations = []
    cum = 0
    for ell in range(1, horizon + 1):
        cum += errs[ell - 1]
        bound = (1 - eps) * (ell - half_k) * N / 2
        if Fraction(cum) < bound:
            violations.append({"copy": ell, "cum_errors": cum, "bound": bound})
    return violations
