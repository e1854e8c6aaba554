"""Repetition stream codec: k copies of a locally decodable encoding, decoded
in one pass over the stream with a small persistent state.

Encoding tiles the base encoding k times.  The decoder runs two phases:

  Phase 1 (tracking): fix a set of tracked codeword positions — the advice
  blocks plus v checksum positions — and, on every copy, smooth-decode each
  tracker with fresh random curves (one plan, one read and one stacked
  decode per copy), accumulating the exact confidence pair (P0, P1).  Once
  every tracker has max(P0, P1) strictly above (1 - eps) * copies / 2, the
  trackers settle to their argmax values.

  Phase 2 (harvesting): each further copy is screened by comparing its v
  checksum positions against the settled values; a copy with mismatch count
  c below the acceptance threshold contributes the next r_out message bits
  via advice decoding against the settled advice block (one advice plan,
  one read and one decode per copy).  A copy that fails the screen, or
  whose advice decoding cannot pin a unique candidate, is skipped whole.

The stream is consumed strictly left to right (gaps are skipped, never
re-read), output bits are written to the tape in index order, and the
persistent state is measured through the canonical serializer at every copy
boundary, when largest: the plans and a zeroed stand-in for their blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ldc_binary import (AdviceMismatch, BinaryLdcParams,
                         decode_advice_from_words, sample_advice,
                         sample_advice_plan, sample_smooth_plan,
                         smooth_confidence_from_words)
from .ldc_core import encode
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
    return np.tile(encode(params.ldc, x), params.copies)


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


def _read_copy(stream: SymbolStream, L: int, num_blocks: int, blocks) -> np.ndarray:
    """Advance the stream over exactly one copy, reading only the blocks in
    `blocks`: each run of consecutive needed blocks with one read, the gaps
    and the tail skipped.  Holds one row per distinct needed block, never the
    whole copy, and returns the rows gathered to shape blocks.shape + (L,) as
    int8, so an erased bit arrives as ERASE."""
    needed, inverse = np.unique(blocks, return_inverse=True)
    rows = np.empty((len(needed), L), dtype=np.int8)
    starts = np.flatnonzero(np.diff(needed, prepend=-2) != 1).tolist()
    cur = 0
    for lo, hi in zip(starts, starts[1:] + [len(needed)]):
        stream.skip((int(needed[lo]) - cur) * L)
        rows[lo:hi] = stream.read_run((hi - lo) * L).reshape(hi - lo, L)
        cur = int(needed[hi - 1]) + 1
    stream.skip((num_blocks - cur) * L)
    return rows[inverse.reshape(blocks.shape)]


def dec_repeat(params: RepeatParams, stream: SymbolStream, rng,
               ledger: MemoryLedger | None = None) -> RepeatResult:
    ldc = params.ldc
    L, NB, N = ldc.block_len, ldc.num_blocks, ldc.code_len
    u = ldc.advice_size
    if ledger is None:
        ledger = MemoryLedger(params.budget_bits)

    adv = sample_advice(ldc, rng)
    checks = [rng.randrange(N) for _ in range(params.v)]
    trackers = np.array(list(adv.positions) + checks, dtype=np.int64)
    check_blocks, check_offs = np.divmod(checks, L)

    p_acc = [[Fraction(0), Fraction(0)] for _ in trackers]
    settled = None
    settled_after = None
    tape = OutputTape()
    next_bit = 0
    per_copy = []
    advice_failures = 0
    exhausted = False
    copies_used = 0

    for ell in range(params.copies):
        if next_bit >= params.msg_bits:
            break
        if settled is None:
            # ---- phase 1: refresh every tracker on this copy
            plan = sample_smooth_plan(ldc, trackers, rng, index="codeword")
            state = {
                "copy": ell,
                "next": next_bit,
                "trackers": trackers,
                "p": [f for pair in p_acc for f in pair],
                "offsets": plan.offset,
                "plan_blocks": plan.blocks,
                "bufs": np.zeros(plan.blocks.size * L, dtype=np.int8),
            }
            ledger.checkpoint(state_size_bits(state), label=f"copy{ell}/track")
            try:
                words = _read_copy(stream, L, NB, plan.blocks)
            except StreamExhausted:
                exhausted = True
                break
            for pair, conf in zip(p_acc, smooth_confidence_from_words(ldc, plan, words)):
                pair[0] += conf.p0
                pair[1] += conf.p1
            del words  # kept through the next copy's read, it grows the heap
            copies_used = ell + 1
            per_copy.append({"phase": 1})
            if all(max(pair) > params.settle_threshold for pair in p_acc):
                settled = np.array([1 if pair[1] > pair[0] else 0
                                    for pair in p_acc], dtype=np.uint8)
                settled_after = ell + 1
        else:
            # ---- phase 2: screen the copy, then harvest r_out bits
            pending = list(range(next_bit,
                                 min(next_bit + params.r_out, params.msg_bits)))
            plan = sample_advice_plan(ldc, pending, adv, rng, index="message")
            state = {
                "copy": ell,
                "next": next_bit,
                "trackers": trackers,
                "settled": settled,
                "nodes": plan.nodes,
                "plan_blocks": plan.blocks,
                "check_vals": np.full(params.v, -1, dtype=np.int64),
                "bufs": np.zeros(plan.blocks.size * L, dtype=np.int8),
            }
            ledger.checkpoint(state_size_bits(state), label=f"copy{ell}/harvest")
            try:
                rows = _read_copy(stream, L, NB,
                                  np.concatenate([plan.blocks.reshape(-1), check_blocks]))
            except StreamExhausted:
                exhausted = True
                break
            copies_used = ell + 1
            check_vals = rows[plan.blocks.size:][np.arange(params.v), check_offs]
            c = int((check_vals != settled[u:]).sum())
            passed = Fraction(c) < params.threshold
            wrote = False
            if passed:
                try:
                    bits = decode_advice_from_words(ldc, plan, rows[:plan.blocks.size],
                                                    settled[:u])
                except AdviceMismatch:
                    advice_failures += 1
                else:
                    for i, bval in zip(pending, bits):
                        tape.write(i, int(bval))
                    next_bit = pending[-1] + 1
                    wrote = True
            del rows
            per_copy.append({"phase": 2, "c": c, "passed": passed, "wrote": wrote})

    success = next_bit >= params.msg_bits
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
    )


def errcount_property_probe(params: RepeatParams, settled_after: int | None,
                            errors_per_copy) -> list:
    """Cross-check phase-1 progress against the planted error counts.

    settled_after is RepeatResult.settled_after; errors_per_copy counts the
    substitutions planted in each copy, in stream order.  Whenever the
    decoder was still tracking after copy ell, the planted errors in copies
    1..ell must reach (1 - eps) (ell - copies/2) N / 2 — staying unsettled is
    only possible while the adversary keeps spending.  Returns a list of
    {copy, cum_errors, bound} records for every copy where the planted
    errors fall strictly below the bound (empty when the property holds).
    This is an expectation-level diagnostic, not a per-run guarantee.
    """
    eps = params.ldc.eps
    N = params.ldc.code_len
    half_k = Fraction(params.copies, 2)
    horizon = (settled_after - 1 if settled_after
               else min(len(errors_per_copy), params.copies))
    violations = []
    cum = 0
    for ell in range(1, horizon + 1):
        cum += errors_per_copy[ell - 1]
        bound = (1 - eps) * (ell - half_k) * N / 2
        if Fraction(cum) < bound:
            violations.append({"copy": ell, "cum_errors": cum, "bound": bound})
    return violations
