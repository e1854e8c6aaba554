"""Closed-loop benchmark of the streamcode codecs.

    python3 bench/run.py --workload repeat-uniform --seed 0 --seconds 60 --trace 0

Runs encode -> corrupt -> decode trials one after another for --seconds,
checks every trial's outputs, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 runs each trial twice, plain then traced, and
reports the per-layer metrics and the tracing overhead, writing the spans to
bench/out/.  The library is imported from src/ of the checkout this file
sits in.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before any other import; see process_age

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread: keep numpy's BLAS pool from starting workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# per-layer metric -> the span, call count or object counter it is read
# from; README.md maps each one to the end-to-end metric it should move
SETUP_SPANS = {
    "profiles.build_params_s": "profiles.build_params",
    "codes.codebook_s": "codes.codebook",
}
TRIAL_SPANS = {
    "channel.corrupt_s": "channel.corrupt",
    "codec_repeat.encode_s": "codec_repeat.encode",
    "codec_tensor.encode_s": "codec_tensor.encode",
    "ldc_binary.plan_s": "ldc_binary.plan",
    "ldc_binary.smooth_confidence_s": "ldc_binary.smooth_confidence",
    "codes.unique_decode_s": "codes.unique_decode",
    "codes.gf_solve_s": "codes.gf_solve",
    "ldc_binary.advice_decode_s": "ldc_binary.advice_decode",
    "codes.list_decode_s": "codes.list_decode",
    "stream.read_s": "stream.read",
    "stream.state_size_s": "stream.state_size",
    "ldc_large.gen_qlists_s": "ldc_large.gen_qlists",
    "ldc_large.curve_scan_s": "ldc_large.curve_scan",
    "codec_tensor.recurse_s": "codec_tensor.recurse",
    "codec_repeat.decode_other_s": "codec_repeat.decode",
    "codec_tensor.decode_other_s": "codec_tensor.decode",
}
TRIAL_CALLS = {
    "ldc_binary.plan_calls": "ldc_binary.plan",
    "codes.unique_decode_calls": "codes.unique_decode",
    "codes.gf_solve_calls": "codes.gf_solve",
    "codes.list_decode_calls": "codes.list_decode",
    "ldc_large.curve_scan_calls": "ldc_large.curve_scan",
    "codec_tensor.recurse_calls": "codec_tensor.recurse",
}
TRIAL_COUNTS = {  # read off the objects a trial holds
    "channel.positions_changed": "count",
    "stream.symbols_read": "count",
    "stream.symbols_skipped": "count",
    "stream.checkpoints": "count",
    "stream.peak_state_bits": "bits",
    "codec_repeat.copies_used": "count",
    "codec_repeat.settled_after": "count",
    "codec_repeat.advice_failures": "count",
    "codec_tensor.bot_instances": "count",
    "codec_tensor.base_blocks": "count",
    "codec_tensor.level1_nodes": "count",
    "codec_tensor.live_max": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def process_age() -> float:
    """Seconds since this process started, to the kernel clock tick (Linux;
    0 where /proc is missing).  Set-up time counts interpreter start-up too."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def attempt(trials, wl, seed, trial, span=None):
    """A checked trial, or None when it raised or failed a check."""
    try:
        return trials.run_trial(wl, seed, trial, span)
    except Exception:  # a failed operation is counted, and the run goes on
        print(f"trial {trial} failed:", file=sys.stderr)
        traceback.print_exc()
        return None


def trial_counts(wl, t) -> dict:
    """Counters read off the stream, ledger and decoder result of one trial."""
    s = t.stream
    out = dict.fromkeys(TRIAL_COUNTS, 0)
    out["channel.positions_changed"] = t.changed
    out["stream.symbols_read"] = s.total_read
    out["stream.symbols_skipped"] = s.cursor - s.total_read
    if wl.codec == "repeat":
        res = t.result
        out["stream.checkpoints"] = res.ledger.checkpoints
        out["stream.peak_state_bits"] = res.ledger.peak_bits
        out["codec_repeat.copies_used"] = res.copies_used
        out["codec_repeat.settled_after"] = res.settled_after or 0
        out["codec_repeat.advice_failures"] = res.advice_failures
    else:
        diag = t.result[1]
        out["codec_tensor.bot_instances"] = diag["bot_instances"]
        out["codec_tensor.base_blocks"] = diag["base_blocks"]
        out["codec_tensor.level1_nodes"] = diag["level1_nodes"]
        out["codec_tensor.live_max"] = max(diag["live_max"].values())
    return out


def layer_metrics(tracer, n_traced: int, counts: list, overheads: list) -> dict:
    """Per-layer self times and counts, per traced trial (set-up spans per run)."""
    st = tracer.self_times()
    n = max(1, n_traced)

    def per_trial(table: dict, name: str) -> float:
        return sum(v.get(name, 0) for tag, v in table.items() if tag != "setup") / n

    m = {}
    for metric, name in SETUP_SPANS.items():
        m[metric] = (st["setup"].get(name, 0.0), "s")
    for metric, name in TRIAL_SPANS.items():
        m[metric] = (per_trial(st, name), "s")
    for metric, name in TRIAL_CALLS.items():
        m[metric] = (per_trial(tracer.calls, name), "count")
    decodes = per_trial(tracer.calls, "codes.unique_decode")
    m["codes.gf_solve_per_unique_decode"] = (
        per_trial(tracer.calls, "codes.gf_solve") / decodes if decodes else 0.0, "ratio")
    m["codes.list_candidates"] = (per_trial(tracer.counters, "codes.list_candidates"), "count")
    for metric, unit in TRIAL_COUNTS.items():
        m[metric] = (sum(c[metric] for c in counts) / max(1, len(counts)), unit)
    m["trace.overhead_s"] = (statistics.median(overheads) if overheads else 0.0, "s")
    return m


def tail_note(name: str, values: list) -> str:
    """Median plus the highest of p75/p90/p95/p99 with ten samples beyond it."""
    n = len(values)
    note = f"{name}: n={n} median={statistics.median(values):.6f}"
    tails = [p for p in (75, 90, 95, 99) if n * (100 - p) >= 1000]
    if n >= 40 and tails:
        p = tails[-1]
        note += f" p{p}={statistics.quantiles(values, n=100)[p - 1]:.6f}"
    return note


def main(argv=None) -> int:
    args = parse_args(argv)
    before_start = max(0.0, process_age() - (time.perf_counter() - T_START))
    if not (SRC / "streamcode" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trials
    import tracing

    if args.workload not in trials.WORKLOADS:
        print(f"unknown workload {args.workload!r} "
              f"(known: {', '.join(trials.WORKLOADS)})", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer else None
    with tracing.traced(tracer) if tracer else nullcontext():
        wl = trials.load_workload(args.workload, span)
        warm = attempt(trials, wl, args.seed, trials.WARMUP_TRIAL, span)
    setup_s = before_start + time.perf_counter() - T_START
    attempted, failed = 1, int(warm is None)
    del warm

    # only numbers are kept from one trial to the next, so that the peak
    # memory is that of a single trial
    trial_s, decode_s, counts, overheads = [], [], [], []
    start = time.perf_counter()
    trial = 0
    while time.perf_counter() - start < args.seconds:
        t = attempt(trials, wl, args.seed, trial)
        plain_s = None if t is None else t.trial_s
        attempted += 1
        if t is None:
            failed += 1
        else:
            trial_s.append(t.trial_s)
            decode_s.append(t.decode_s)
        del t
        if tracer:
            tracer.tag = trial
            with tracing.traced(tracer):
                tt = attempt(trials, wl, args.seed, trial, tracer.span)
            attempted += 1
            if tt is None:
                failed += 1
            else:
                counts.append(trial_counts(wl, tt))
                if plain_s is not None:
                    overheads.append(tt.trial_s - plain_s)
            del tt
        trial += 1

    if not trial_s:
        print("no trial succeeded", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {trial} trials, "
          f"{failed} of {attempted} operations failed")
    print(tail_note("trial_s", trial_s))
    print(tail_note("decode_s", decode_s))

    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = layer_metrics(tracer, trial, counts, overheads)
    else:
        metrics = {
            "trial_s": (statistics.median(trial_s), "s"),
            "decode_s": (statistics.median(decode_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
