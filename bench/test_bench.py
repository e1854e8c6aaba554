"""Tests of the benchmark itself: a quick pass over the small profiles through
the same trial code, and one bad output per checker that it must reject.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import trials  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def repeat_unit():
    return trials.make_workload("unit", "repeat-unit", "uniform", "1/20")


@pytest.fixture(scope="module")
def tensor_small():
    return trials.make_workload("small", "tensor-small", "uniform", "0")


def test_quick_pass_repeat_unit(repeat_unit):
    for trial in range(3):
        t = trials.run_trial(repeat_unit, 0, trial)
        assert 0 < t.decode_s <= t.trial_s
        assert t.changed <= repeat_unit.rho_num * len(t.stream) // repeat_unit.rho_den


def test_quick_pass_tensor_small(tensor_small):
    for trial in range(3):
        t = trials.run_trial(tensor_small, 0, trial)
        assert t.changed == 0  # tensor-small runs at rho = 0
        assert t.stream.total_read == tensor_small.params.code_bits


def test_traced_trial_counts_layers(repeat_unit):
    tracer = tracing.Tracer()
    tracer.tag = 0
    with tracing.traced(tracer):
        trials.run_trial(repeat_unit, 0, 0, tracer.span)
    calls = tracer.calls[0]
    assert calls["codes.unique_decode"] > 0 and calls["ldc_binary.plan"] > 0
    self_s = tracer.self_times()[0]
    decode = next(s for s in tracer.spans if s[3] == "codec_repeat.decode")
    wall = max(s[5] for s in tracer.spans) - min(s[4] for s in tracer.spans)
    assert sum(self_s.values()) <= wall / 1e9
    assert self_s["codec_repeat.decode"] <= (decode[5] - decode[4]) / 1e9
    # the originals are back once the block ends
    assert not any(hasattr(getattr(ns, attr), "__wrapped__")
                   for ns, attr, _, _ in tracing.WRAPPED)


def test_flipped_message_bit_rejected(repeat_unit):
    x, _, _ = trials.draw_inputs(repeat_unit, 0, 0)
    res = trials.run_trial(repeat_unit, 0, 0).result
    trials.check_repeat_decode(repeat_unit.params, x, res)
    res.message[5] ^= 1
    with pytest.raises(trials.CheckFailed, match="differs"):
        trials.check_repeat_decode(repeat_unit.params, x, res)


def test_wrong_functional_bit_rejected(tensor_small):
    x, _, ell = trials.draw_inputs(tensor_small, 0, 1)
    bit, diag = trials.run_trial(tensor_small, 0, 1).result
    trials.check_tensor_decode(tensor_small.params, x, ell, bit, diag)
    with pytest.raises(trials.CheckFailed, match="functional bit"):
        trials.check_tensor_decode(tensor_small.params, x, ell, 1 - bit, diag)


def test_live_count_over_cap_rejected(tensor_small):
    x, _, ell = trials.draw_inputs(tensor_small, 0, 1)
    bit, diag = trials.run_trial(tensor_small, 0, 1).result
    p = tensor_small.params
    cap = -(-3 * p.r * p.Q * p.Q // p.R)
    diag = dict(diag, live_max={1: cap + 1})
    with pytest.raises(trials.CheckFailed, match="over cap"):
        trials.check_tensor_decode(p, x, ell, bit, diag)


def test_corruption_past_budget_rejected():
    clean = np.zeros(100, dtype=np.int32)
    bad = clean.copy()
    bad[:5] = 1                                   # floor(100/20) = 5: allowed
    assert trials.check_channel(clean, clean.copy(), bad, 1, 20) == 5
    bad[5] = 1
    with pytest.raises(trials.CheckFailed, match="budget 5"):
        trials.check_channel(clean, clean.copy(), bad, 1, 20)
    with pytest.raises(trials.CheckFailed, match="in place"):
        trials.check_channel(clean, bad, bad, 1, 20)


def test_nonlinear_encoding_rejected(repeat_unit):
    x, y, _ = trials.draw_inputs(repeat_unit, 0, 0)
    word = trials.codec_repeat.enc_repeat(repeat_unit.params, x)
    trials.check_repeat_encoding(repeat_unit.params, x, y, word)
    word[0] ^= 1
    with pytest.raises(trials.CheckFailed):
        trials.check_repeat_encoding(repeat_unit.params, x, y, word)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tensor-uniform",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=120, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_unknown_workload_fails_without_result():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope",
         "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
