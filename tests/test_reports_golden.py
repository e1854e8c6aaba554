"""Golden digests of whole run reports.

Each digest is the SHA-256 of the sorted-key JSON of one `run_experiment`
report.  It covers parameter construction, encoding, the channel and every
RNG draw of both decoders, so any refactor that reorders a draw or changes a
decoded value shows up here as a different digest.  The burst run sends
outer words with nonzero syndromes through GMD's erasure sweep, which the
uniform runs never reach.  The depth-3 tensor run is the only decode deeper
than 2, with a level of per-instance nodes between the root and level 1; the
tensor-toy run at rho 1/10 has several ⊥ instances per trial, so it pins the
early-⊥ exit and the ⊥ vote coins.
"""

import hashlib
import json

import pytest

from streamcode.cli import _jsonable, run_experiment
from streamcode.profiles import load_profile

# (test id, profile, profile overrides, trials, seed, digest)
GOLDEN = [
    ("repeat-unit", "repeat-unit", {}, 3, 5,
     "d9e634b26561a249a06cc4421e4ffc08530fc8fe5794c1bf33287041f71ce914"),
    ("tensor-small", "tensor-small", {}, 5, 3,
     "20501df4562d42aecc4743427c66c5723eaf8399af02d2dde34cbbcadf8eccbf"),
    ("tensor-toy", "tensor-toy", {}, 3, 0,
     "1dd0fc14c7d6c05313110cbce63f283e4a79830adab3d3772db86ae37be90e22"),
    ("repeat-toy", "repeat-toy", {}, 1, 0,
     "df2f5e9febf073d83d9b259d9648257b267b7dae258e7671169fa982c13b9320"),
    ("repeat-toy-burst", "repeat-toy", {"strategy": "burst"}, 1, 0,
     "169ee3a3ee0ddecc927e0818fb43520b505ed69ab3e135a1bf338596e2c3a882"),
    ("tensor-small-depth3", "tensor-small",
     {"override.depth": "3", "override.n": "64", "rho": "1/20"}, 3, 0,
     "00ddad004454dfac0a8b44ba718993279865f5bc3c1e51ade7aba23d6459048d"),
    ("tensor-toy-rho10", "tensor-toy", {"rho": "1/10"}, 4, 0,
     "e29e68f05e217f37b2ddabbc1ea1234f7eae4f657d3b04683292fce1c13e5d57"),
]


@pytest.mark.parametrize("profile,overrides,trials,seed,digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_report_digest(profile, overrides, trials, seed, digest):
    prof = load_profile(profile)
    prof.update(overrides)
    report = run_experiment(prof, trials=trials, seed=seed)
    text = json.dumps(_jsonable(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
