"""Golden digests of whole run reports.

Each digest is the SHA-256 of the sorted-key JSON of one `run_experiment`
report.  It covers parameter construction, encoding, the channel and every
RNG draw of both decoders, so any refactor that reorders a draw or changes a
decoded value shows up here as a different digest.
"""

import hashlib
import json

import pytest

from streamcode.cli import _jsonable, run_experiment
from streamcode.profiles import load_profile

GOLDEN = [
    ("repeat-unit", 3, 5,
     "d9e634b26561a249a06cc4421e4ffc08530fc8fe5794c1bf33287041f71ce914"),
    ("tensor-small", 5, 3,
     "20501df4562d42aecc4743427c66c5723eaf8399af02d2dde34cbbcadf8eccbf"),
    ("tensor-toy", 3, 0,
     "1dd0fc14c7d6c05313110cbce63f283e4a79830adab3d3772db86ae37be90e22"),
    ("repeat-toy", 1, 0,
     "df2f5e9febf073d83d9b259d9648257b267b7dae258e7671169fa982c13b9320"),
]


@pytest.mark.parametrize("profile,trials,seed,digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_report_digest(profile, trials, seed, digest):
    report = run_experiment(load_profile(profile), trials=trials, seed=seed)
    text = json.dumps(_jsonable(report), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
