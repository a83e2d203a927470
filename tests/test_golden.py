"""Evidence permanence: pinned digests of ``--deterministic-seed`` evidence.

``tests/golden/`` holds test-only RSA keys and the hotspot scenario's agent
configs.  The SHA-256 of each record file was computed once and pinned here,
so any change to the evidence bytes fails this test.
"""

import hashlib
from pathlib import Path

import pytest

from ssla.cli import EXIT_AGREED, main

GOLDEN = Path(__file__).resolve().parent / "golden"

RECORD_SHA256 = {
    7: "c1cc7d3a7996580c91e581ae0bc45c6e73c733c153ce03c12d62fade06e14d52",
    101: "9f4578bb9d1744a09c62cf466ea31c31390409afffa9955433e2638228862422",
}


@pytest.mark.parametrize("seed", sorted(RECORD_SHA256))
def test_deterministic_evidence_matches_golden_digest(tmp_path, seed):
    code = main([
        "negotiate",
        "--user-config", str(GOLDEN / "user_config.json"),
        "--sp-config", str(GOLDEN / "sp_config.json"),
        "--out", str(tmp_path),
        "--deterministic-seed", str(seed),
    ])
    assert code == EXIT_AGREED
    for name in ("user_record.json", "sp_record.json"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == RECORD_SHA256[seed], name
