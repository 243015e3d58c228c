"""Every artifact of one small fixed gen -> fit -> deform -> eval chain against
the SHA-256 digests recorded for this NumPy and BLAS build and the CPU kernels
they run (so it also runs under OPENBLAS_CORETYPE=Haswell, against that
entry); a key with no entry skips, naming the key.

A change that moves bits, on purpose or not, fails here; tools/record_hashes.py
rerecords the digests when the move is meant.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import record_hashes  # noqa: E402


def test_pipeline_artifacts_match_the_recorded_hashes(tmp_path):
    record_hashes.run_chain(tmp_path)
    key = record_hashes.build_key(tmp_path)
    recorded = json.loads(record_hashes.HASHES.read_text())
    if key not in recorded:
        pytest.skip(f"no pipeline hashes recorded for {key}; "
                    "tools/record_hashes.py records them")
    assert record_hashes.moved(record_hashes.digests(tmp_path), recorded[key]) == []
