"""The fingerprint of every report stays pinned.

`scripts/report_signature.py 40 3` hashes (suite, id, status, statement,
witness) of every check on the paper's table and on 40 seeded mutant
tables (about 1.5 s; the digest was measured under Python 3.11.7).  A
change that is meant to leave the reports alone must leave this digest
alone.  A change that alters reports by design, such as ROADMAP item 1
(a refuted identity reported as a fail), updates the digest here and
records the old and the new digest in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = "5ec1b0f0cf710b02368689aeb3d2671edc9d1afc19cf5116a4b331bc16052e81"


def test_report_signature_is_unchanged(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_signature.py"), "40", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == [DIGEST, "report_signature.json"]
