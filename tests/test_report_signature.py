"""The fingerprint of every report stays pinned.

`scripts/report_signature.py N SEED` hashes (suite, id, status,
statement, witness) of every check on the paper's table and on N seeded
mutant tables.  Two campaigns are pinned: 120 mutants of seed 3 (about
3 s), whose first 40 tables are the 40 of `report_signature.py 40 3`
(the same seeded stream), and 300 mutants of seed 7 (about 5 s), the
campaign the ROADMAP measures, which reaches more mutants of the
morphism and of the reparametrization.  The digests were measured under
Python 3.11.7.  A change that is meant to leave the reports alone must
leave these digests alone.  A change that alters reports by design,
such as ROADMAP item 1 (a refuted identity reported as a fail), updates
the digests here and records the old and the new digests in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _signature(tmp_path, count: int, seed: int) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_signature.py"), str(count), str(seed)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    ).stdout.split()


def test_report_signature_is_unchanged(tmp_path):
    assert _signature(tmp_path, 120, 3) == [
        "97d6dc190ec428fdfb32f4a5ecbec46baeb3afc966f65fb54d7ff364a7c22732",
        "report_signature.json"]


def test_report_signature_of_the_seed_7_campaign_is_unchanged(tmp_path):
    assert _signature(tmp_path, 300, 7) == [
        "039887b2edaea11f0fee6aeeef98ff2daf19bb4bb0aaf5463e5978251bc1716e",
        "report_signature.json"]
