"""The fingerprint of every report stays pinned.

`fano22 mutate N SEED` hashes (suite, id, status, statement, witness) of
every check on the paper's table and on N seeded mutant tables, and
classifies each mutant as killed by a fail, killed only by an error, or
missed.  Two campaigns are pinned: 120 mutants of seed 3 (about 1 s),
whose first 40 tables are the 40 of `fano22 mutate 40 3` (the same
seeded stream), and 300 mutants of seed 7 (about 3 s), the campaign the
ROADMAP measures, which reaches more mutants of the morphism and of the
reparametrization.  The digests were measured under Python 3.11.7.  A
change that is meant to leave the reports alone must leave these digests
and counts alone.  A change that alters reports by design, such as
ROADMAP item 1 (a refuted identity reported as a fail), updates the
digests and the seed 7 counts here together, and records the old and the
new digests in CHANGES.md.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import fano22
from fano22.cli import main
from fano22.constants import REG_F3, REG_Q, REG_W
from fano22.parsing import ParseError, parse
from fano22.poly import format_poly

#: the registry each suite's polynomial witnesses are written over
WITNESS_REGISTRY = {"w-module": REG_W, "borel-line": REG_W, "quadric-involution": REG_Q}


def _mutate(monkeypatch, tmp_path, capsys, count: int, seed: int) -> tuple[int, list[str]]:
    monkeypatch.chdir(tmp_path)
    code = main(["mutate", str(count), str(seed)])
    return code, capsys.readouterr().out.splitlines()


def test_report_signature_is_unchanged(monkeypatch, tmp_path, capsys):
    code, lines = _mutate(monkeypatch, tmp_path, capsys, 120, 3)
    assert lines[-1] == (
        "42deff88a37a69bf4d9e37528cd68e7563106a41128b52ebd4fa3ec40cf59ef2"
        "  report_signature.json")
    assert code == 0


def test_report_signature_of_the_seed_7_campaign_is_unchanged(monkeypatch, tmp_path, capsys):
    code, lines = _mutate(monkeypatch, tmp_path, capsys, 300, 7)
    assert lines[-1] == (
        "43ceb579ad65a18966daaafa2bab0bcc6a67184c0d1a4e73fe506f952ad7ce20"
        "  report_signature.json")
    assert lines[-2].startswith("killed_by_fail 176, error_only 123, missed 1 of 300 ")
    assert "#176 psi.w0: NOT DETECTED" in lines
    assert len(lines) == 302
    assert code == 1


def test_every_polynomial_witness_of_a_campaign_reads_back(monkeypatch, tmp_path, capsys):
    """Each witness that parses over its suite's registry prints back as itself."""
    start = time.perf_counter()
    _mutate(monkeypatch, tmp_path, capsys, 120, 3)
    tables = json.loads((tmp_path / "report_signature.json").read_text())["tables"]
    read_back = 0
    for table in tables:
        for suite, _, _, _, witness in table["checks"]:
            if witness is None:
                continue
            try:
                p = parse(witness, WITNESS_REGISTRY.get(suite, REG_F3))
            except ParseError:
                continue
            assert format_poly(p) == witness
            read_back += 1
    assert read_back > 0
    assert time.perf_counter() - start < 2


def test_the_digest_does_not_depend_on_the_hash_seed(tmp_path):
    lines = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=str(Path(fano22.__file__).parents[1]),
                   PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-m", "fano22.cli", "mutate", "40", "3"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
        lines.append(out.stdout.splitlines()[-1])
    assert lines[0].endswith("  report_signature.json") and lines[0] == lines[1]
