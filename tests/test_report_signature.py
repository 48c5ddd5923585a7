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

from fano22.cli import main


def _mutate(monkeypatch, tmp_path, capsys, count: int, seed: int) -> tuple[int, list[str]]:
    monkeypatch.chdir(tmp_path)
    code = main(["mutate", str(count), str(seed)])
    return code, capsys.readouterr().out.splitlines()


def test_report_signature_is_unchanged(monkeypatch, tmp_path, capsys):
    code, lines = _mutate(monkeypatch, tmp_path, capsys, 120, 3)
    assert lines[-1] == (
        "97d6dc190ec428fdfb32f4a5ecbec46baeb3afc966f65fb54d7ff364a7c22732"
        "  report_signature.json")
    assert code == 0


def test_report_signature_of_the_seed_7_campaign_is_unchanged(monkeypatch, tmp_path, capsys):
    code, lines = _mutate(monkeypatch, tmp_path, capsys, 300, 7)
    assert lines[-1] == (
        "039887b2edaea11f0fee6aeeef98ff2daf19bb4bb0aaf5463e5978251bc1716e"
        "  report_signature.json")
    assert lines[-2].startswith("killed_by_fail 176, error_only 123, missed 1 of 300 ")
    assert "#176 psi.w0: NOT DETECTED" in lines
    assert len(lines) == 302
    assert code == 1
