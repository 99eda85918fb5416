"""Every bundled artifact and Fock Hamiltonian against its recorded hash.

scripts/bundled_artifacts.py runs each CLI suite on the bundled
configurations in this process and hashes what it writes
(tests/golden/bundled.sha256), and hashes the Fock H of each of its
build cases at four interaction scales (tests/golden/fock_h.sha256).  A
change that moves an artifact or an H on purpose regenerates both files
with `python3 scripts/bundled_artifacts.py --golden` and lists what
moved.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" \
    / "bundled_artifacts.py"


@pytest.fixture(scope="module")
def bundled():
    spec = importlib.util.spec_from_file_location("bundled_artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(bundled, path, got):
    """Fail naming every moved, missing or new entry of the golden file at
    path against the digests got."""
    recorded, golden = bundled.read_golden(path)
    moved = sorted(name for name in golden.keys() & got.keys()
                   if golden[name] != got[name])
    missing = sorted(golden.keys() - got.keys())
    new = sorted(got.keys() - golden.keys())
    if not (moved or missing or new):
        return
    running = bundled.environment()
    # other versions may move the last bits of the solves
    note = ("" if recorded == running else
            f"; the hashes were recorded under {recorded}, this run has "
            f"{running}: regenerate them on the parent commit with "
            f"`python3 scripts/bundled_artifacts.py --golden` before "
            f"comparing")
    pytest.fail(f"moved: {moved}; missing: {missing}; new: {new}{note}")


def test_bundled_artifacts_match_golden_hashes(bundled, tmp_path):
    assert bundled.write_all(tmp_path) == []
    _compare(bundled, bundled.GOLDEN, bundled.digests(tmp_path))


def test_fock_hamiltonians_match_golden_hashes(bundled):
    _compare(bundled, bundled.FOCK_GOLDEN, bundled.fock_digests())


def test_compare_reports_numbers_and_tokens(bundled, tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, energy, verdict in [(old, "-0.0100", "PASS"),
                                  (new, "-0.0101", "PASS")]:
        (root / "far40").mkdir(parents=True)
        (root / "far40" / "fit.csv").write_text(f"g,energy\n0.4,{energy}\n")
        (root / "stdout.txt").write_text(f"{verdict} c2=1.5e-3 n_max=1\n")
    # digits inside names (far40, c2) are text, not numbers, and text
    # between any two numbers counts
    assert bundled.compare_text("c2=1.5 far40", "c2=1.5 far40") \
        == (0.0, 0.0, [])
    assert bundled.compare_text("g=1 a=2 b=3", "g=1 a=2 c=4") \
        == (0.25, 1.0, [(" b=", " c=")])
    assert bundled.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "| far40/fit.csv | 0.0099 | 0.0001 |  |" in out
    assert "stdout.txt" not in out
    (new / "stdout.txt").write_text("FAIL c2=1.5e-3 n_max=1\n")
    assert bundled.compare(old, new) == 1
    assert "| stdout.txt | 0 | 0 | 'PASS c2=' -> 'FAIL c2=' |" \
        in capsys.readouterr().out
    (new / "extra.txt").write_text("1\n")
    assert bundled.compare(old, new) == 1
    assert "| extra.txt | | | in one tree only |" in capsys.readouterr().out
