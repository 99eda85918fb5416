"""Every bundled artifact against its hash in tests/golden/bundled.sha256.

scripts/bundled_artifacts.py runs each CLI suite on the bundled
configurations in this process and hashes what it writes.  A change that
moves an artifact on purpose regenerates the golden file with
`python3 scripts/bundled_artifacts.py --golden` and lists what moved.
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


def test_bundled_artifacts_match_golden_hashes(bundled, tmp_path):
    recorded, golden = bundled.read_golden()
    assert bundled.write_all(tmp_path) == []
    got = bundled.digests(tmp_path)
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
