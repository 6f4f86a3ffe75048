"""The observable results pinned as digests: ``scripts/same_results.py`` must
print exactly these lines.  A change that alters a result on purpose updates
the line here and says which one in CHANGES.md."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = """\
table: 2 items, sha256 8ac4b01e9cfdc405
verdicts: 17 items, sha256 1d6e279aafbebcc3
search: 3 items, sha256 9488d310d8c839b1
check_case: 192 items, sha256 584cda162b24bed1
kernel: 315 items, sha256 9382ca425cefaebf
witness: 910 items, sha256 c77c364b33dcc869
lattice: 48 items, sha256 fe5556fd52ec23c6
kronecker: 173 items, sha256 5036a7c68354daa9
hilbert: 500 items, sha256 1ccdb5745dd49ff9
passes: 22652 items, sha256 ca3e821320669a8f
"""


def test_same_results_prints_the_recorded_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_results.py")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == DIGESTS
