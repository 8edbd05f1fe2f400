"""The fingerprint of ``tests/fingerprint.py`` on this checkout's ``src``, pinned.

A change to any answer or refusal on the fingerprint's corpus fails this test
until the line below is pinned again, with the reason recorded in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

FINGERPRINT = "21039 4e329bd7f8738c33ae287a84cb0cf92c5e256c3286357a38e59ed7c667c1097e"


def test_corpus_fingerprint_is_pinned():
    tests = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, str(tests / "fingerprint.py"), str(tests.parent / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == FINGERPRINT + "\n"
