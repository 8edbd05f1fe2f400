"""The fingerprint of ``tests/fingerprint.py`` on this checkout's ``src``, pinned.

A change to any answer or refusal on the fingerprint's corpus fails this test
until the line below is pinned again, with the reason recorded in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

FINGERPRINT = "17453 278b5832a360502fe1812460281a39433984b8ee9ee0541d98b401c4ea99e733"


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
