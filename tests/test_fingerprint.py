"""The fingerprint of ``tests/fingerprint.py`` on this checkout's ``src``, pinned.

A change to any answer or refusal on the fingerprint's corpus fails this test
until the line below is pinned again, with the reason recorded in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

FINGERPRINT = "20199 e6f6b08e1cfba6c4b09c8cba83395dd52d4b87e9b35172b4371b3ada6c9ed34e"


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
