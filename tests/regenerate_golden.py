"""Rewrite the golden transcripts under tests/golden/ from the current code.

    PYTHONPATH=src python tests/regenerate_golden.py

Run it only for a deliberate output change, and commit the resulting diff of
tests/golden/ with the reason for it.
"""

import os
import tempfile

from test_golden import CASES, GOLDEN, transcript


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # scaling writes its CSV to the relative --out
        try:
            for name, argv in CASES.items():
                for suffix, output in transcript(argv).items():
                    (GOLDEN / f"{name}.{suffix}").write_bytes(output)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    regenerate()
