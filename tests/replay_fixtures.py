"""Replay every fixtures/manifest.json case through `cartanlim.cli.main`.

Standard library only, so it runs on any supported interpreter without
pytest:

    python tests/replay_fixtures.py

Each case's stdout and exit code are compared byte for byte with the
committed ones; every differing case is named, and the exit status is 1 if
any case differs, else 0.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
sys.path.insert(0, str(FIXTURES.parent / "src"))

from cartanlim.cli import main  # noqa: E402


def replay(case: dict) -> list[str]:
    """The differences between one case's run and its committed output."""
    argv = [str(FIXTURES / arg) if arg.endswith(".json") and (FIXTURES / arg).exists() else arg for arg in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    expected = (FIXTURES / case["expected"]).read_bytes()
    problems = []
    if code != case["exit_code"]:
        problems.append(f"exit code {code}, expected {case['exit_code']}")
    if out.getvalue().encode("utf-8") != expected:
        problems.append("stdout differs from " + case["expected"])
    return problems


def run() -> int:
    cases = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))["cases"]
    failed = 0
    for case in cases:
        problems = replay(case)
        failed += bool(problems)
        for problem in problems:
            print(f"{case['name']}: {problem}")
    print(f"{len(cases) - failed} of {len(cases)} cases replayed byte for byte on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
