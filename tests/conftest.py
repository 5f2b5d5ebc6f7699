"""Shared pytest plumbing.

test_acceptance.py records one verdict per acceptance criterion through the
`acceptance_report` fixture; the terminal summary prints them as PASS/FAIL
lines so a full run ends with a per-criterion scoreboard.
"""

import os
from pathlib import Path

import pytest

_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture
def src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, so that a
    subprocess imports the package under test whether or not it is
    installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + os.pathsep + path if path else src)


@pytest.fixture
def acceptance_report():
    def record(criterion: str, passed: bool, detail: str = ""):
        _RESULTS.append((criterion, passed, detail))
        assert passed, f"acceptance criterion {criterion} failed: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for criterion, passed, detail in _RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"criterion {criterion}: {status}"
        if detail:
            line += f" ({detail})"
        tw.write_line(line)
