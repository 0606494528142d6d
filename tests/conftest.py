"""Marks every test of the acceptance gate (``test_acceptance.py``) with
``acceptance``, so that ``pytest -m "not acceptance"`` runs the fast suites
alone while plain ``pytest`` still runs everything, and ends every run of
the gate with its ``criterion N: PASS|FAIL - ...`` lines, which pytest
would otherwise capture and hide under ``-q``."""

import pytest

GATE = "test_acceptance.py"
criteria = []  # the gate's criterion lines, in the order its tests ran


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == GATE:
            item.add_marker(pytest.mark.acceptance)


def pytest_runtest_logreport(report):
    if report.when == "call" and report.nodeid.split("::")[0].endswith(GATE):
        criteria.extend(line for line in report.capstdout.splitlines()
                        if line.startswith("criterion "))


@pytest.hookimpl(trylast=True)  # after the durations, just before the totals
def pytest_terminal_summary(terminalreporter):
    if criteria:
        terminalreporter.section("acceptance criteria")
        for line in criteria:
            terminalreporter.write_line(line)
