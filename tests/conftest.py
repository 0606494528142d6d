"""Marks every test of the acceptance gate (``test_acceptance.py``) with
``acceptance``, so that ``pytest -m "not acceptance"`` runs the fast suites
alone while plain ``pytest`` still runs everything."""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
