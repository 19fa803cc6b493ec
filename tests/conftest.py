"""Fixtures shared by the test packages."""

import pytest

from tests.chaos import install


@pytest.fixture
def chaos(monkeypatch):
    """Fault injection for one test (:mod:`tests.chaos`): faults nothing
    until the test calls ``chaos.set(SPEC)``."""
    return install(monkeypatch.setattr)
