"""Shared fixtures for the whole suite."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the telemetry ledger at a per-test temporary file and clear
    the behaviour switches a caller's shell may export.

    Many tests drive ``repro.cli.main`` in-process from the repository
    working directory; without this, every such call would append to a
    real ``.repro/ledger.sqlite`` in the source tree.  Tests that need
    the ledger or the warm pool disabled set the switch themselves.
    """
    monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "ledger.sqlite"))
    monkeypatch.delenv("REPRO_LEDGER_DISABLE", raising=False)
    monkeypatch.delenv("REPRO_POOL_DISABLE", raising=False)
