import pytest
from hypothesis import HealthCheck, settings

from dconvex import classes

settings.register_profile(
    "dconvex",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dconvex")


@pytest.fixture
def pair_scans(monkeypatch):
    """The list of calls of the recognizers' pair scanner, each its
    argument tuple (view, kind), as they happen during the test."""
    calls = []
    scan = classes._scan_pairs
    monkeypatch.setattr(classes, "_scan_pairs", lambda *args: calls.append(args) or scan(*args))
    return calls


@pytest.fixture
def move_tables(monkeypatch):
    """The list of per-pair move tables built (``classes._moves``), each
    its argument tuple, as they happen during the test: a scan read by
    rows builds none."""
    calls = []
    moves = classes._moves
    monkeypatch.setattr(classes, "_moves", lambda *args: calls.append(args) or moves(*args))
    return calls
