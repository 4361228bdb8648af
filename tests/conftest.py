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
    """The list of calls of the recognizers' two pair scanners, each an
    argument tuple, as they happen during the test."""
    calls = []
    for name in ("_scan_pairs", "_scan_ordered"):
        scan = getattr(classes, name)
        monkeypatch.setattr(classes, name, lambda *args, scan=scan: calls.append(args) or scan(*args))
    return calls
