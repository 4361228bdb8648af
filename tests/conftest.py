from functools import partial

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
def predicate_calls(monkeypatch):
    """The list of calls of the ordered kinds' predicates (``on_codes`` of
    each ``classes._Pair``), each its argument tuple, as they happen during
    the test: a scan of a member reads its rows alone and calls none, and a
    scan of a non-member calls one, for the step its witness records."""
    calls = []
    for kind, axiom in classes._AXIOMS.items():
        if isinstance(axiom.violated, classes._Pair):
            read = axiom.violated.on_codes
            counted = partial(lambda read, *args: calls.append(args) or read(*args), read)
            monkeypatch.setitem(classes._AXIOMS, kind, axiom._replace(violated=axiom.violated._replace(on_codes=counted)))
    return calls
