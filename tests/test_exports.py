import dconvex


def test_every_export_resolves():
    for name in dconvex.__all__:
        assert getattr(dconvex, name, None) is not None, name


def test_star_import():
    namespace = {}
    exec("from dconvex import *", namespace)
    assert set(dconvex.__all__) <= set(namespace)
