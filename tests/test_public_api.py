"""The package's public surface: every name in ``ternact.__all__`` resolves,
so an export left behind by a deletion fails here rather than for a user."""

import ternact


def test_every_exported_name_resolves():
    assert [name for name in ternact.__all__ if not hasattr(ternact, name)] == []
    assert len(set(ternact.__all__)) == len(ternact.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from ternact import *", namespace)
    assert set(ternact.__all__) <= set(namespace)
