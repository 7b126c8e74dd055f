"""The package's export list names only what the package defines."""

import multising


def test_every_exported_name_resolves_through_star_import():
    namespace = {}
    exec("from multising import *", namespace)
    missing = [name for name in multising.__all__ if name not in namespace]
    assert not missing
    assert len(set(multising.__all__)) == len(multising.__all__)
