"""The package namespace."""

import gridlinkage


def test_star_import_exports_all():
    namespace = {}
    exec("from gridlinkage import *", namespace)
    names = gridlinkage.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) <= set(namespace)
