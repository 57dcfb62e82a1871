import collapsim


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        # Includes the quadrature names, which load on first access.
        missing = [name for name in collapsim.__all__ if not hasattr(collapsim, name)]
        assert missing == []

    def test_star_import(self):
        namespace = {}
        exec("from collapsim import *", namespace)
        assert set(collapsim.__all__) <= set(namespace)
