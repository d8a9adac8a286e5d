"""The package's public surface."""
import designforge


def test_star_import_matches_all():
    # an __all__ entry left behind when its definition is deleted breaks `import *`
    namespace = {}
    exec("from designforge import *", namespace)
    for name in designforge.__all__:
        assert hasattr(designforge, name), name
        assert name in namespace, name
