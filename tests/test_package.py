import patrm


def test_star_import_and_all_names_resolve():
    namespace = {}
    exec("from patrm import *", namespace)
    missing = [name for name in patrm.__all__ if name not in namespace]
    assert missing == []
    assert all(getattr(patrm, name) is namespace[name] for name in patrm.__all__)
    assert len(set(patrm.__all__)) == len(patrm.__all__)
