"""The package's public export list."""

import hflcheck


def test_every_exported_name_resolves():
    assert len(set(hflcheck.__all__)) == len(hflcheck.__all__)
    for name in hflcheck.__all__:
        assert getattr(hflcheck, name, None) is not None, name
