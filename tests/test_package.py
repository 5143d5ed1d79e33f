"""The package's public names."""

import loopgas


def test_every_exported_name_resolves_once():
    names = loopgas.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(loopgas, n)] == []
