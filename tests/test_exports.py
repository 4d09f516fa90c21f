"""The package's public names: `__all__` and what `__init__` binds."""

import types

import accel_predict


def test_every_listed_name_resolves():
    names = accel_predict.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(accel_predict, n)] == []


def test_nothing_public_is_unlisted():
    public = {
        name
        for name, value in vars(accel_predict).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(accel_predict.__all__)) == []
