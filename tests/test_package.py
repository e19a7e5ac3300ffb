"""The package's export list."""

import types

import topareto


def test_all_is_the_public_api():
    names = topareto.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(topareto, name, None) is not None, name
    # every public attribute that is not a submodule is exported: no stray
    # import and no stale name
    public = {name for name, value in vars(topareto).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
