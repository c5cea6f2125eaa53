import types

import evholo

#: The size of the public API; a change to it should be a deliberate one.
PUBLIC_NAMES = 66


def test_all_names_every_public_name_once():
    names = evholo.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(evholo, name) for name in names)
    public = {name for name, value in vars(evholo).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
    assert len(names) == PUBLIC_NAMES
