import types

import saddlereg


def test_all_lists_exactly_the_imported_public_names():
    names = saddlereg.__all__
    assert len(names) == len(set(names))
    # raises when a name in __all__ does not resolve, e.g. a deleted function left there
    exec("from saddlereg import *", {})
    imported = {name for name, obj in vars(saddlereg).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert set(names) == imported
