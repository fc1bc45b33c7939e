"""The package's supported Python surface is cvdiscord.__all__."""

import inspect

import cvdiscord


def test_all_names_the_imported_api_and_no_module():
    assert not [name for name in cvdiscord.__all__
                if inspect.ismodule(getattr(cvdiscord, name))]
    assert all(hasattr(cvdiscord, name) for name in cvdiscord.__all__)
    namespace = {}
    exec("from cvdiscord import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(cvdiscord.__all__)
