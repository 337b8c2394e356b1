import types

import psokit


def test_every_exported_name_resolves():
    for name in psokit.__all__:
        assert hasattr(psokit, name), name


def test_public_attributes_are_exactly_the_exports():
    public = {name for name, value in vars(psokit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(psokit.__all__) - {"__version__"}
    assert len(psokit.__all__) == len(set(psokit.__all__))
