"""The lazily loaded package namespace."""

import sys

import pytest

import pointedcat


class TestNamespace:
    def test_every_exported_name_is_its_submodule_object(self):
        assert len(pointedcat.__all__) == 24
        for name in pointedcat.__all__:
            value = getattr(pointedcat, name)
            assert getattr(sys.modules[value.__module__], name) is value
            assert value.__module__.startswith("pointedcat.")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            pointedcat.missing
        # names no command, demo or README imports stay in their submodules
        for name in ("GramMatrix", "FramedLink", "GaussData", "RelationCheck", "RelationReport",
                     "ModularClass", "discriminant_group", "quantum_dimensions"):
            assert not hasattr(pointedcat, name)
