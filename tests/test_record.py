"""The record class decorator and the lazily loaded package namespace."""

import sys
from functools import cached_property

import pytest

import pointedcat
from pointedcat.record import record


@record
class Point:
    x: int
    y: int = 0
    label: str = "p"

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be non-negative")

    @cached_property
    def norm(self):
        return self.x * self.x + self.y * self.y


@record
class Pair:
    x: int
    y: int = 0
    label: str = "p"


class TestRecord:
    def test_positional_keyword_and_default_arguments(self):
        assert Point(1, 2, "q") == Point(x=1, y=2, label="q") == Point(1, label="q", y=2)
        p = Point(3)
        assert (p.x, p.y, p.label) == (3, 0, "p")

    def test_equality_and_hash_by_field_values(self):
        assert Point(1, 2) == Point(1, 2)
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert Point(1, 2) != Point(2, 1)
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
        # another record class, or a tuple, with the same values is not equal
        assert Point(1, 2) != Pair(1, 2)
        assert Point(1, 2) != (1, 2, "p")

    def test_repr(self):
        assert repr(Point(1, 2)) == "Point(x=1, y=2, label='p')"

    def test_post_init_rejects(self):
        with pytest.raises(ValueError, match="non-negative"):
            Point(-1)

    def test_assignment_and_deletion_raise(self):
        p = Point(1)
        for action in (lambda: setattr(p, "x", 2), lambda: setattr(p, "z", 2),
                       lambda: delattr(p, "x")):
            with pytest.raises(AttributeError):
                action()
        assert p == Point(1)

    def test_cached_property_is_kept_out_of_equality(self):
        p = Point(3, 4)
        assert p.norm == 25
        assert vars(p)["norm"] == 25
        assert p == Point(3, 4) and hash(p) == hash(Point(3, 4))

    @pytest.mark.parametrize("call, message", [
        (lambda: Point(1, 2, "q", 4), "positional arguments but 5 were given"),
        (lambda: Point(), "missing 1 required positional argument: 'x'"),
        (lambda: Point(1, z=2), "unexpected keyword argument 'z'"),
        (lambda: Point(1, x=2), "multiple values for argument 'x'"),
    ])
    def test_bad_arguments_raise_type_error(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()

    def test_bad_declarations_raise_type_error(self):
        with pytest.raises(TypeError, match="follows one with a default"):
            record(type("Bad", (), {"__annotations__": {"a": int, "b": int}, "a": 0}))
        with pytest.raises(TypeError, match="must differ from 'self' and"):
            record(type("Spare", (), {"__annotations__": {"_spare1": int}}))
        with pytest.raises(TypeError, match="1 to 7 fields"):
            record(type("Wide", (), {"__annotations__": dict.fromkeys("abcdefgh", int)}))


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
