"""Immutable record classes, built without generating source code.

``@record`` turns a class whose body annotates its fields, with optional
trailing defaults, into a frozen value type:

* a positional-or-keyword constructor with those defaults, which then calls
  ``__post_init__`` when the class defines one;
* equality and hashing by the tuple of field values, and a field-by-field
  repr;
* AttributeError on assignment or deletion. functools.cached_property still
  works, because it writes to the instance ``__dict__`` directly.

The constructor is one precompiled template whose parameters are renamed to
the field names (``CodeType.replace``), so Python's own argument binding
supplies the keywords, the defaults and the TypeErrors, and no source text is
compiled per class as with dataclasses.
"""

from itertools import repeat
from operator import attrgetter
from types import FunctionType

_setattr = object.__setattr__


def _init(self, f0, f1, f2, f3, f4, f5, f6):
    # record() renames f0.. to the field names and makes the unused ones
    # keyword-only with default None; map stops after the last field, and
    # any() runs it through, since object.__setattr__ returns None.
    any(map(_setattr, repeat(self), self._fields, (f0, f1, f2, f3, f4, f5, f6)))
    self.__post_init__()


_SLOTS = _init.__code__.co_argcount - 1


def _no_post_init(self):
    pass


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._values(self) == other._values(other)


def _hash(self):
    return hash(self._values(self))


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a record")


def record(cls):
    """Make cls a frozen record of its annotated fields (see the module doc)."""
    fields = tuple(cls.__annotations__)
    if not 0 < len(fields) <= _SLOTS:
        raise TypeError(f"a record has 1 to {_SLOTS} fields, not {len(fields)}")
    defaults = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
    if any(name not in cls.__dict__ for name in fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    spare = tuple(f"_spare{i}" for i in range(len(fields), _SLOTS))
    names = ("self", *fields, *spare)
    if len(set(names)) < len(names):
        raise TypeError(f"{cls.__name__}: field names must differ from {names[0]!r} and {spare}")
    code = _init.__code__.replace(co_name="__init__", co_argcount=1 + len(fields),
                                  co_kwonlyargcount=len(spare), co_varnames=names)
    init = FunctionType(code, _init.__globals__, "__init__", defaults or None)
    init.__kwdefaults__ = dict.fromkeys(spare)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls._fields = fields
    cls._values = attrgetter(*fields)
    if "__post_init__" not in cls.__dict__:
        cls.__post_init__ = _no_post_init
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
