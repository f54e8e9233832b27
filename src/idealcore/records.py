"""Value classes: the part of ``dataclasses`` this package uses, at a fraction
of its import cost.

``@record`` gives a class whose body annotates its fields (in order, those
with defaults last) the ``__init__``, ``__repr__``, ``__eq__`` and
``__hash__`` that ``@dataclass`` would, and with ``frozen=True`` the
``__setattr__`` and ``__delattr__`` that refuse assignment:

* ``__init__`` takes the fields in order, with their defaults, stores them
  (through ``object.__setattr__`` when frozen) and then calls
  ``__post_init__`` when the class has one;
* equality needs the exact same type and compares the tuple of fields, and
  the hash is the hash of that tuple (``eq=False`` keeps identity); a frozen
  record keeps its hash after the first call, out of its pickled state, so a
  lookup of a set node in a cache or memo hashes its tree once, not at every
  lookup;
* the repr is the dataclass text, ``Name(field=value, ...)``, leaving out
  the fields declared with ``field(default=..., repr=False)``.

Why not ``dataclasses``: ``@dataclass`` generates the source of six methods
per frozen class and runs ``exec`` on it at every import.  With numpy already
loaded, idealcore's own import took 65 ms of main-thread CPU, 45 ms of it in
``dataclasses`` for the 34 classes (1.3 ms a class), on a 2-vCPU virtual
machine with Python 3.11; with ``record`` it takes 26 ms.  Only ``__init__``
is compiled, since a generic ``*args`` constructor that loops over the field
names takes half as long again (1.9 against 1.2 µs for three fields on that
machine) and records such as matrix rows are built by the thousand; the
other methods are closures over one ``operator.attrgetter`` of the fields.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["field", "record"]

_NO_DEFAULT = object()
# The instance attribute that keeps a frozen record's hash once computed.
_HASH = "_record_hash"


class field:
    """A field's default, with ``repr=False`` to leave the field out of the repr."""

    __slots__ = ("default", "repr")

    def __init__(self, *, default, repr: bool = True):
        self.default = default
        self.repr = repr


def _fields_getter(names: tuple[str, ...]):
    """``self -> (self.<name>, ...)``, a tuple also for one field or none."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    if not names:
        return lambda self: ()
    return attrgetter(*names)


def _compile_init(cls: type, names: list[str], defaults: list, frozen: bool):
    # Stores go through attribute assignment, never ``self.__dict__``, which
    # would give every instance a materialized dict of its own.
    store = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
    body = [store.format(name) for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__({', '.join(['self', *names])}):\n    " + "\n    ".join(body or ["pass"])
    namespace = {"_set": object.__setattr__}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(*, frozen: bool = False, eq: bool = True):
    """Class decorator that makes a value class (see the module docstring)."""

    def decorate(cls: type) -> type:
        names, defaults, shown = [], [], []
        for name in cls.__dict__.get("__annotations__", {}):
            value, show = cls.__dict__.get(name, _NO_DEFAULT), True
            if isinstance(value, field):
                value, show = value.default, value.repr
                setattr(cls, name, value)
            names.append(name)
            if value is not _NO_DEFAULT:
                defaults.append(value)
            if show:
                shown.append(name)

        cls.__init__ = _compile_init(cls, names, defaults, frozen)

        labels = tuple(f"{name}=" for name in shown)
        shown_values = _fields_getter(tuple(shown))

        def __repr__(self):
            shown_text = ", ".join(label + repr(v) for label, v in zip(labels, shown_values(self)))
            return f"{type(self).__qualname__}({shown_text})"

        cls.__repr__ = __repr__

        if eq:
            values = _fields_getter(tuple(names))

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return values(self) == values(other)
                return NotImplemented

            def __hash__(self):
                h = self._record_hash
                if h is None:
                    h = hash(values(self))
                    object.__setattr__(self, _HASH, h)
                return h

            def __getstate__(self):
                # str hashes differ between processes, so a kept hash is not state.
                state = self.__dict__.copy()
                state.pop(_HASH, None)
                return state

            cls.__eq__ = __eq__
            cls.__hash__ = __hash__ if frozen else None
            if frozen:
                cls._record_hash = None
                cls.__getstate__ = __getstate__

        if frozen:
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
        return cls

    return decorate
