"""``FrozenRecord``, the base of the package's parameter and result records.

A record is a ``__slots__`` class whose slots are its fields, in order.
It is immutable and compares, hashes and prints like a frozen dataclass,
but costs nothing to define: the ``dataclasses`` module and what it
imports (``inspect``, ``ast``, ``dis``, ``tokenize``) stay out of a cold
command.  A subclass lists its fields once, in ``__slots__``, with
defaults in a ``_defaults`` mapping and an optional ``_check(self)`` run
after the generated ``__init__`` has stored them.
"""

#: stores a field past the frozen ``__setattr__``
set_field = object.__setattr__


def _make_init(cls):
    """The ``__init__`` a frozen dataclass would get, compiled once per class."""
    defaults = getattr(cls, "_defaults", {})
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                       for name in cls._fields)
    # each slot's own descriptor stores its field past the frozen __setattr__,
    # cheaper than set_field, which looks the descriptor up on every call
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in cls._fields}
    namespace.update(__name__=cls.__module__, _defaults=defaults)
    body = [f"    _set_{name}(self, {name})" for name in cls._fields]
    if hasattr(cls, "_check"):
        body.append("    _check(self)")
        namespace["_check"] = cls._check
    exec(f"def __init__(self, {params}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class FrozenRecord:
    """Immutable record: value equality and hash over the fields, the
    dataclass ``repr``, pickling and copying through ``__init__``, and the
    ``_fields``/``_asdict()`` of a named tuple."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = cls.__slots__
        cls.__init__ = _make_init(cls)

    def _astuple(self):
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self):
        """The fields as a dict in field order; nested values are not copied."""
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()
