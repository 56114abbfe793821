"""``FrozenRecord``, the base of the package's parameter and result records.

A record is a ``__slots__`` class whose slots are its fields, in order.
It is immutable and compares, hashes and prints like a frozen dataclass,
but costs nothing to define: the ``dataclasses`` module and what it
imports (``inspect``, ``ast``, ``dis``, ``tokenize``) stay out of a cold
command.  Each subclass writes its own ``__init__``, which stores the
fields with ``set_field`` and validates them.
"""

#: stores a field from a record's ``__init__``, past the frozen ``__setattr__``
set_field = object.__setattr__


class FrozenRecord:
    """Immutable record: value equality and hash over the fields, the
    dataclass ``repr``, pickling and copying through ``__init__``, and the
    ``_fields``/``_asdict()`` of a named tuple."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = cls.__slots__

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
