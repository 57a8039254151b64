"""The one base of the frozen slotted records."""

setfield = object.__setattr__  # how a record's ``__init__`` fills its slots


class Record:
    """A subclass names its fields in ``_fields``, the arguments of its
    ``__init__`` in order, and its slots in ``__slots__`` (the fields, or
    the slots behind fields read through a property, and any slot derived
    from them).  Equality, hashing and copies read the
    fields, the repr every slot; assigning or deleting a slot raises
    AttributeError."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        slots = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({slots})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy, deepcopy and pickle rebuild the record from its fields
        return type(self), self._values()
