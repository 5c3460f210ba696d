"""Records: plain classes that store a fixed list of fields.

A record's fields are the parameters of its own ``__init__``, in order,
and ``__init__`` stores each one under its own name.  A class becomes a
record by subclassing ``Record`` with ``frozen=True`` or
``frozen=False``, and gains:

- the repr ``Name(field=value, ...)``;
- field-wise ``==`` between instances of the same class, and
  ``NotImplemented`` against anything else;
- if frozen, the hash of its field tuple, unless a base before ``Record``
  gives one (``conecut.nodes.Expr`` does), and an ``AttributeError`` on
  assignment to or deletion of any attribute (``__init__`` sets fields
  with ``object.__setattr__``; ``functools.cached_property`` writes to
  the instance ``__dict__`` and is unaffected);
- if mutable, no hash.

These are the methods the standard library's record decorator would
generate.  Here they are written once, because that decorator writes
the source of every method of every class and compiles it with
``exec`` when the module is imported: about 35 ms of each cold start
for conecut's 41 records.
"""

from __future__ import annotations


class Record:
    """Base class of conecut's records; see the module docstring."""

    def __init_subclass__(cls, *, frozen: bool):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        if frozen:
            cls.__hash__ = cls.__hash__ or _hash_fields
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
        else:
            cls.__hash__ = None

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _field_values(self) == _field_values(other)


def _field_values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


def _hash_fields(self) -> int:
    return hash(_field_values(self))


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
