"""Immutable records compared and hashed by their fields.

The stdlib's frozen record decorator gives the same semantics, but its
module imports ``inspect`` and every decorated class compiles its generated
methods with ``exec`` on each start: about two thirds of the package's
import time.  Here a record names its fields once, in ``_fields``, and the
one ``Record.__init__`` reads them, so nothing is compiled at run time.  A
named tuple is not used either: it would compare equal to a plain tuple,
and to a record of another type with equal fields.
"""

from operator import attrgetter

# Sets a field of a record under construction, past Record.__setattr__.  It
# keeps the fields in the instance's compact per-class layout, where
# vars(self).update(...) would give every instance a dict of its own (about
# 250 bytes for three fields, against about 105).
set_field = object.__setattr__


class Record:
    """Base of an immutable record whose fields are named in ``_fields``.

    The constructor takes the fields by position, in that order, or by
    keyword; ``_defaults`` maps the fields that may be left out to their
    values, and any other binding error raises TypeError.  A subclass that
    checks or transforms its input ends its own ``__init__`` with
    ``Record.__init__(self, ...)``.  Records of one class are equal when
    their fields are; a record never equals an object of another class.
    The hash is the hash of the tuple of fields, and the repr is
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    AttributeError; values kept in ``__dict__`` outside the fields (a
    ``cached_property``) take no part in equality or the hash.  Record
    declares no slots of its own, so a subclass that lists its fields in
    ``__slots__`` has no ``__dict__``.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}  # read only, shared by every record type without defaults

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of a single name returns the bare value, not a 1-tuple
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        for field, value in zip(fields, args):
            set_field(self, field, value)
        if kwargs or len(args) != len(fields):  # the all-positional call is done
            name = self.__class__.__qualname__
            if len(args) > len(fields):
                raise TypeError("%s takes %d fields, %d given" % (name, len(fields), len(args)))
            try:
                for field in fields[len(args):]:
                    set_field(self, field, kwargs.pop(field) if field in kwargs else self._defaults[field])
            except KeyError as exc:
                raise TypeError("%s missing field %r" % (name, exc.args[0])) from None
            for key in kwargs:  # left over: no field, or one already given by position
                raise TypeError("%s got %s field %r" % (
                    name, "a repeated" if key in fields else "an unknown", key))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
