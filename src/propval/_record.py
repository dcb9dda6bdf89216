"""Immutable records: named tuples that validate on every construction path.

collections.namedtuple rather than dataclasses or typing.NamedTuple: both
of those import modules (inspect, typing) that cost a CLI call more than
the math it runs.

A validating record defines __new__, runs its checks there and ends with
tuple.__new__(cls, (field, ...)), which is what the named tuple's own
__new__ calls: building the record then costs one Python frame, not two.
A record without checks is built the same way where it is built often
(EllwoodRate, AmortizationRow), with every field given, defaults included.
"""

from collections import namedtuple


def record(typename: str, field_names, defaults=()):
    """Named tuple base class whose _make, and so _replace, calls the class.

    A plain named tuple builds _make and _replace results with
    tuple.__new__, past any validating __new__ a subclass defines; here
    every new record goes through the subclass's constructor.
    """
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
