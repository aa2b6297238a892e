"""Base class of the validated value types, and their integer checks."""

from functools import cached_property

import numpy as np


class Frozen:
    """A value set once, by ``__init__``, which checks its arguments, copies any arrays and stores them with ``_set``.

    ``_set`` makes each array field read-only, and assigning or deleting an
    attribute raises AttributeError.  Two values of one class are equal when
    their fields are, arrays entry by entry (``np.array_equal``), and hash by
    the fields, an array by its entries.  A ``functools.cached_property``
    value is not a field: equality, hash and repr skip it.
    """

    __slots__ = ()

    def _set(self, **fields):
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(fields)

    def _state(self) -> dict:
        cls = type(self)
        return {k: v for k, v in vars(self).items() if not isinstance(getattr(cls, k, None), cached_property)}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = zip(self._state().values(), other._state().values())  # one class: one field order
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def __hash__(self):
        # Python numbers that compare equal hash equal (0.0 and -0.0 too), as array_equal needs.
        fields = self._state().values()
        return hash(tuple(tuple(v.ravel().tolist()) if isinstance(v, np.ndarray) else v for v in fields))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self._state().items())})"


def is_integer(value) -> bool:
    """True for a Python or NumPy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, least: int = 1) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an integer >= ``least``: 1 for a count, 0 for a seed."""
    if not (is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
