"""Base class of the validated value types."""


class Frozen:
    """A value set once, by ``__init__``, which checks its arguments and stores them with ``self.__dict__.update``.

    Assigning or deleting an attribute afterwards raises AttributeError.  Two
    instances of one class are equal when their attributes are, and they hash
    by the attribute values; a class holding arrays defines its own
    ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"
