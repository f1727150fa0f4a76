"""Base class of the library's immutable ``__slots__`` value classes."""


class Immutable:
    """Refuses every attribute write and deletion.

    A subclass fills its slots once, in ``__init__``, through the slot
    descriptors' ``__set__``, and writes its own ``__eq__``, ``__hash__``
    and ``__reduce__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")
