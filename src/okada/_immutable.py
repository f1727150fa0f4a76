"""The one protocol of the library's value classes.

A value class subclasses :class:`Immutable`, declares ``__slots__`` and
names its public fields, in constructor order, in ``_fields``; an
ordered class also sets ``_ordered = True``::

    class FibonacciSet(Immutable):
        __slots__ = _fields = ("rank", "elements")
        _ordered = True

The class then behaves like a frozen dataclass over ``_fields``.
``__eq__`` and ``__hash__`` use the field tuple, and ``__eq__`` gives
``NotImplemented`` for any other class.  An ordered class has ``__lt__``
and ``__le__`` on field tuples, and Python answers ``>`` and ``>=``
with their reflections.  ``__reduce__`` goes through the constructor, so
unpickling and ``copy`` check their input like any other call.  The
repr is ``Name(f=v, ...)``, and every attribute write or deletion raises
``AttributeError``.  A class overrides any of these by defining it.

``__init__`` calls ``self._fill(*values)`` after its checks.
``cls._trusted(*values)`` is the one unchecked builder: a new value
with those fields, for values derived from values already checked.
The first read of either on a class compiles that class's ``__eq__``,
``__hash__``, ordering methods, ``_fill`` and ``_trusted`` for its
field names, as ``dataclasses`` and ``namedtuple`` do, and installs them
on the class, so one build stays one Python call.  These methods sit on
the hot paths of the census and of every dict keyed by values,
and they read each field by name, as hand-written methods would;
``operator.attrgetter`` versions made the monoid census measurably
slower.  Compiling on first use, not at class creation, keeps import as
cheap as the hand-written copies were: a process compiles only the
classes it builds.
"""


def _compare(op: str, fields: tuple[str, ...]) -> str:
    if len(fields) == 1:
        return f"self.{fields[0]} {op} other.{fields[0]}"
    mine = ", ".join(f"self.{f}" for f in fields)
    theirs = ", ".join(f"other.{f}" for f in fields)
    return f"({mine}) {op} ({theirs})"


def _methods(fields: tuple[str, ...], ordered: bool) -> str:
    """Source of the field-specialised methods of one class."""
    guard = "    if other.__class__ is not cls:\n        return NotImplemented\n"
    same = " and ".join(f"self.{f} == other.{f}" for f in fields)
    sets = "".join(f"    set_{f}(self, {f})\n" for f in fields)
    src = [
        f"def __eq__(self, other):\n{guard}    return {same}\n",
        f"def __hash__(self):\n    return hash(({''.join(f'self.{f}, ' for f in fields)}))\n",
        f"def _fill(self, {', '.join(fields)}):\n" + sets,
        f"def _trusted({', '.join(fields)}):\n    self = new(cls)\n{sets}    return self\n",
    ]
    if ordered:
        for name, op in (("__lt__", "<"), ("__le__", "<=")):
            src.append(f"def {name}(self, other):\n{guard}    return {_compare(op, fields)}\n")
    return "\n".join(src)


class _Compiled:
    """``_fill`` or ``_trusted`` read on a class not yet compiled: the read
    compiles and installs the class's methods, then gives the compiled one."""

    def __set_name__(self, owner, name) -> None:
        self.owner, self.name = owner, name

    def __get__(self, obj, cls):
        if cls is self.owner:
            return self
        env = {"cls": cls, "new": object.__new__, **{f"set_{f}": getattr(cls, f).__set__ for f in cls._fields}}
        methods: dict = {}
        exec(_methods(cls._fields, cls._ordered), env, methods)
        for name, fn in methods.items():
            if name not in cls.__dict__:
                fn.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, staticmethod(fn) if name == "_trusted" else fn)
        return getattr(cls if obj is None else obj, self.name)


class Immutable:
    """Base of the value classes; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _ordered = False
    _fill, _trusted = _Compiled(), _Compiled()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")
