"""Exception hierarchy shared by the library, its one rank and letter rules, and its one formatter of user values."""

import reprlib


class OkadaError(Exception):
    """Base class for all library errors."""


class RankMismatchError(OkadaError, ValueError):
    """Operands live at different ranks."""


class PropagatingMismatchError(OkadaError, ValueError):
    """Half diagrams with different propagating label sets cannot be glued."""


class InternalInvariantError(OkadaError, RuntimeError):
    """A structural theorem the library relies on failed to hold.

    Raised when a computation contradicts an invariant that is supposed to be
    automatic (unique lattice bounds, confluence of normalization, uniqueness
    of triangular factorizations, ...).  Seeing this exception means a bug in
    the library, not bad user input.
    """


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):  # past 2000 bits by its size: repr refuses past 4300 digits
        return f"<int of {x.bit_length()} bits>" if x.bit_length() > 2000 else super().repr_int(x, level)


_shown = _Shown().repr  # the one formatter of a user value in a message


def _checked_rank(n: int) -> int:
    """``n`` if it is an ``int`` (a ``bool`` counts, as in ``code``) ``>= 0``, else ``ValueError``."""
    if not isinstance(n, int):
        raise ValueError(f"rank must be an integer, not {type(n).__name__}")
    if n < 0:
        raise ValueError("rank must be non-negative")
    return n


def _checked_letters(word, n: int) -> tuple[int, ...]:
    """``word`` as a tuple if each letter is an ``int`` (a ``bool`` counts) in ``1 .. n-1``, else ``ValueError``."""
    word = tuple(word)
    for v in word:
        if not (isinstance(v, int) and 0 < v < n):
            v, n = _shown(v), _shown(n)
            raise ValueError(f"letter {v} out of range for rank {n}")
    return word
