"""Exception hierarchy shared by the library, and its one rank and letter rules."""

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
            shown = f"of {v.bit_length()} bits" if isinstance(v, int) and v.bit_length() > 2000 else reprlib.repr(v)
            raise ValueError(f"letter {shown} out of range for rank {n}")
    return word
