"""Internal invariant checks that also hold under `python -O`."""

from __future__ import annotations


class InvariantError(AssertionError):
    """An internal invariant failed: a bug in the library, not bad input."""


def check(cond, msg) -> None:
    """Raise InvariantError(msg) unless cond holds; unlike `assert`, this
    is not stripped by `python -O`."""
    if not cond:
        raise InvariantError(msg)
