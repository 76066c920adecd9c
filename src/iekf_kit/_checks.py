"""Type checks of configuration values.  YAML's true and false load as
Python bools, which are ints (so also real numbers) to Python: without
these checks ``duration: true`` would run as 1."""

from numbers import Real


def is_int(x):
    """An int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_real(x):
    """A real number that is not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool)
