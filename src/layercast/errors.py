"""Exception types shared across the package, the config field checks, failure context
and the one reader of input files."""

import contextlib
import dataclasses
import numbers
from pathlib import Path

import numpy as np


class LayercastError(Exception):
    """Base class for all package errors."""


class InputError(LayercastError):
    """Caller-supplied values violate a documented precondition."""


class ContractError(LayercastError):
    """An internal contract between components was violated."""


class GenerationError(LayercastError):
    """A random-graph generator exhausted its retry budget."""


class NumericError(LayercastError):
    """An iterative numeric procedure failed to converge."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DegenerateSampleError(InputError):
    """A statistical sample carries no usable signal (e.g. all-zero differences)."""


def as_integer(name: str, value) -> int:
    """``value`` as a Python int; :class:`InputError` naming ``name`` unless it
    is an integer (``200.5``, ``1e3``, NaN, strings and ``True`` are not)."""
    # bool is an Integral, but a JSON true is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_seed(name: str, value):
    """``value`` as a ``numpy.random.default_rng`` seed: a nonnegative integer (as
    a Python int), a ``SeedSequence`` or a ``Generator``; else an
    :class:`InputError` naming ``name``.  ``None`` is refused: it would draw
    fresh entropy, so the result would not be a function of the seed."""
    if isinstance(value, (np.random.SeedSequence, np.random.Generator)):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise InputError(
            f"{name} must be a nonnegative integer, a SeedSequence or a Generator, got {value!r}"
        )
    return int(value)


def as_real(name: str, value):
    """``value`` unchanged; :class:`InputError` naming ``name`` unless it is a
    real number (an int or a float of Python or NumPy; ``True``, strings and
    ``None`` are not).  NaN and infinities are real numbers here."""
    # bool is a Real too, but a JSON true is no probability
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    return value


def is_int_field(field: dataclasses.Field) -> bool:
    """Whether a dataclass field holds a count (``int``) rather than a real."""
    return field.type in (int, "int")  # annotations may be postponed


def check_int_fields(params) -> None:
    """Make every ``int`` field of the frozen dataclass ``params`` a Python int.

    NumPy integers are converted, so a config built from a NumPy grid hashes
    and exports like its Python twin.  Anything else (``200.5``, ``1e3``,
    NaN, a string) raises :class:`InputError`.
    """
    for field in dataclasses.fields(params):
        if is_int_field(field):
            value = as_integer(field.name, getattr(params, field.name))
            object.__setattr__(params, field.name, value)


def check_unit_interval(params, *names) -> None:
    """Raise :class:`InputError` unless each named field, in order, is a real
    number in [0, 1] (not NaN)."""
    for name in names:
        value = as_real(name, getattr(params, name))
        if not 0.0 <= value <= 1.0:
            raise InputError(f"{name} must be in [0, 1], got {value}")


@contextlib.contextmanager
def failing_at(where: str):
    """Prefix ``where: `` to a :class:`LayercastError` raised inside.

    The error is re-raised as the same object, so its class and its fields
    (such as :attr:`NumericError.last_iterate`) are kept.
    """
    try:
        yield
    except LayercastError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def read_text(path, what: str, encoding: str = "ascii") -> str:
    """The text of the ``what`` file at ``path``, decoded from ``encoding``.

    A missing or undecodable file raises :class:`InputError` naming the path.
    Line endings are kept as they are in the file.
    """
    try:
        return Path(path).read_bytes().decode(encoding)
    except FileNotFoundError:
        raise InputError(f"no such {what} file: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} file {path} is not {encoding} text: {exc}") from None
