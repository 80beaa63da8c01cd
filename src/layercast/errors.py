"""Exception types shared across the package, and the integer check for config fields."""

import dataclasses
import numbers


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


def check_int_fields(params) -> None:
    """Make every ``int`` field of the frozen dataclass ``params`` a Python int.

    NumPy integers are converted, so a config built from a NumPy grid hashes
    and exports like its Python twin.  Anything else (``200.5``, ``1e3``,
    NaN, a string) raises :class:`InputError`.
    """
    for field in dataclasses.fields(params):
        if field.type in (int, "int"):  # annotations may be postponed
            value = getattr(params, field.name)
            if not isinstance(value, numbers.Integral):
                raise InputError(f"{field.name} must be an integer, got {value!r}")
            object.__setattr__(params, field.name, int(value))
