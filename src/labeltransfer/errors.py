"""The package's exception hierarchy.

Every error the package raises on bad input or bad numbers derives from
``LabelTransferError``, which is a ``ValueError`` so that callers catching
``ValueError`` keep working. The CLI maps this base to a one-line message
and exit status 2. ``check_field_types`` is the one type check of the
config dataclasses (``pipeline.TrainConfig``, ``synth.SynthSpec``).
"""

import dataclasses
import math
import numbers


class LabelTransferError(ValueError):
    """Base of every error the package raises on bad input or values."""


class InputError(LabelTransferError):
    """An argument, config value, file or corpus is invalid."""


class ParseError(InputError):
    """A CoNLL corpus line is malformed."""


class GraphInputError(InputError):
    """Invalid input for graph construction."""


class ShapeError(LabelTransferError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(LabelTransferError):
    """An operation received or produced non-finite values."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# field annotation -> accepted values; bool is an int subclass, so the
# numeric annotations exclude it
_FIELD_CHECKS = {
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "int": _is_int,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "dict": lambda v: isinstance(v, dict),
    "dict | None": lambda v: v is None or isinstance(v, dict),
    "tuple[str, ...]": lambda v: isinstance(v, tuple) and all(isinstance(x, str) for x in v),
    "tuple[int, int]": lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v)),
}


def check_field_types(obj, what: str):
    """Raise `InputError` unless every field of dataclass ``obj`` has its
    annotated type; float fields must also be finite."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not _FIELD_CHECKS[f.type](value):
            raise InputError(f"{what} field {f.name!r} must be {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise InputError(f"{what} field {f.name!r} must be finite, got {value!r}")
