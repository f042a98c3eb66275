"""The package's exception hierarchy.

Every error the package raises on bad input or bad numbers derives from
``LabelTransferError``, which is a ``ValueError`` so that callers catching
``ValueError`` keep working. The CLI maps this base to a one-line message
and exit status 2. The config dataclasses (``pipeline.TrainConfig``,
``synth.SynthSpec``) share one JSON loader, ``from_json``, one type check,
``check_field_types``, and one lower-bound check, ``check_lower_bounds``.
"""

import dataclasses
import json
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


def check_lower_bounds(obj, what: str, at_least: dict, positive=()):
    """Raise `InputError` unless every field of ``obj`` named in ``positive``
    is > 0 and every one named in ``at_least`` is >= its bound; for a
    (low, high) range the bound applies to low, and low <= high."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name in positive and value <= 0:
            raise InputError(f"{what} field {f.name!r} must be > 0, got {value!r}")
        if f.name in at_least:
            low = at_least[f.name]
            ranged = isinstance(value, tuple)
            lo, hi = value if ranged else (value, value)
            if not low <= lo <= hi:
                need = f"(low, high) with {low} <= low <= high" if ranged else f">= {low}"
                raise InputError(f"{what} field {f.name!r} must be {need}, got {value!r}")


def from_json(cls, text: str, what: str):
    """Build config dataclass ``cls`` from a JSON object of some of its
    fields; a list given for a tuple field becomes a tuple."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(types)
    if unknown:
        raise InputError(f"unknown {what} fields: {sorted(unknown)}")
    # JSON has no tuples
    for key, value in obj.items():
        if types[key].startswith("tuple") and isinstance(value, list):
            obj[key] = tuple(value)
    return cls(**obj)
