"""The package's exception hierarchy.

Every error the package raises on bad input or bad numbers derives from
``LabelTransferError``, which is a ``ValueError`` so that callers catching
``ValueError`` keep working. The CLI maps this base to a one-line message
and exit status 2.
"""


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
