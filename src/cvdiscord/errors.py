"""Exception types shared across the toolkit, and the JSON document checks."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class ValidationError(ToolkitError, ValueError):
    """Malformed or out-of-domain input (bad shapes, unphysical parameters)."""


class NumericError(ToolkitError):
    """A numeric routine failed to converge or hit a singular intermediate."""


class DegenerateSplitError(ToolkitError):
    """A threshold split left one side empty."""


class InsufficientDataError(ToolkitError):
    """Not enough records or occupied bins to run a statistic."""


class TruncationError(ToolkitError):
    """A Fock-space truncation left too much tail mass."""


class ParseError(ValidationError):
    """A record file could not be parsed; carries the offending row."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


def require_fields(doc, names, what: str) -> dict:
    """doc, once it is a JSON object holding every field in names; else a
    ValidationError naming what is wrong."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, "
                              f"got {type(doc).__name__}")
    for name in names:
        if name not in doc:
            raise ValidationError(f"{what} lacks the field {name!r}")
    return doc


def kind_class(doc, table: dict, what: str):
    """The class that table holds for the "kind" field of the JSON object
    doc; an unknown kind is a ValidationError."""
    kind = require_fields(doc, ("kind",), what)["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ValidationError(f"unknown {what} kind {kind!r}")
    return table[kind]
