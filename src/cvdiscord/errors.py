"""Exception types shared across the toolkit, and the JSON document checks."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class ValidationError(ToolkitError, ValueError):
    """Malformed or out-of-domain input (bad shapes, unphysical parameters)."""


class NumericError(ToolkitError):
    """A numeric routine failed to converge or hit a singular intermediate."""


class DegenerateSplitError(ToolkitError):
    """A threshold split left one side empty."""


class EmptySideError(DegenerateSplitError, ValidationError):
    """A threshold leaves one side of the records empty: bad input."""


class InsufficientDataError(ToolkitError):
    """Not enough records or occupied bins to run a statistic."""


class TruncationError(ToolkitError):
    """A Fock-space truncation left too much tail mass."""


class ParseError(ValidationError):
    """A record file could not be parsed; carries the offending row."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_number, value))


# the check require_fields makes for each type it can demand of a field
FIELD_TYPES = {
    "a number": _number,
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "a [re, im] pair": _pair,
    "a list of [re, im] pairs": lambda v: isinstance(v, list) and all(map(_pair, v)),
}


def require_fields(doc, fields: dict, what: str) -> dict:
    """doc, once it is a JSON object holding every field in fields, each of
    the type fields names for it (a key of FIELD_TYPES); else a
    ValidationError naming what is wrong."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, "
                              f"got {type(doc).__name__}")
    for name, kind in fields.items():
        if name not in doc:
            raise ValidationError(f"{what} lacks the field {name!r}")
        if not FIELD_TYPES[kind](doc[name]):
            raise ValidationError(f"field {name!r} of the {what} must be {kind}, "
                                  f"got {type(doc[name]).__name__}")
    return doc


def kind_class(doc, table: dict, what: str):
    """The class that table holds for the "kind" field of the JSON object
    doc; an unknown kind is a ValidationError."""
    kind = require_fields(doc, {"kind": "a string"}, what)["kind"]
    if kind not in table:
        raise ValidationError(f"unknown {what} kind {kind!r}")
    return table[kind]
