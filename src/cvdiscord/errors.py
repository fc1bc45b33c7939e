"""Exception types shared across the toolkit, the finite-number check, and
the output formats: CSV tables and JSON documents."""

import json
import math
import sys

import numpy as np


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


class InsufficientDataError(ValidationError):
    """Too few records or occupied bins to run a statistic: bad input."""


class TruncationError(ValidationError):
    """A state parameter too large for the truncated Fock basis: bad input."""


class ParseError(ValidationError):
    """A record file, its sidecar or a config file could not be parsed."""


def require_finite(obj, *names: str, low=-math.inf, high=math.inf) -> None:
    """A ValidationError naming the first of names, attributes of obj or keys
    of a dict obj like locals(), that is not a finite number in [low, high]:
    abs(value) at most the largest float, exact for an int of any size."""
    for name in names:
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        if not (abs(value) <= sys.float_info.max and low <= value <= high):
            bound = (f" in [{low:g}, {high:g}]" if high < math.inf
                     else f" >= {low:g}" if low > -math.inf else "")
            raise ValidationError(f"{name} must be a finite number{bound}, got {value}")


def dump_document(doc, **kwargs) -> str:
    """doc as JSON indented by 2 with sorted keys and a trailing newline,
    the layout of the JSON outputs; kwargs go to json.dumps."""
    return json.dumps(doc, indent=2, sort_keys=True, **kwargs) + "\n"


def write_table(path, columns: dict) -> None:
    """Write columns of numbers as CSV under a header of their names, each
    value with 17 significant digits, which round-trips float64 bitwise."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns.values()])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(columns),
               comments="")
