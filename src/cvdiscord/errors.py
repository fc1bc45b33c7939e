"""Exception types shared across the toolkit, the finite-number check, and
the output formats: CSV tables and JSON documents."""

import bz2
import gzip
import json
import lzma
import math
import sys
from pathlib import Path

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


# rows that write_csv formats and writes at a time: the text of a block
# and its values take well under 1 MB
BLOCK_ROWS = 4096
# CSV names written through a compressor, as np.savetxt and np.loadtxt treat them
_COMPRESSORS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open}


def write_csv(path, header: str, columns, runs=None) -> None:
    """Write equal-length columns of numbers as CSV rows under the header
    line, each value %.17g, as Latin-1 text through the compressor that
    the suffix of path names, if any.  runs, (lead, count) pairs whose
    counts add up to the column length, puts the numbers lead, formatted
    once, before the values of each of count consecutive rows; by default
    no row has a lead.  Each block of BLOCK_ROWS rows is one % of the row
    template, repeated per row, on the block's values, and one write."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    runs = iter(runs or [((), len(columns[0]))])
    left = 0
    with _COMPRESSORS.get(Path(path).suffix, open)(path, "wt", encoding="latin-1") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            values = np.column_stack([c[start:start + BLOCK_ROWS] for c in columns])
            template, todo = [], len(values)
            while todo:
                if not left:
                    lead, left = next(runs)
                    # a formatted number holds no %, so text + row is a template
                    text = ("%.17g," * len(lead)) % tuple(lead)
                take = min(left, todo)
                template.append((text + row) * take)
                left, todo = left - take, todo - take
            fh.write("".join(template) % tuple(values.ravel().tolist()))


def write_table(path, columns: dict) -> None:
    """Write columns of numbers as CSV under a header of their names, each
    value %.17g, which round-trips float64 bitwise.  The bytes are those of
    np.savetxt(fmt="%.17g", delimiter=","), and the memory beyond the
    columns is one block of write_csv."""
    values = [np.asarray(c, dtype=float) for c in columns.values()]
    if len({len(v) for v in values}) > 1:
        raise ValidationError(f"table columns have mismatched lengths "
                              f"{list(map(len, values))}")
    write_csv(path, ",".join(columns), values)
