"""Exception types shared across the package, the one range check that
every config number goes through, the one element budget that every
product of sizes is checked against, and the one reader of JSON files."""

import json
import math
import numbers
from pathlib import Path


# the most float64 elements (512 MiB) that one batch's or one window's arrays,
# or the parameters, may take: every size is bounded, but their products are
# not, so a product over this is rejected before anything is allocated
MAX_ELEMENTS = 2**26


class VitalnetError(Exception):
    """Base class for all vitalnet errors."""


class ParseError(VitalnetError):
    """Raised when an input file cannot be parsed (carries the line number)."""


class ValidationError(VitalnetError):
    """Raised when parsed data violates a domain invariant."""


def require(name: str, value, kind=numbers.Real, lo=-math.inf, hi=math.inf) -> None:
    """Reject a config number that is not a `kind` (bools excluded) in [lo, hi].

    Integers of any size are compared exactly when `kind` is Integral; any
    other value must convert to a finite float.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        ok = False
    elif kind is numbers.Integral:
        ok = lo <= value <= hi
    else:
        try:
            ok = math.isfinite(value) and lo <= value <= hi
        except OverflowError:  # a number too large for a float
            ok = False
    if not ok:
        what = "an integer" if kind is numbers.Integral else "a finite number"
        raise ValidationError(f"{name} must be {what} in [{lo}, {hi}], got {value!r}")


def check_elements(what: str, n: int) -> None:
    """Reject `what` when it needs more than MAX_ELEMENTS float64 elements."""
    if n > MAX_ELEMENTS:
        raise ValidationError(f"{what} needs {n:,} float64 elements, more than the "
                              f"budget of {MAX_ELEMENTS:,}")


def read_json(path):
    """The document in the UTF-8 JSON file at `path`. Text that is not JSON,
    nests past the recursion limit or holds an integer past Python's digit
    limit is a ValidationError that starts `malformed JSON:`."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON: {exc}") from None
