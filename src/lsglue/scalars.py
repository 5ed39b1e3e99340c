"""Exact rational scalars with a selectable arithmetic backend.

Two interchangeable scalar types are supported:

* ``gmp`` -- :class:`gmpy2.mpq`, GMP-backed compiled rationals (the default
  whenever ``gmpy2`` is importable).  All the hot inner loops of this package
  are exact big-integer rational arithmetic, so this backend is the compiled
  kernel.
* ``fractions`` -- :class:`fractions.Fraction` from the standard library, a
  pure-Python fallback with identical semantics.

The backend is chosen once at import time.  Set ``LSGLUE_BACKEND=gmp`` or
``LSGLUE_BACKEND=fractions`` to force a choice; forcing ``gmp`` without
``gmpy2`` installed is an import error.  Both types keep values in canonical
form automatically: positive denominator, gcd(|num|, den) = 1, zero as 0/1.

``benchmarks/bench_backends.py`` compares the two backends on representative
workloads.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction

from .errors import LsglueError, MalformedNumber, ZeroDenominator, excerpt

_requested = os.environ.get("LSGLUE_BACKEND", "").strip().lower()

if _requested not in ("", "gmp", "fractions"):
    raise ImportError(
        f"unknown LSGLUE_BACKEND={_requested!r}; expected 'gmp' or 'fractions'"
    )

if _requested in ("", "gmp"):
    try:
        from gmpy2 import mpq as Rational

        BACKEND = "gmp"
    except ImportError:
        if _requested == "gmp":
            raise ImportError(
                "LSGLUE_BACKEND=gmp requested but gmpy2 is not installed"
            ) from None
        Rational = Fraction
        BACKEND = "fractions"
else:
    Rational = Fraction
    BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)

_FRACTION_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")
_DECIMAL_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")


def rational_from_string(text: str) -> Rational:
    """Parse ``p``, ``p/q`` or a terminating decimal into an exact rational.

    Decimal strings expand exactly (``"2.5"`` -> 5/2); there is no float
    round trip.  Raises :class:`MalformedNumber` for anything outside the
    grammar and :class:`ZeroDenominator` for ``p/0``.
    """
    if not isinstance(text, str):
        raise MalformedNumber(f"expected string, got {type(text).__name__}")
    body = text.strip()
    try:
        if _FRACTION_RE.match(body):
            if "/" in body:
                num_s, den_s = body.split("/")
                den = int(den_s)
                if den == 0:
                    raise ZeroDenominator(f"zero denominator in {excerpt(repr(text))}")
                return Rational(int(num_s), den)
            return Rational(int(body))
        if _DECIMAL_RE.match(body):
            # Fraction parses terminating decimals exactly; convert to the backend.
            return Rational(Fraction(body))
    except ValueError:
        # The grammar admits only digits, so int() fails only on Python's
        # limit on the length of decimal integer strings.
        what = f"rational literal {excerpt(repr(body))}"
        raise MalformedNumber(over_digit_limit(what)) from None
    raise MalformedNumber(f"cannot parse rational literal {excerpt(repr(text))}")


def over_digit_limit(what: str) -> str:
    """Error message for a number longer than Python allows in int/str
    conversion (``sys.set_int_max_str_digits``)."""
    return (
        f"{what} exceeds the limit of {sys.get_int_max_str_digits()} digits"
        " for decimal integers"
    )


def rat(value) -> Rational:
    """Coerce an int, rational scalar, or literal string to the backend type."""
    if isinstance(value, str):
        return rational_from_string(value)
    return Rational(value)


def rat_str(value) -> str:
    """Canonical serialization: ``p/q``, or bare ``p`` when q = 1."""
    num, den = value.numerator, value.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise LsglueError(over_digit_limit("an exact value to be written")) from None


def rat_float(value) -> float | None:
    """Advisory float approximation, never fed back into exact computation;
    None when the value lies beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return None
