"""Exact rational scalars with a selectable arithmetic backend.

Two interchangeable scalar types are supported:

* ``gmp`` -- :class:`gmpy2.mpq`, GMP-backed compiled rationals (the default
  whenever ``gmpy2`` is importable).
* ``fractions`` -- :class:`fractions.Fraction` from the standard library, a
  pure-Python fallback with identical semantics.

The pipeline does not use this type: elimination, the normal sums, the claim
checks, the face sums, the Koszul coefficients and the report reader and
writer run on Python integers over a common denominator, whichever backend
is chosen.  A ``Rational`` is built only by :func:`rat`, for the rational
views (a vector's or a matrix's entries, a data set's points, a Koszul
coefficient's ``c0``), ``Vector.dot`` and a few error paths, so a
``cocycle`` or ``verify`` run builds none.

The backend is chosen once at import time.  Set ``LSGLUE_BACKEND=gmp`` or
``LSGLUE_BACKEND=fractions`` to force a choice; forcing ``gmp`` without
``gmpy2`` installed is an import error, and so is any other value.  Under
``fractions`` the module :mod:`fractions` (with ``decimal``, ``numbers`` and
``re``, which it imports) is loaded at the first rational built, not at
import; ``Rational``, ``ZERO`` and ``ONE`` are bound when first read (a
module ``__getattr__``).  Both types keep values in canonical
form automatically: positive denominator, gcd(|num|, den) = 1, zero as 0/1.

``benchmarks/bench_backends.py`` compares the two backends on representative
workloads.
"""

from __future__ import annotations

import os
import sys
from math import gcd, lcm

from .errors import MalformedNumber, ZeroDenominator, excerpt

_requested = os.environ.get("LSGLUE_BACKEND", "").strip().lower()

if _requested not in ("", "gmp", "fractions"):
    raise ImportError(
        f"unknown LSGLUE_BACKEND={_requested!r}; expected 'gmp' or 'fractions'"
    )

# The backend's rational type; under ``fractions`` it is imported by _load.
_Rational = None

if _requested in ("", "gmp"):
    try:
        from gmpy2 import mpq as _Rational

        BACKEND = "gmp"
    except ImportError:
        if _requested == "gmp":
            raise ImportError(
                "LSGLUE_BACKEND=gmp requested but gmpy2 is not installed"
            ) from None
        BACKEND = "fractions"
else:
    BACKEND = "fractions"


def _load():
    """The backend's rational type, imported on the first call under
    ``fractions``; binds ``Rational``, ``ZERO`` and ``ONE``."""
    global _Rational, Rational, ZERO, ONE
    if _Rational is None:
        from fractions import Fraction as _Rational
    Rational, ZERO, ONE = _Rational, _Rational(0), _Rational(1)
    return _Rational


def __getattr__(name: str):
    """``Rational``, ``ZERO`` and ``ONE``, bound at their first read."""
    if name in ("Rational", "ZERO", "ONE"):
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def literal_pair(text: str) -> tuple:
    """The (numerator, denominator) of a rational literal in lowest terms,
    the denominator positive: the pair :class:`fractions.Fraction` of
    ``text`` holds, with no rational built.  Errors as
    :func:`rational_from_string`."""
    num, den = _literal(text)
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def rational_from_string(text: str) -> Rational:
    """Parse ``p``, ``p/q`` or a terminating decimal into an exact rational.

    :func:`_literal` is the grammar; ``/`` or ``.`` tells the form.  Decimal
    strings expand exactly (``"2.5"`` -> 5/2); there is no float round trip.
    Raises :class:`MalformedNumber` for anything outside the grammar or the
    digit limit, :class:`ZeroDenominator` for ``p/0``.
    """
    return rat(*_literal(text))


def literal_row(texts) -> tuple:
    """(nums, den): the rational literals ``texts`` as integers over the lcm
    of their denominators as written, unreduced, with no rational built;
    ``linalg.Vector`` brings them to lowest terms in one gcd chain.  Errors
    as :func:`rational_from_string`, at the first literal that has one."""
    pairs = [_literal(text) for text in texts]
    den = lcm(*(d for _, d in pairs))
    return [n if d == den else n * (den // d) for n, d in pairs], den


def _literal(text: str) -> tuple:
    """(numerator, denominator > 0) of a literal, not yet reduced: the one
    reader of :func:`literal_pair`, :func:`literal_row` and
    :func:`rational_from_string`, and the grammar: after ``str.strip``, an
    optional ``-``, then ASCII digits, then optionally ``/`` or ``.`` and
    ASCII digits.  The first ``/``, or else the first ``.``, splits the
    unsigned body, and each side must be digits.  A
    decimal's integer and fractional digits are converted apart, as
    ``Fraction`` converts them, so each meets the digit limit on its own."""
    if not isinstance(text, str):
        raise MalformedNumber(f"expected string, got {type(text).__name__}")
    body = text.strip()
    negative = body.startswith("-")
    unsigned = body[1:] if negative else body
    whole, sep, part = unsigned.partition("/" if "/" in unsigned else ".")
    if not (_is_digits(whole) and (not sep or _is_digits(part))):
        raise MalformedNumber(f"cannot parse rational literal {excerpt(repr(text))}")
    try:
        if sep == "/":
            den = int(part)
            if den == 0:
                raise ZeroDenominator(f"zero denominator in {excerpt(repr(text))}")
            num = int(whole)
        elif sep:
            den = 10 ** len(part)
            num = int(whole) * den + int(part)
        else:
            num, den = int(whole), 1
    except ValueError:
        # The grammar admits only digits, so int() fails only on Python's
        # limit on the length of decimal integer strings.
        what = f"rational literal {excerpt(repr(body))}"
        raise MalformedNumber(over_digit_limit(what)) from None
    return (-num if negative else num), den


def _is_digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits: ``bytes.isdigit`` reads
    only those, where ``str.isdigit`` also admits other scripts' digits and
    the superscripts; it is also some ten times as fast on a long literal."""
    return text.isascii() and text.encode().isdigit()


def digit_limit() -> int:
    """Python's limit on decimal integer strings; 0 for none, also where
    ``sys.get_int_max_str_digits`` is missing (3.10.0-3.10.6)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def over_digit_limit(what: str) -> str:
    """Error message for a number longer than Python allows in int/str
    conversion (:func:`digit_limit`)."""
    return f"{what} exceeds the limit of {digit_limit()} digits for decimal integers"


def rat(value, den: int = 1) -> Rational:
    """Coerce an int, rational scalar, or literal string to the backend
    type; with ``den``, the rational ``value / den`` of two ints.  Every
    rational of the package is built here, so under ``fractions`` the
    module is imported with the first one (:func:`_load`)."""
    if isinstance(value, str):
        return rational_from_string(value)
    kind = _Rational or _load()
    return kind(value) if den == 1 else kind(value, den)


def rat_str(value) -> str:
    """Canonical serialization: ``p/q``, or bare ``p`` when q = 1, whatever
    the length of p and q (:func:`pair_str`)."""
    return pair_str(value.numerator, value.denominator)


def pair_str(num: int, den: int) -> str:
    """``num/den``, in lowest terms with ``den`` > 0, as :func:`rat_str`
    writes it; past the interpreter's digit limit, the integers are spelled
    by :func:`_decimal`."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"


# Decimal digits per piece of :func:`_decimal`: below 640, the least digit
# limit the interpreter accepts, so ``str`` spells each piece under any limit.
_PIECE = 600


# 10 ** (_PIECE · 2^j) by j, computed once each.
_TEN_POWERS = {}


def _ten_power(j: int) -> int:
    """10 ** (_PIECE · 2^j)."""
    power = _TEN_POWERS.get(j)
    if power is None:
        power = _TEN_POWERS[j] = 10 ** (_PIECE << j)
    return power


def _decimal(value: int) -> str:
    """``str(value)`` at any length: |value| is split at the largest
    10^(_PIECE·2^j) not above it, and the two parts are spelled recursively,
    the lower one padded to its width."""
    if value < 0:
        return "-" + _decimal(-value)
    if value < _ten_power(0):
        return str(value)
    j = 0
    while _ten_power(j + 1) <= value:
        j += 1
    high, low = divmod(value, _ten_power(j))
    return _decimal(high) + _padded(low, j)


def _padded(value: int, j: int) -> str:
    """The _PIECE·2^j decimal digits of 0 <= ``value`` < 10^(_PIECE·2^j),
    leading zeros included."""
    if j == 0:
        return str(value).zfill(_PIECE)
    high, low = divmod(value, _ten_power(j - 1))
    return _padded(high, j - 1) + _padded(low, j - 1)


def rat_float(value) -> float | None:
    """Advisory float approximation, never fed back into exact computation;
    None when the value lies beyond the float range (:func:`pair_float`)."""
    return pair_float(value.numerator, value.denominator)


def pair_float(num: int, den: int) -> float | None:
    """The float of ``num / den``, ``den`` > 0, in lowest terms or not: int
    true division, which rounds the exact ratio correctly, as ``float`` of a
    ``Fraction`` does; the gmp backend's integers are converted to ``int``
    first.  None when the ratio lies beyond the float range."""
    try:
        return int(num) / int(den)
    except OverflowError:
        return None
