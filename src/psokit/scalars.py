"""Strict textual grammar for complex scalars used in scenario files.

A value is ``R``, ``Bi`` or ``R+Bi`` / ``R-Bi`` where R and B are decimal
literals (optionally signed, optionally with an exponent) and the imaginary
part carries a mandatory ``i`` suffix; a bare ``i`` means ``1i``.
"""

from __future__ import annotations

import cmath
import math
import re

_DEC = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_PATTERN = re.compile(
    rf"^\s*(?:"
    rf"(?P<re>[+-]?{_DEC})(?P<im_joint>[+-](?:{_DEC})?)i"
    rf"|(?P<im_only>[+-]?(?:{_DEC})?)i"
    rf"|(?P<re_only>[+-]?{_DEC})"
    rf")\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse ``"a+bi"`` style literals or JSON numbers; raises ValueError on
    anything else, a bool and a value that is not finite included."""
    if isinstance(text, bool):
        raise ValueError(f"invalid complex literal {text!r}: a bool is not a number")
    if not isinstance(text, (str, int, float)):
        raise ValueError(f"invalid complex literal {text!r}: expected a string or a number")
    try:
        z = complex(text) if isinstance(text, (int, float)) else _parse_text(text)
    except OverflowError:  # an int beyond the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ValueError(f"invalid complex literal {text!r}: not finite")
    return z


def _parse_text(text: str) -> complex:
    m = _PATTERN.match(text)
    if not m:
        raise ValueError(
            f"invalid complex literal {text!r}: expected forms like "
            "'2', '-0.5i', '3+i', '1.5-2e-3i'"
        )
    if m.group("re_only") is not None:
        return complex(float(m.group("re_only")), 0.0)
    if m.group("im_only") is not None:
        part = m.group("im_only")
        if part in ("", "+"):
            return 1j
        if part == "-":
            return -1j
        return complex(0.0, float(part))
    re_part = float(m.group("re"))
    im_text = m.group("im_joint")
    im_part = float(im_text + "1") if im_text in ("+", "-") else float(im_text)
    return complex(re_part, im_part)


def _fmt_float(x: float) -> str:
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def format_complex(z: complex) -> str:
    """Deterministic inverse of parse_complex (shortest round-trip floats)."""
    z = complex(z)
    if z.imag == 0:
        return _fmt_float(z.real)
    imag = f"{_fmt_float(z.imag)}i"
    if z.real == 0:
        return imag
    if z.imag > 0:
        return f"{_fmt_float(z.real)}+{imag}"
    return f"{_fmt_float(z.real)}{imag}"
