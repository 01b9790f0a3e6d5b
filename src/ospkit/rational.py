"""Exact rational values and their text forms.

Every type value, payment and report number in this package is a
`fractions.Fraction`.  Text forms accepted: "3", "-2", "7/2", "0.25".
Emitted form: "n" for integers, "n/d" otherwise.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction


def parse_rational(text: str | int | float | Fraction) -> Rat:
    """Parse a rational from its text form (or pass through a number)."""
    # isinstance against Fraction would run the abc machinery in Python;
    # a subclass parses through its text below
    if type(text) is Fraction:
        return text
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        # floats appear only via json numbers like 0.25; keep them exact
        return Fraction(str(text))
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Rat) -> str:
    """Canonical text form: integer part only when the denominator is 1."""
    # str of a Fraction already is that form; other numbers go through one
    return str(value if type(value) in (Fraction, int) else Fraction(value))
