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
    # a float (only json numbers like 0.25) is read by its text, so it
    # stays exact; json reads 1e400 as inf, whose text no Fraction reads
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational")
    try:
        # plain ASCII integer text is read by int(), which is faster than
        # Fraction's pattern; int() refuses the same over-long digit runs
        if s.isascii() and (s.isdigit() or s[0] == "-" and s[1:].isdigit()):
            return Fraction(int(s))
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Rat) -> str:
    """Canonical text form: integer part only when the denominator is 1.

    Any value other than a Fraction or an int is read as `parse_rational`
    reads it, so a float gives its decimal text's value and a bool raises."""
    # str's form of a Fraction, read off its two ints: str() and
    # as_integer_ratio() each pay a Python-level method call
    if type(value) is Fraction:
        den = value._denominator
        return str(value._numerator) if den == 1 else f"{value._numerator}/{den}"
    if type(value) is int:
        return str(value)
    return str(parse_rational(value))
