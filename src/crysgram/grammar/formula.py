"""Stoichiometric formula parsing with exact rational accumulation."""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from ..errors import FormulaError
from .elements import is_element

MAX_ELEMENTS = 20


@dataclass(frozen=True)
class FormulaComposition:
    """Elements in first-appearance order with fractions summing to 1."""

    elements: tuple
    fractions: tuple
    exact_fractions: tuple = field(repr=False)

    def __len__(self):
        return len(self.elements)

    def items(self):
        return list(zip(self.elements, self.fractions))

    def to_formula(self) -> str:
        """Rebuild a formula string with the smallest integer counts."""
        lcd = 1
        for frac in self.exact_fractions:
            lcd = lcd * frac.denominator // gcd(lcd, frac.denominator)
        counts = [frac * lcd for frac in self.exact_fractions]
        common = 0
        for count in counts:
            common = gcd(common, count.numerator)
        parts = []
        for element, count in zip(self.elements, counts):
            n = count.numerator // common
            parts.append(element if n == 1 else f"{element}{n}")
        return "".join(parts)


# An opening bracket, or an element symbol or closing bracket and its count.
_PART = re.compile(r"\(|([A-Z][a-z]?|\))([0-9]*(?:\.[0-9]+)?)")


def _count(digits):
    if not digits:
        return 1
    return Fraction(digits) if "." in digits else int(digits)


def parse_formula(text: str) -> FormulaComposition:
    """Parse a stoichiometric formula into normalized element fractions.

    Nested parentheses are expanded, repeated elements accumulate into
    their first slot, and counts are kept as exact rationals until the
    final normalization, so fractions always sum to exactly 1.
    """
    if not isinstance(text, str) or not text.strip():
        raise FormulaError("empty formula")
    body = text.strip()
    # Counts stay ints until a decimal count turns one into a Fraction.
    stack = [{}]
    pos = 0
    while pos < len(body):
        match = _PART.match(body, pos)
        if match is None:
            raise FormulaError(f"{body!r}: unexpected character "
                               f"{body[pos]!r} at position {pos}")
        symbol, digits = match.groups()
        if symbol is None:
            stack.append({})
        elif symbol == ")":
            if len(stack) == 1:
                raise FormulaError(f"{body!r}: unbalanced parentheses "
                                   f"(')' at position {pos})")
            multiplier = _count(digits)
            for element, count in stack.pop().items():
                stack[-1][element] = (stack[-1].get(element, 0)
                                      + count * multiplier)
        elif not is_element(symbol):
            raise FormulaError(f"{body!r}: unknown element {symbol!r}")
        else:
            stack[-1][symbol] = stack[-1].get(symbol, 0) + _count(digits)
        pos = match.end()
    if len(stack) > 1:
        raise FormulaError(f"{body!r}: unbalanced parentheses (missing ')')")
    counts = stack[0]
    total = sum(counts.values())
    if total == 0:
        raise FormulaError(f"{text!r}: zero total element count")
    positive = [(el, n) for el, n in counts.items() if n > 0]
    if len(positive) > MAX_ELEMENTS:
        raise FormulaError(
            f"{text!r}: {len(positive)} distinct elements, "
            f"limit is {MAX_ELEMENTS}")
    # n / total of two ints is the correctly rounded quotient, the float
    # of Fraction(n, total); with a decimal count it is that Fraction
    return FormulaComposition(
        elements=tuple(el for el, _ in positive),
        fractions=tuple(float(n / total) for _, n in positive),
        exact_fractions=tuple(Fraction(n, total) for _, n in positive),
    )
