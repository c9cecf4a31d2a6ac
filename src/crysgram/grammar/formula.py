"""Stoichiometric formula parsing with exact rational accumulation."""

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
    exact_fractions: tuple = field(repr=False, default=())

    def __post_init__(self):
        if not self.exact_fractions:
            object.__setattr__(
                self, "exact_fractions",
                tuple(Fraction(f).limit_denominator(10**9) for f in self.fractions))

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


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch


def _parse_count(scanner):
    start = scanner.pos
    digits = ""
    while scanner.peek().isdigit():
        digits += scanner.take()
    if scanner.peek() == ".":
        digits += scanner.take()
        if not scanner.peek().isdigit():
            raise FormulaError(
                f"{scanner.text!r}: bare decimal point at position {start}")
        while scanner.peek().isdigit():
            digits += scanner.take()
    if not digits:
        return 1
    return Fraction(digits) if "." in digits else int(digits)


def _parse_group(scanner, depth):
    """Parse a bracketed or top-level run; returns {element: count}.

    Counts stay ints until a decimal count turns one into a Fraction.
    """
    counts = {}
    order = []

    def bump(element, amount):
        if element not in counts:
            counts[element] = 0
            order.append(element)
        counts[element] += amount

    while True:
        ch = scanner.peek()
        if ch == "":
            if depth > 0:
                raise FormulaError(
                    f"{scanner.text!r}: unbalanced parentheses (missing ')')")
            break
        if ch == ")":
            if depth == 0:
                raise FormulaError(
                    f"{scanner.text!r}: unbalanced parentheses "
                    f"(')' at position {scanner.pos})")
            break
        if ch == "(":
            scanner.take()
            inner, inner_order = _parse_group(scanner, depth + 1)
            scanner.take()  # ')'
            multiplier = _parse_count(scanner)
            for element in inner_order:
                bump(element, inner[element] * multiplier)
            continue
        if ch.isupper():
            symbol = scanner.take()
            if scanner.peek().islower():
                symbol += scanner.take()
            if not is_element(symbol):
                raise FormulaError(
                    f"{scanner.text!r}: unknown element {symbol!r}")
            bump(symbol, _parse_count(scanner))
            continue
        raise FormulaError(
            f"{scanner.text!r}: unexpected character {ch!r} "
            f"at position {scanner.pos}")
    return counts, order


def parse_formula(text: str) -> FormulaComposition:
    """Parse a stoichiometric formula into normalized element fractions.

    Nested parentheses are expanded, repeated elements accumulate into
    their first slot, and counts are kept as exact rationals until the
    final normalization, so fractions always sum to exactly 1.
    """
    if not isinstance(text, str) or not text.strip():
        raise FormulaError("empty formula")
    scanner = _Scanner(text.strip())
    counts, order = _parse_group(scanner, 0)
    if scanner.pos != len(scanner.text):
        raise FormulaError(f"{text!r}: trailing input at position {scanner.pos}")
    total = sum(counts.values())
    if total == 0:
        raise FormulaError(f"{text!r}: zero total element count")
    positive = [(el, Fraction(counts[el], total)) for el in order
                if counts[el] > 0]
    if not positive:
        raise FormulaError(f"{text!r}: no elements with positive count")
    if len(positive) > MAX_ELEMENTS:
        raise FormulaError(
            f"{text!r}: {len(positive)} distinct elements, "
            f"limit is {MAX_ELEMENTS}")
    elements = tuple(el for el, _ in positive)
    exact = tuple(frac for _, frac in positive)
    return FormulaComposition(
        elements=elements,
        fractions=tuple(float(f) for f in exact),
        exact_fractions=exact,
    )
