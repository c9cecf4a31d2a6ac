"""Formula parser tests: examples, arithmetic, and normalization properties."""

import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crysgram.errors import FormulaError
from crysgram.grammar import MAX_ELEMENTS, SYMBOLS, parse_formula


class TestExamples:
    def test_fe2o3(self):
        comp = parse_formula("Fe2O3")
        assert comp.items() == [("Fe", 0.4), ("O", 0.6)]

    def test_hydroxide_expansion(self):
        comp = parse_formula("Ca(OH)2")
        assert comp.items() == [("Ca", 0.2), ("O", 0.4), ("H", 0.4)]

    def test_unknown_element(self):
        with pytest.raises(FormulaError, match="Xz"):
            parse_formula("Xz3")

    def test_nested_parentheses(self):
        comp = parse_formula("K(Al(OH)2)3")
        # K1 Al3 O6 H6 out of 16 atoms
        assert comp.elements == ("K", "Al", "O", "H")
        assert comp.exact_fractions == (
            Fraction(1, 16), Fraction(3, 16), Fraction(6, 16), Fraction(6, 16))

    def test_decimal_counts(self):
        comp = parse_formula("Fe0.5Ni0.5")
        assert comp.items() == [("Fe", 0.5), ("Ni", 0.5)]

    def test_repeated_element_accumulates_in_first_slot(self):
        comp = parse_formula("CH3COOH")
        assert comp.elements == ("C", "H", "O")
        assert comp.exact_fractions == (
            Fraction(2, 8), Fraction(4, 8), Fraction(2, 8))

    def test_single_element(self):
        assert parse_formula("Si").items() == [("Si", 1.0)]


class TestErrors:
    @pytest.mark.parametrize("bad", ["", "   ", "()", "3", "Fe2O3)", "(Fe2O3",
                                     "Fe2(O3", "fe2O3", "Fe2O3.", "Fe 2",
                                     "Fe\u00b2O3", "Fe\u0663O"])
    def test_rejected(self, bad):
        with pytest.raises(FormulaError):
            parse_formula(bad)

    @pytest.mark.parametrize("bad, char, position", [
        ("Fe2O3.", ".", 5), ("(2H)", "2", 1), ("Fe 2", " ", 2),
        ("Fe2.5.1", ".", 5), ("Ca(OH]2", "]", 5)])
    def test_error_names_character_and_position(self, bad, char, position):
        with pytest.raises(FormulaError,
                           match=f"unexpected character '{re.escape(char)}' "
                           f"at position {position}$"):
            parse_formula(bad)

    def test_zero_total(self):
        with pytest.raises(FormulaError):
            parse_formula("Fe0")

    def test_too_many_elements(self):
        formula = "".join(SYMBOLS[:MAX_ELEMENTS + 1])
        with pytest.raises(FormulaError, match="limit"):
            parse_formula(formula)

    def test_twenty_elements_allowed(self):
        comp = parse_formula("".join(SYMBOLS[:MAX_ELEMENTS]))
        assert len(comp) == MAX_ELEMENTS


@st.composite
def integer_formulas(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    symbols = draw(st.permutations(SYMBOLS[:40]).map(lambda p: p[:n]))
    counts = draw(st.lists(st.integers(min_value=1, max_value=12),
                           min_size=n, max_size=n))
    text = "".join(f"{s}{c}" for s, c in zip(symbols, counts))
    return text, list(symbols), counts


# empty, integer or decimal counts, all positive
COUNTS = st.one_of(st.just(""), st.integers(1, 12).map(str),
                   st.from_regex(r"[0-3]\.[0-9]{0,2}[1-9]", fullmatch=True))


@st.composite
def nested_formulas(draw, depth=0):
    """Formulas with brackets nested up to three deep; SYMBOLS[:20] keeps
    every draw within MAX_ELEMENTS."""
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if depth < 3 and draw(st.booleans()):
            parts.append(f"({draw(nested_formulas(depth + 1))})")
        else:
            parts.append(draw(st.sampled_from(SYMBOLS[:20])))
        parts.append(draw(COUNTS))
    return "".join(parts)


class TestProperties:
    def test_scale_invariance_example(self):
        assert parse_formula("Fe2O3").items() == parse_formula("Fe4O6").items()

    @given(integer_formulas(), st.integers(min_value=2, max_value=5))
    def test_scale_invariance(self, sample, k):
        text, symbols, counts = sample
        scaled = "".join(f"{s}{c * k}" for s, c in zip(symbols, counts))
        assert parse_formula(text).items() == parse_formula(scaled).items()

    @given(integer_formulas())
    def test_fractions_sum_to_one(self, sample):
        text, _, _ = sample
        comp = parse_formula(text)
        assert math.isclose(sum(comp.fractions), 1.0, abs_tol=1e-9)
        assert sum(comp.exact_fractions) == 1
        assert all(0 < f <= 1 for f in comp.fractions)

    @given(integer_formulas())
    def test_roundtrip_composition(self, sample):
        text, _, _ = sample
        comp = parse_formula(text)
        again = parse_formula(comp.to_formula())
        assert again.elements == comp.elements
        assert again.exact_fractions == comp.exact_fractions

    def test_roundtrip_reduces(self):
        assert parse_formula("Fe4O6").to_formula() == "Fe2O3"


def reference_composition(text):
    """[(element, fraction)] with every count a Fraction from its string,
    accumulated on a stack of groups in first-appearance order."""
    stack = [{}]
    for symbol, count in re.findall(r"([A-Z][a-z]?|\(|\))(\d*\.?\d*)",
                                    text):
        amount = Fraction(count) if count else Fraction(1)
        if symbol == "(":
            stack.append({})
            continue
        if symbol == ")":
            added = {el: n * amount for el, n in stack.pop().items()}
        else:
            added = {symbol: amount}
        for el, n in added.items():
            stack[-1][el] = stack[-1].get(el, Fraction(0)) + n
    counts = stack[0]
    total = sum(counts.values(), Fraction(0))
    return [(el, n / total) for el, n in counts.items() if n > 0]


class TestAgainstFractionAccumulator:
    """Integer counts accumulate as ints; the result must equal, value
    and type, an accumulator that keeps every count a Fraction."""

    @pytest.mark.parametrize("text", [
        "Fe2O3", "CH3COOH", "NaCl", "Si", "Fe10O15", "Na0Cl",
        "Fe0.5Ni0.5", "Li0.33Fe0.5Mn0.17PO4", "Mg1.5Al0.25Si0.75O5.5",
        "K(Al(OH)2)3", "(NH4)2SO4", "Ca(OH)2", "Mg(Al0.25Si0.75)2O5.5",
        "((CH3)3N)0.5H", "Ba2(Ca(Nb0.333Ta0.667)O3)1.5", "H(He)0.5He3"])
    def test_equals_reference(self, text):
        comp = parse_formula(text)
        ref = reference_composition(text)
        assert comp.elements == tuple(el for el, _ in ref)
        assert all(type(f) is Fraction for f in comp.exact_fractions)
        assert pickle.dumps(comp.exact_fractions) == \
            pickle.dumps(tuple(f for _, f in ref))
        assert comp.fractions == tuple(float(f) for _, f in ref)

    @given(integer_formulas())
    def test_integer_formulas_equal_reference(self, sample):
        text, _, _ = sample
        comp = parse_formula(text)
        ref = reference_composition(text)
        assert list(zip(comp.elements, comp.exact_fractions)) == ref
        assert comp.fractions == tuple(float(f) for _, f in ref)

    @given(nested_formulas())
    def test_nested_decimal_formulas_equal_reference(self, text):
        comp = parse_formula(text)
        ref = reference_composition(text)
        assert comp.elements == tuple(el for el, _ in ref)
        assert pickle.dumps(comp.exact_fractions) == \
            pickle.dumps(tuple(f for _, f in ref))
        assert comp.fractions == tuple(float(f) for _, f in ref)
