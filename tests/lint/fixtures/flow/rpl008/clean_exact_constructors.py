"""Integer ratios, strings and Fractions are the exact constructions."""

from fractions import Fraction


def exact_lower_bound(value):
    """Exact Section 4.3 style bound."""
    return Fraction(320, 317) * value


ratio = Fraction(1, 10)
parsed = Fraction("0.5")  # string parsing is exact
bound = exact_lower_bound(Fraction(3, 2))
