"""A float literal passed directly to an exact-marked function."""

from fractions import Fraction


def exact_lower_bound(value):
    """Exact Section 4.3 style bound."""
    return Fraction(320, 317) * value


bound = exact_lower_bound(1.5)
