"""A float literal written straight into Fraction() keeps its rounding error."""

from fractions import Fraction

poisoned = Fraction(0.1)
