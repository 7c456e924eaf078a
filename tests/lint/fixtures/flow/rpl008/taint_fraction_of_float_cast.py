"""A float() cast written straight into Fraction()."""

from fractions import Fraction

cast = Fraction(float("0.5"))
