"""Exact univariate polynomials over Python's big integers: the value
symbolic_determinant returns, with addition as its only arithmetic."""

from typing import Iterable


class Polynomial:
    """Immutable polynomial with integer coefficients.

    coeffs[j] is the coefficient of the j-th power; trailing zeros are
    trimmed so equal polynomials compare equal. The zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def monomial(cls, c: int, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("power must be non-negative")
        return cls((0,) * power + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> int:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs!r})"


_ZERO = Polynomial(())
