"""Exact integer Laurent polynomials in one variable z.

The skein engine stays in this ring end to end; nothing here may
introduce floats.
"""

from __future__ import annotations


class IntegerLaurentPoly:
    """Immutable Laurent polynomial with int coefficients.

    Stored as a mapping exponent -> coefficient with zero coefficients
    dropped, so equality and hashing are structural; a constant equals
    its int and hashes as it.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for exp, c in dict(coeffs).items():
                if not isinstance(exp, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be int")
                if c != 0:
                    clean[exp] = c
        self._coeffs = dict(sorted(clean.items()))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "IntegerLaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntegerLaurentPoly":
        return cls({0: 1})

    @classmethod
    def z(cls, power: int = 1) -> "IntegerLaurentPoly":
        return cls({power: 1})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return IntegerLaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntegerLaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return IntegerLaurentPoly(out)

    __rmul__ = __mul__

    # -- inspection ----------------------------------------------------

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def items(self):
        return tuple(self._coeffs.items())

    # -- equality / hashing / text ------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, IntegerLaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        if self._coeffs.keys() <= {0}:
            return hash(self._coeffs.get(0, 0))
        return hash(tuple(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"IntegerLaurentPoly({self._coeffs!r})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self._coeffs.items():
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}"
                zpow = "z" if e == 1 else f"z^{e}"
                term = f"{mag}{zpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_dict(self) -> dict[str, int]:
        """JSON-friendly form: exponent (as string) -> coefficient."""
        return {str(e): c for e, c in self._coeffs.items()}


def _coerce(value) -> IntegerLaurentPoly:
    if isinstance(value, IntegerLaurentPoly):
        return value
    if isinstance(value, int):
        return IntegerLaurentPoly({0: value})
    raise TypeError(f"cannot coerce {type(value).__name__} into the Laurent ring")
