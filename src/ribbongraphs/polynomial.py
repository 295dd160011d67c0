"""Exact sparse Laurent polynomials over the integers.

Every ring used in this package fixes, per variable, a denominator for the
exponent lattice: a scale of 2 admits half-integer exponents, a scale of 4
quarter-integer ones.  Exponents are stored premultiplied by their scale, so
term keys are plain integer tuples and all arithmetic stays exact.  The rings
actually used are

* ``RING_XYZ`` -- three variables x, y, z with scales (2, 2, 1), the home of
  the ribbon-graph polynomials (x and y may carry half-integer powers);
* ``RING_XY``  -- the two-variable image of the restriction map;
* ``RING_ABD`` -- bracket polynomials in A, B, d with integer exponents;
* ``RING_T``   -- one variable t with quarter-integer exponents.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple, Sequence

from .errors import FractionalExponent, NegativeExponentNonUnit, RingMismatch

__all__ = [
    "Ring",
    "RING_XYZ",
    "RING_XY",
    "RING_ABD",
    "RING_T",
    "Laurent",
    "restrict_duality_surface",
]


class Ring(NamedTuple):
    """Variable names plus per-variable exponent denominators."""

    names: tuple[str, ...]
    scales: tuple[int, ...]


RING_XYZ = Ring(("x", "y", "z"), (2, 2, 1))
RING_XY = Ring(("x", "y"), (2, 2))
RING_ABD = Ring(("A", "B", "d"), (1, 1, 1))
RING_T = Ring(("t",), (4,))

Key = tuple[int, ...]


class Laurent:
    """Immutable sparse Laurent polynomial attached to a :class:`Ring`.

    ``terms`` maps scaled exponent tuples to nonzero integer coefficients.
    Instances compare structurally and are hashable; all operations return
    new objects.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[Key, int] | None = None):
        clean: dict[Key, int] = {}
        width = len(ring.names)
        if terms:
            for key, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(key) != width:
                    raise RingMismatch(f"key {key!r} does not fit ring {ring.names}")
                clean[tuple(key)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Laurent instances are immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Laurent":
        return cls(ring)

    @classmethod
    def const(cls, ring: Ring, value: int) -> "Laurent":
        return cls(ring, {(0,) * len(ring.names): value})

    @classmethod
    def monomial(cls, ring: Ring, key: Sequence[int], coeff: int = 1) -> "Laurent":
        """Single term from a *scaled* exponent tuple."""
        return cls(ring, {tuple(key): coeff})

    # ------------------------------------------------------------------
    # ring arithmetic
    # ------------------------------------------------------------------

    def _same_ring(self, other: "Laurent") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"ring mismatch: {self.ring.names} vs {other.ring.names}")

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = Laurent.const(self.ring, other)
        self._same_ring(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return Laurent(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        return self + (-other)

    def __rsub__(self, other: int) -> "Laurent":
        return Laurent.const(self.ring, other) - self

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            return Laurent(self.ring, {k: c * other for k, c in self.terms.items()})
        self._same_ring(other)
        out: dict[Key, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0) + c1 * c2
        return Laurent(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Laurent":
        if power < 0:
            return self.inverse_unit() ** (-power)
        result = Laurent.const(self.ring, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def inverse_unit(self) -> "Laurent":
        """Inverse of a one-term polynomial with coefficient +-1."""
        if len(self.terms) != 1:
            raise NegativeExponentNonUnit(f"{self.render()} is not a unit monomial")
        ((key, coeff),) = self.terms.items()
        if coeff not in (1, -1):
            raise NegativeExponentNonUnit(f"coefficient {coeff} is not invertible")
        return Laurent(self.ring, {tuple(-u for u in key): coeff})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Laurent)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Laurent({self.render()!r})"

    # ------------------------------------------------------------------
    # structural maps
    # ------------------------------------------------------------------

    def substitute(self, var: str, value: "Laurent") -> "Laurent":
        """Replace the variable named ``var`` by a polynomial of the same
        ring (else RingMismatch).

        The replaced variable must occur with integer exponents, and with
        nonnegative ones unless ``value`` is an invertible monomial.
        """
        if var not in self.ring.names:
            raise RingMismatch(f"no variable {var!r} in ring {self.ring.names}")
        i = self.ring.names.index(var)
        self._same_ring(value)
        scale = self.ring.scales[i]
        exps: dict[int, dict[Key, int]] = {}
        for key, coeff in self.terms.items():
            if key[i] % scale:
                raise FractionalExponent(
                    f"{self.ring.names[i]} occurs with exponent "
                    f"{Fraction(key[i], scale)}"
                )
            e = key[i] // scale
            rest = key[:i] + (0,) + key[i + 1 :]
            exps.setdefault(e, {})[rest] = exps.setdefault(e, {}).get(rest, 0) + coeff
        result = Laurent(self.ring)
        for e, bucket in exps.items():  # a negative power inverts a unit
            result = result + Laurent(self.ring, bucket) * value**e
        return result

    def evaluate(self, values: Sequence[int]) -> int:
        """Evaluate at integer points, one value per variable of the ring.
        Exponents must be integers, and nonnegative wherever the value is
        not +-1 (0**0 counts as 1)."""
        if len(values) != len(self.ring.names):
            raise RingMismatch(
                f"{len(values)} values for the {len(self.ring.names)} variables"
                f" of ring {self.ring.names}"
            )
        total = 0
        for key, coeff in self.terms.items():
            prod = coeff
            for u, scale, v in zip(key, self.ring.scales, values):
                if u % scale:
                    raise FractionalExponent(
                        f"cannot evaluate fractional exponent {Fraction(u, scale)}"
                    )
                e = u // scale
                if e < 0 and v not in (1, -1):
                    raise NegativeExponentNonUnit(f"negative power of non-unit value {v}")
                prod *= v**e if e >= 0 else v**-e
            total += prod
        return total

    # ------------------------------------------------------------------
    # text form
    # ------------------------------------------------------------------

    def _ordered_terms(self) -> list[tuple[Key, int]]:
        if len(self.ring.names) == 1:
            return sorted(self.terms.items())
        lcm = 1
        for s in self.ring.scales:
            lcm = lcm * s // gcd(lcm, s)
        mult = [lcm // s for s in self.ring.scales]

        def rank(item: tuple[Key, int]):
            key = item[0]
            degree = sum(u * m for u, m in zip(key, mult))
            return (degree, key)

        return sorted(self.terms.items(), key=rank, reverse=True)

    def render(self) -> str:
        """Deterministic text form: per term a coefficient and factors
        joined by ``*``, each power other than 1 written ``^p``, ``^(-p)``
        or ``^(p/q)``.  Terms run by ascending exponent in one variable,
        by descending total degree otherwise."""
        parts: list[str] = []
        for key, coeff in self._ordered_terms():
            factors = []
            for name, scale, u in zip(self.ring.names, self.ring.scales, key):
                if u == 0:
                    continue
                g = gcd(abs(u), scale)
                p, q = u // g, scale // g
                if q == 1 and p == 1:
                    factors.append(name)
                elif q == 1 and p > 1:
                    factors.append(f"{name}^{p}")
                elif q == 1:
                    factors.append(f"{name}^({p})")
                else:
                    factors.append(f"{name}^({p}/{q})")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def restrict_duality_surface(p: Laurent) -> Laurent:
    """Restrict a three-variable polynomial to the surface x*y*z^2 = 1.

    Eliminates z via z = x^(-1/2) y^(-1/2), mapping each term
    x^a y^b z^c to x^(a - c/2) y^(b - c/2): the scaled key (2a, 2b, c)
    becomes (2a - c, 2b - c).  Terms whose images meet are summed.
    """
    if p.ring != RING_XYZ:
        raise RingMismatch("restriction is defined on the (x, y, z) ring")
    out: dict[Key, int] = {}
    for (a, b, c), coeff in p.terms.items():
        key = (a - c, b - c)
        out[key] = out.get(key, 0) + coeff
    return Laurent(RING_XY, out)
