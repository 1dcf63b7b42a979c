"""Sparse multivariate polynomial arithmetic over ZZ, Q and GF(p).

Everything downstream (chart geometry, jet expansion, obstruction rows, and
the jet-tower classes in ``thresholds``) is built on the single class here.
Design points:

* A polynomial is a map ``exponent tuple -> nonzero coefficient`` plus an
  ``arity`` (number of variables) and a ``modulus``.  ``modulus=None``
  means exact integer or rational (``fractions.Fraction``) coefficients; a
  prime ``p`` means GF(p) with canonical representatives ``0..p-1``.  Zero
  coefficients are never stored.  :func:`exact_div` and
  :meth:`MultiPoly.reduce_mod` need integer coefficients when
  ``modulus=None``.
* The monomial order used for canonical iteration, leading terms and text
  rendering is graded lexicographic with the fixed variable order of the
  exponent tuples (higher total degree first, then lexicographically larger
  exponent tuple first).
* There is deliberately no rational-function type: denominators in the jet
  pipeline are tracked as explicit exponent bookkeeping by the callers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class RingMismatch(Exception):
    """Raised when two operands live over different coefficient rings."""


class NonDivisible(Exception):
    """Raised by :func:`exact_div` when the division leaves a remainder.

    The offending remainder is attached as ``remainder`` for diagnostics.
    """

    def __init__(self, message: str, remainder: "MultiPoly | None" = None):
        super().__init__(message)
        self.remainder = remainder


def glex_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the graded-lexicographic order (ascending)."""
    return (sum(exponents), exponents)


class MultiPoly:
    """Sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("arity", "modulus", "terms")

    def __init__(
        self,
        arity: int,
        terms: Mapping[tuple[int, ...], int] | None = None,
        modulus: int | None = None,
    ):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.arity = arity
        self.modulus = modulus
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != arity:
                    raise ValueError(
                        f"exponent tuple {exps!r} has length {len(exps)}, expected {arity}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps!r}")
                if modulus is not None:
                    coeff %= modulus
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _make(
        cls, arity: int, terms: dict[tuple[int, ...], int], modulus: int | None
    ) -> "MultiPoly":
        """Internal fast constructor: ``terms`` must already be canonical."""
        poly = cls.__new__(cls)
        poly.arity = arity
        poly.modulus = modulus
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, arity: int, modulus: int | None = None) -> "MultiPoly":
        return cls._make(arity, {}, modulus)

    @classmethod
    def constant(cls, arity: int, value: int, modulus: int | None = None) -> "MultiPoly":
        if modulus is not None:
            value %= modulus
        if not value:
            return cls._make(arity, {}, modulus)
        return cls._make(arity, {(0,) * arity: value}, modulus)

    @classmethod
    def variable(cls, arity: int, index: int, modulus: int | None = None) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls._make(arity, {exps: 1}, modulus)

    # -- basic protocol --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.modulus is not None:
            ring = f"GF({self.modulus})"
        elif any(isinstance(c, Fraction) for c in self.terms.values()):
            ring = "QQ"
        else:
            ring = "ZZ"
        return f"MultiPoly(arity={self.arity}, ring={ring}, {len(self.terms)} terms)"

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise RingMismatch(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )
        if self.modulus != other.modulus:
            raise RingMismatch(
                f"coefficient ring mismatch: {self.modulus} vs {other.modulus}"
            )

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.arity, other, self.modulus)
        self._check_compatible(other)
        p = self.modulus
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, 0) + coeff
            if p is not None:
                acc %= p
            if acc:
                out[exps] = acc
            elif exps in out:
                del out[exps]
        return MultiPoly._make(self.arity, out, p)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        p = self.modulus
        if p is None:
            out = {e: -c for e, c in self.terms.items()}
        else:
            out = {e: p - c for e, c in self.terms.items()}
        return MultiPoly._make(self.arity, out, p)

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(self.arity, other, self.modulus)
        return self + (-other)

    def __rsub__(self, other: int) -> "MultiPoly":
        return MultiPoly.constant(self.arity, other, self.modulus) - self

    def scale(self, value: int | Fraction) -> "MultiPoly":
        p = self.modulus
        if p is not None:
            value %= p
        if not value:
            return MultiPoly.zero(self.arity, p)
        if p is None:
            out = {e: c * value for e, c in self.terms.items()}
        else:
            out = {}
            for e, c in self.terms.items():
                c = c * value % p
                if c:
                    out[e] = c
        return MultiPoly._make(self.arity, out, p)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        p = self.modulus
        # Iterate over the smaller operand in the outer loop.
        f, g = (self.terms, other.terms)
        if len(f) > len(g):
            f, g = g, f
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        if p is not None:
            out = {e: cm for e, c in out.items() if (cm := c % p)}
        return MultiPoly._make(self.arity, out, p)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.constant(self.arity, 1, self.modulus)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution ----------------------------------------------

    def deriv(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        p = self.modulus
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if not e:
                continue
            c = coeff * e
            if p is not None:
                c %= p
                if not c:
                    continue
            key = exps[:var] + (e - 1,) + exps[var + 1 :]
            out[key] = out.get(key, 0) + c  # distinct keys: no collision possible
        return MultiPoly._make(self.arity, out, p)

    def substitute(self, var: int, value: "MultiPoly") -> "MultiPoly":
        """Substitute polynomial ``value`` (same arity/ring) for variable ``var``."""
        self._check_compatible(value)
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        # Horner on the coefficients of var^k, highest power first.
        by_power: dict[int, dict[tuple[int, ...], int]] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            key = exps[:var] + (0,) + exps[var + 1 :]
            by_power.setdefault(k, {})[key] = coeff
        if not by_power:
            return MultiPoly.zero(self.arity, self.modulus)
        powers = sorted(by_power, reverse=True)
        result = MultiPoly._make(self.arity, by_power[powers[0]], self.modulus)
        for prev, k in zip(powers, powers[1:]):
            for _ in range(prev - k):
                result = result * value
            result = result + MultiPoly._make(self.arity, by_power[k], self.modulus)
        for _ in range(powers[-1]):
            result = result * value
        return result

    def dehomogenize(self, var: int) -> "MultiPoly":
        """Set variable ``var`` to 1 and drop it, lowering the arity by one."""
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        p = self.modulus
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            key = exps[:var] + exps[var + 1 :]
            acc = out.get(key, 0) + coeff
            if p is not None:
                acc %= p
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        return MultiPoly._make(self.arity - 1, out, p)

    def embed(self, new_arity: int, positions: tuple[int, ...]) -> "MultiPoly":
        """Reinterpret over ``new_arity`` variables; old variable ``i`` becomes
        variable ``positions[i]``."""
        if len(positions) != self.arity:
            raise ValueError("positions must list a target for every variable")
        if len(set(positions)) != len(positions):
            raise ValueError("positions must be distinct")
        if any(not 0 <= q < new_arity for q in positions):
            raise ValueError("position out of range")
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            key = [0] * new_arity
            for i, e in enumerate(exps):
                key[positions[i]] = e
            out[tuple(key)] = coeff
        return MultiPoly._make(new_arity, out, self.modulus)

    def reduce_mod(self, p: int) -> "MultiPoly":
        """Image under the coefficient reduction ZZ -> GF(p)."""
        if self.modulus is not None:
            raise RingMismatch("reduce_mod expects integer coefficients")
        out = {}
        for e, c in self.terms.items():
            c %= p
            if c:
                out[e] = c
        return MultiPoly._make(self.arity, out, p)

    def evaluate(self, values: Iterable):
        """Evaluate at a point; works for any commutative coefficient targets
        (ints, Fractions, power-series objects) that support ``+`` and ``*``."""
        vals = list(values)
        if len(vals) != self.arity:
            raise ValueError("wrong number of values")
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                for _ in range(e):
                    term = term * v
            total = total + term
        if self.modulus is not None and isinstance(total, int):
            total %= self.modulus
        return total

    # -- structure inspection ----------------------------------------------------

    def total_degree(self) -> int:
        """Maximum total degree of any term (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Greatest term in the graded-lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=glex_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical (descending graded-lexicographic) order."""
        return sorted(self.terms.items(), key=lambda t: glex_key(t[0]), reverse=True)

    def coefficient_map(
        self, variables: tuple[int, ...]
    ) -> dict[tuple[int, ...], "MultiPoly"]:
        """Group terms by their exponents in ``variables``.

        Returns a map from the exponent pattern on ``variables`` to the
        polynomial (in the remaining variables, original order) multiplying it.
        """
        var_set = set(variables)
        if len(var_set) != len(variables):
            raise ValueError("variables must be distinct")
        keep = [i for i in range(self.arity) if i not in var_set]
        out: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for exps, coeff in self.terms.items():
            pattern = tuple(exps[i] for i in variables)
            rest = tuple(exps[i] for i in keep)
            out.setdefault(pattern, {})[rest] = coeff
        return {
            pattern: MultiPoly._make(len(keep), terms, self.modulus)
            for pattern, terms in out.items()
        }

    # -- rendering ---------------------------------------------------------------

    def to_str(self, names: tuple[str, ...] | list[str]) -> str:
        """Canonical text rendering, e.g. ``32*Z0*Z1*Z2 - x^2 + 1``."""
        if len(names) != self.arity:
            raise ValueError("need one name per variable")
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{sign} {body}")
        return " ".join(pieces)


# -- free functions mirroring the public contract --------------------------------


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient ``f / g``; raises :class:`NonDivisible` with the
    remainder attached when ``g`` does not divide ``f``.

    Uses single-divisor multivariate division in the graded-lexicographic
    order.  Over GF(p) coefficients divide freely; over ZZ a coefficient that
    is not an exact multiple sends the term to the remainder (for genuinely
    divisible inputs the quotient is integral, so this never misfires).
    """
    f._check_compatible(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    p = f.modulus
    g_exps, g_coeff = g.leading_term()
    if p is not None:
        g_inv = pow(g_coeff, p - 2, p)
    quotient: dict[tuple[int, ...], int] = {}
    remainder: dict[tuple[int, ...], int] = {}
    work = dict(f.terms)
    while work:
        exps = max(work, key=glex_key)
        coeff = work.pop(exps)
        diff = tuple(a - b for a, b in zip(exps, g_exps))
        ok = all(d >= 0 for d in diff)
        if ok:
            if p is not None:
                q = coeff * g_inv % p
            else:
                q, rem = divmod(coeff, g_coeff)
                ok = rem == 0
        if not ok:
            remainder[exps] = coeff
            continue
        quotient[diff] = q
        for ge, gc in g.terms.items():
            if ge == g_exps:
                continue  # the popped leading term is already cancelled
            key = tuple(d + e for d, e in zip(diff, ge))
            acc = work.get(key, 0) - q * gc
            if p is not None:
                acc %= p
            if acc:
                work[key] = acc
            elif key in work:
                del work[key]
    if remainder:
        rem_poly = MultiPoly._make(f.arity, remainder, p)
        raise NonDivisible("polynomial division left a remainder", rem_poly)
    return MultiPoly._make(f.arity, quotient, p)


def obstruction(
    f: MultiPoly, var_a: int, bound_a: int, var_b: int, bound_b: int
) -> MultiPoly:
    """The part of ``f`` obstructing divisibility by ``var_a**bound_a * var_b**bound_b``:
    all terms whose ``var_a``-degree is below ``bound_a`` **or** whose
    ``var_b``-degree is below ``bound_b``.

    ``f - obstruction(f, ...)`` is exactly divisible by the monomial, and the
    operation is idempotent.
    """
    for v in (var_a, var_b):
        if not 0 <= v < f.arity:
            raise ValueError(f"variable index {v} out of range")
    out = {
        exps: coeff
        for exps, coeff in f.terms.items()
        if exps[var_a] < bound_a or exps[var_b] < bound_b
    }
    return MultiPoly._make(f.arity, out, f.modulus)


def coefficient_of(
    f: MultiPoly, variables: tuple[int, ...], exponents: tuple[int, ...]
) -> MultiPoly:
    """Coefficient of the stated exponent pattern on ``variables``, as a
    polynomial in the remaining variables (original order)."""
    if len(variables) != len(exponents):
        raise ValueError("variables and exponents must align")
    grouped = f.coefficient_map(variables)
    found = grouped.get(tuple(exponents))
    if found is not None:
        return found
    keep = f.arity - len(variables)
    return MultiPoly.zero(keep, f.modulus)


def evaluate_fraction(f: MultiPoly, values: Iterable[Fraction]) -> Fraction:
    """Exact rational evaluation convenience wrapper."""
    if f.modulus is not None:
        raise RingMismatch("rational evaluation expects integer coefficients")
    return Fraction(f.evaluate(values))
