"""Sparse multivariate polynomial arithmetic over ZZ, Q and GF(p).

Everything downstream (chart geometry, jet expansion, obstruction rows, and
the jet-tower classes in ``thresholds``) is built on the single class here.
Design points:

* A polynomial is a map ``exponent tuple -> nonzero coefficient`` plus an
  ``arity`` (number of variables) and a ``modulus``.  ``modulus=None``
  means exact integer or rational (``fractions.Fraction``) coefficients; a
  prime ``p`` means GF(p) with canonical representatives ``0..p-1``.  Zero
  coefficients are never stored.
* Products pack each exponent tuple into one int with a field of equal
  width per variable, wide enough for the sum of the two operands' largest
  exponents, so adding two packed keys adds the exponent tuples without a
  carry between fields.  The one product loop, :func:`_packed_product`,
  multiplies packed maps: ``__mul__`` packs, calls it and unpacks (``terms``
  keeps tuple keys), and the jet expansion keeps its maps packed between
  products.  (Monagan & Pearce, "Polynomial division using dynamic arrays,
  heaps, and packed exponent vectors", CASC 2007.)
* There is no polynomial division: the jet pipeline builds every polynomial it needs
  from sums and products (``jets`` module docstring, steps 2 and 4).
* There is deliberately no rational-function type: denominators in the jet
  pipeline are tracked as explicit exponent bookkeeping by the callers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


class RingMismatch(Exception):
    """Raised when two operands live over different coefficient rings."""


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
        f, g = self.terms, other.terms
        if not f or not g:
            return MultiPoly.zero(self.arity, p)
        # One field per variable, wide enough for the largest exponent sum.
        width = (max(map(max, f)) + max(map(max, g))).bit_length() if self.arity else 0
        product = _packed_product({_pack(e, width): c for e, c in f.items()},
                                  {_pack(e, width): c for e, c in g.items()}, p)
        mask = (1 << width) - 1
        shifts = [width * i for i in reversed(range(self.arity))]
        terms = {tuple([key >> s & mask for s in shifts]): c for key, c in product.items()}
        return MultiPoly._make(self.arity, terms, p)

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

    # -- calculus ---------------------------------------------------------------

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


def _pack(exps: tuple[int, ...], width: int) -> int:
    """One int holding ``exps`` in ``width``-bit fields, first variable highest."""
    key = 0
    for e in exps:
        key = key << width | e
    return key


def _packed_product(
    f: dict[int, int], g: dict[int, int], modulus: int | None
) -> dict[int, int]:
    """The product of two polynomials held as ``packed key -> coefficient``
    maps (see :func:`_pack`), whose fields are wide enough that adding two
    keys never carries.  Coefficients come out canonical and nonzero."""
    if len(f) > len(g):  # the smaller operand in the outer loop
        f, g = g, f
    inner = list(g.items())
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in f.items():
        for k2, c2 in inner:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    if modulus is None:
        return {key: c for key, c in out.items() if c}
    return {key: r for key, c in out.items() if (r := c % modulus)}
