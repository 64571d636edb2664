"""Polynomials over GF(2) and primitivity testing.

Pattern generators and signature registers are built around linear feedback
shift registers whose feedback is described by a polynomial over GF(2).  For
testability the paper requires *primitive* feedback polynomials (maximal
length sequences); the state-assignment procedure then chooses among all
primitive polynomials of the required degree the one whose feedback function
``m(s)`` is cheapest to combine with the first excitation variable.

Polynomials are represented as plain integers: bit ``i`` holds the
coefficient of ``x**i``.  For example ``0b111`` is ``x**2 + x + 1``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

__all__ = [
    "degree",
    "poly_to_string",
    "poly_from_taps",
    "taps_from_poly",
    "multiply_mod",
    "power_mod",
    "is_irreducible",
    "is_primitive",
    "primitive_polynomials",
    "default_primitive_polynomial",
]


def degree(poly: int) -> int:
    """Degree of the polynomial (``-1`` for the zero polynomial)."""
    return poly.bit_length() - 1


def poly_to_string(poly: int) -> str:
    """Human-readable form, e.g. ``x^3 + x + 1``."""
    if poly == 0:
        return "0"
    terms = []
    for i in range(degree(poly), -1, -1):
        if poly >> i & 1:
            if i == 0:
                terms.append("1")
            elif i == 1:
                terms.append("x")
            else:
                terms.append(f"x^{i}")
    return " + ".join(terms)


def poly_from_taps(taps: List[int], deg: int) -> int:
    """Build ``x**deg + sum(x**t for t in taps) + ...``; tap 0 adds the constant."""
    poly = 1 << deg
    for t in taps:
        if t < 0 or t > deg:
            raise ValueError(f"tap {t} outside polynomial degree {deg}")
        poly |= 1 << t
    return poly


def taps_from_poly(poly: int) -> List[int]:
    """Exponents with non-zero coefficient, excluding the leading term."""
    deg = degree(poly)
    return [i for i in range(deg) if poly >> i & 1]


def _poly_mod(value: int, modulus: int) -> int:
    deg_m = degree(modulus)
    while degree(value) >= deg_m and value:
        value ^= modulus << (degree(value) - deg_m)
    return value


def multiply_mod(a: int, b: int, modulus: int) -> int:
    """Multiply two polynomials modulo ``modulus`` over GF(2)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
    return _poly_mod(result, modulus)


def power_mod(base: int, exponent: int, modulus: int) -> int:
    """Compute ``base**exponent mod modulus`` over GF(2)."""
    result = 1
    base = _poly_mod(base, modulus)
    while exponent:
        if exponent & 1:
            result = multiply_mod(result, base, modulus)
        base = multiply_mod(base, base, modulus)
        exponent >>= 1
    return result


def is_irreducible(poly: int) -> bool:
    """Rabin's irreducibility test over GF(2)."""
    deg = degree(poly)
    if deg <= 0:
        return False
    if deg == 1:
        return True
    x = 0b10
    # x^(2^deg) == x (mod poly) is necessary...
    if power_mod(x, 1 << deg, poly) != _poly_mod(x, poly):
        return False
    # ...and x^(2^(deg/q)) - x must be coprime with poly for each prime q | deg.
    for q in _prime_factors(deg):
        h = power_mod(x, 1 << (deg // q), poly) ^ _poly_mod(x, poly)
        if _poly_gcd(h, poly) != 1:
            return False
    return True


def is_primitive(poly: int) -> bool:
    """``True`` when ``poly`` is primitive over GF(2).

    A degree-``r`` polynomial is primitive when it is irreducible and the
    multiplicative order of ``x`` modulo the polynomial is ``2**r - 1``.
    """
    deg = degree(poly)
    if deg <= 0:
        return False
    if not (poly & 1):
        return False  # divisible by x
    if not is_irreducible(poly):
        return False
    order = (1 << deg) - 1
    x = 0b10
    if power_mod(x, order, poly) != 1:
        return False
    for q in _prime_factors(order):
        if power_mod(x, order // q, poly) == 1:
            return False
    return True


@lru_cache(maxsize=None)
def primitive_polynomials(deg: int, limit: int = 0) -> Tuple[int, ...]:
    """All (or the first ``limit``) primitive polynomials of degree ``deg``.

    Memoised: every MISR state assignment enumerates the primitives of
    its register width again.  A tuple keeps the shared value immutable.
    """
    if deg < 1:
        raise ValueError("degree must be >= 1")
    found: List[int] = []
    for candidate in range((1 << deg) | 1, 1 << (deg + 1), 2):
        if is_primitive(candidate):
            found.append(candidate)
            if limit and len(found) >= limit:
                break
    return tuple(found)


@lru_cache(maxsize=None)
def default_primitive_polynomial(deg: int) -> int:
    """The lexicographically smallest primitive polynomial of a given degree."""
    polys = primitive_polynomials(deg, limit=1)
    if not polys:
        raise ValueError(f"no primitive polynomial of degree {deg} found")
    return polys[0]


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _prime_factors(value: int) -> List[int]:
    factors: List[int] = []
    n = value
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors
