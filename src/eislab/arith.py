"""Integer-arithmetic kernels: divisor sums, Kloosterman sums, the Hecke-relation
check.

Divisor lists come from trial-division factorization, and divisor sums over
a whole range 1..n_max from one strided sieve.  Kloosterman sums are
evaluated by direct O(c) enumeration over invertible residues with the
inverse from the extended gcd (``pow(x, -1, c)``); that is comfortably fast
for the moduli a desk-scale trace-formula check ever touches.
"""

from __future__ import annotations

import math

import numpy as np

from eislab.errors import DomainError, InvariantError, MissingEigenvalueError


def divisors(m: int):
    """Sorted list of the positive divisors of m, by trial-division factorization."""
    if m < 1:
        raise DomainError(f"divisors need m >= 1, got {m}")
    factors = {}
    n = m
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for p, e in factors.items():
        divs = [dd * p ** k for dd in divs for k in range(e + 1)]
    return sorted(divs)


def tau_gen(m: int, gamma):
    """Generalized divisor function m^(-i gamma) sum_{a|m} a^(2 i gamma), for a
    number gamma or elementwise over an array of them.

    Real valued, even in gamma, bounded by the divisor count d(m).
    """
    if m < 1:
        raise DomainError(f"tau_gen needs m >= 1, got {m}")
    g = np.asarray(gamma, dtype=float)
    a = np.array(divisors(m), dtype=float)
    val = np.exp(-1j * g * math.log(m)) * np.sum(np.exp(2j * g[..., None] * np.log(a)), axis=-1)
    real = np.abs(val.imag) < 1e-12 * np.maximum(1.0, np.abs(val.real))
    if not real.all():
        i = np.flatnonzero(~real)[0]
        raise InvariantError(f"tau_gen({m}, {g.flat[i]}) is not real: {val.flat[i]}")
    return val.real if g.ndim else float(val.real)


def tau_gen_many(n_max: int, gamma: float) -> np.ndarray:
    """tau_gen(n, gamma) for n = 1..n_max (index 0 unused): n^(-i gamma)
    times ``sigma_complex_many(n_max, 2 i gamma)``."""
    n = np.arange(n_max + 1, dtype=float)
    n[0] = 1.0
    out = sigma_complex_many(n_max, 2j * gamma)
    out *= np.exp(-1j * gamma * np.log(n))
    if not np.max(np.abs(out.imag[1:])) < 1e-9:
        raise InvariantError(f"tau_gen_many({n_max}, {gamma}) is not real")
    return out.real


def weil_bound(n: int, m: int, c: int) -> float:
    """Weil's bound d(c) sqrt(gcd(n, m, c) c) on |S(n, m; c)|."""
    return len(divisors(c)) * math.sqrt(math.gcd(n, math.gcd(m, c)) * c)


def kloosterman(n: int, m: int, c: int) -> float:
    """Kloosterman sum S(n, m; c) over invertible residues mod c.

    Checks that the imaginary part is negligible and that ``weil_bound``
    holds (raising InvariantError otherwise), then returns the real part.
    """
    if c < 1:
        raise DomainError(f"kloosterman needs c >= 1, got {c}")
    if c == 1:
        return 1.0
    xs, xinvs = [], []
    for x in range(1, c):
        if math.gcd(x, c) == 1:
            xs.append(x)
            xinvs.append(pow(x, -1, c))
    xs = np.array(xs, dtype=float)
    xinvs = np.array(xinvs, dtype=float)
    angles = 2.0 * np.pi * ((n * xs + m * xinvs) % c) / c
    val = np.sum(np.cos(angles)) + 1j * np.sum(np.sin(angles))
    if not abs(val.imag) < 1e-9 * max(1.0, len(xs)):
        raise InvariantError(f"S({n},{m};{c}) is not real: {val}")
    s = float(val.real)
    weil = weil_bound(n, m, c)
    if not abs(s) <= weil + 1e-6:
        raise InvariantError(f"Weil bound violated: |S({n},{m};{c})|={abs(s)} > {weil}")
    return s


def sigma_complex_many(n_max: int, a: complex) -> np.ndarray:
    """sigma_a(n) = sum_{d | n} d^a for n = 1..n_max (index 0 unused), complex a.

    2 isqrt(n_max) strided adds in O(n_max) memory: each d <= s = isqrt(n_max)
    is added to its multiples d, 2d, ... by one slice, and each cofactor
    j <= s adds every d > s with d j <= n_max to j d by one slice of step j.
    """
    n = np.arange(n_max + 1, dtype=float)
    n[0] = 1.0
    e = np.exp(complex(a) * np.log(n))
    out = np.zeros(n_max + 1, dtype=complex)
    s = math.isqrt(n_max)
    for d in range(1, s + 1):
        out[d::d] += e[d]
    for j in range(1, s + 1):
        out[j * (s + 1):j * (n_max // j) + 1:j] += e[s + 1:n_max // j + 1]
    return out


def hecke_relation_check(eig, n: int, m: int) -> float:
    """|lambda(n) lambda(m) - sum_{k | (n,m)} lambda(n m / k^2)| for the
    eigenvalue mapping ``eig`` from index to lambda.  Used to validate
    ingested eigenvalue data.
    """
    if n < 1 or m < 1:
        raise DomainError("hecke_relation_check needs n, m >= 1")

    def lam(k):
        try:
            return eig[k]
        except KeyError as exc:
            raise MissingEigenvalueError(f"lambda({k}) not available") from exc

    rhs = 0.0
    for k in divisors(math.gcd(n, m)):
        rhs += lam(n * m // (k * k))
    return abs(lam(n) * lam(m) - rhs)
