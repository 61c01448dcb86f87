"""Integer-arithmetic kernels: divisor sums, Kloosterman sums, Hecke utilities.

Divisor lists come from a sieve up to a configured limit, with trial-division
factorization as the fallback above it.  Kloosterman sums are evaluated by
direct O(c) enumeration over invertible residues with the inverse from the
extended gcd (``pow(x, -1, c)``); that is comfortably fast for the moduli a
desk-scale trace-formula check ever touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from eislab.errors import DomainError, InvariantError, MissingEigenvalueError
from eislab.specfun import zeta


@dataclass
class DivisorTable:
    """Sieved divisor lists for 1..limit, grown on demand."""

    limit: int = 10_000
    divisors: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("limit must be positive")
        self._sieve(self.limit)

    def _sieve(self, limit: int):
        divs = [[] for _ in range(limit + 1)]
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                divs[m].append(d)
        self.divisors = divs
        self.limit = limit

    def __call__(self, m: int):
        """Sorted list of positive divisors of m."""
        if m < 1:
            raise DomainError(f"divisors need m >= 1, got {m}")
        if m <= self.limit:
            return self.divisors[m]
        return _divisors_by_factorization(m)


def _divisors_by_factorization(m: int):
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


_table = DivisorTable(limit=1024)


def divisors(m: int):
    """Divisors of m from the shared table (sieve grows up to 10^5)."""
    global _table
    if m > _table.limit and m <= 100_000:
        _table = DivisorTable(limit=max(2 * _table.limit, m))
    return _table(m)


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
    """tau_gen(n, gamma) for n = 1..n_max (index 0 unused).

    sum_{d | n} d^(2 i gamma) by 2 isqrt(n_max) strided adds in O(n_max)
    memory: each d <= s = isqrt(n_max) is added to its multiples d, 2d, ...
    by one slice, and each cofactor j <= s adds every d > s with d j <= n_max
    to j d by one slice of step j.
    """
    n = np.arange(n_max + 1, dtype=float)
    n[0] = 1.0
    logs = np.log(n)
    e = np.exp(2j * gamma * logs)
    out = np.zeros(n_max + 1, dtype=complex)
    s = math.isqrt(n_max)
    for d in range(1, s + 1):
        out[d::d] += e[d]
    for j in range(1, s + 1):
        out[j * (s + 1):j * (n_max // j) + 1:j] += e[s + 1:n_max // j + 1]
    out *= np.exp(-1j * gamma * logs)
    if not np.max(np.abs(out.imag[1:])) < 1e-9:
        raise InvariantError(f"tau_gen_many({n_max}, {gamma}) is not real")
    return out.real[:]


def sigma_complex(m: int, a: complex) -> complex:
    """sum_{d|m} d^a for complex exponent a."""
    if m < 1:
        raise DomainError(f"sigma_complex needs m >= 1, got {m}")
    d = np.array(divisors(m), dtype=float)
    return complex(np.sum(np.exp(complex(a) * np.log(d))))


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
    """sigma_a(n) for n = 0..n_max (index 0 unused) via sieve."""
    out = np.zeros(n_max + 1, dtype=complex)
    a = complex(a)
    for d in range(1, n_max + 1):
        out[d::d] += np.exp(a * math.log(d))
    return out


def ramanujan_lhs(a: complex, b: complex, s: complex, N: int):
    """Partial sum sum_{n<=N} sigma_a(n) sigma_b(n) / n^s with a tail estimate.

    Requires Re(s) > 1 + max(0, Re a) + max(0, Re b) for absolute convergence
    and N >= 1000.  Returns (value, tail_estimate).
    """
    a, b, s = complex(a), complex(b), complex(s)
    excess = s.real - 1.0 - max(0.0, a.real) - max(0.0, b.real)
    if excess <= 0:
        raise DomainError("ramanujan_lhs needs Re(s) > 1 + max(0,Re a) + max(0,Re b)")
    if N < 1000:
        raise DomainError("ramanujan_lhs needs N >= 1000")
    sa = sigma_complex_many(N, a)[1:]
    sb = sigma_complex_many(N, b)[1:]
    n = np.arange(1, N + 1, dtype=float)
    val = complex(np.sum(sa * sb * np.exp(-s * np.log(n))))
    # |sigma_a sigma_b / n^s| <= d(n)^2 n^(a+ + b+ - Re s); crude integral tail
    logN = math.log(N)
    tail = (logN + 2.0) ** 2 * N ** (1.0 - excess) / excess
    return val, tail


def ramanujan_rhs(a: complex, b: complex, s: complex) -> complex:
    """zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b) / zeta(2s-a-b)."""
    a, b, s = complex(a), complex(b), complex(s)
    return (zeta(s) * zeta(s - a) * zeta(s - b) * zeta(s - a - b)
            / zeta(2 * s - a - b))


def hecke_relation_check(form, n: int, m: int) -> float:
    """|lambda(n) lambda(m) - sum_{k | (n,m)} lambda(n m / k^2)|.

    ``form`` is anything with a ``hecke`` mapping from index to eigenvalue
    (a MaassForm, or a plain dict wrapped in a namespace).  Used to validate
    ingested eigenvalue data.
    """
    eig = form.hecke if hasattr(form, "hecke") else form
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
