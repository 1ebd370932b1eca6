"""Primality testing and prime enumeration for small-to-medium integers."""

from bisect import bisect_right
from functools import lru_cache

# Deterministic Miller-Rabin witnesses: _PSI[k-1] is psi_k, the least strong
# pseudoprime to all of the first k prime bases (OEIS A014233; Sorenson &
# Webster, Math. Comp. 2017), so the first k witnesses prove every n < psi_k.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
PROVEN_PRIMALITY_BOUND = _PSI[-1]

# Largest bound primes_up_to sieves; see the README for how it was sized.
MAX_PRIME_BOUND = 10**6

# Bound of the prime sweeps (spectrum, verdicts) when the caller gives none.
DEFAULT_PRIME_BOUND = 1000


class PrimalityCapError(ValueError):
    """Raised when n >= PROVEN_PRIMALITY_BOUND passes every witness, so that
    its primality is not proven."""


class PrimeBoundCapError(ValueError):
    """Raised when a prime sweep asks for a bound above MAX_PRIME_BOUND."""


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set).

    Uses the first k witnesses for psi_(k-1) <= n < psi_k, so one for n < 2047.
    Proven for n < PROVEN_PRIMALITY_BOUND.  Above it a witness can still prove
    n composite; if none does, PrimalityCapError is raised instead of a guess.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PROVEN_PRIMALITY_BOUND:
        raise PrimalityCapError(
            f"{n} passes every Miller-Rabin witness, which proves primality only "
            f"below {PROVEN_PRIMALITY_BOUND}"
        )
    return True


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n, ascending (sieve of Eratosthenes); n <= MAX_PRIME_BOUND."""
    if n > MAX_PRIME_BOUND:
        raise PrimeBoundCapError(f"prime bound {n} exceeds the cap {MAX_PRIME_BOUND}")
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i in range(n + 1) if sieve[i])


def valuation(n: int, p: int) -> int:
    """Largest v with p**v dividing n; requires n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
