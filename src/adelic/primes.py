"""Primality testing and prime enumeration for small-to-medium integers."""

from functools import lru_cache

# Deterministic Miller-Rabin witness set: no composite below
# PROVEN_PRIMALITY_BOUND (psi_13, the least strong pseudoprime to all of the
# first thirteen prime bases) passes it (Sorenson & Webster, Math. Comp. 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_PRIMALITY_BOUND = 3317044064679887385961981


class PrimalityCapError(ValueError):
    """Raised when n >= PROVEN_PRIMALITY_BOUND passes every witness, so that
    its primality is not proven."""


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set).

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
    for a in _MR_WITNESSES:
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
    """All primes <= n, ascending (sieve of Eratosthenes)."""
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
