"""Entropy and prime helpers used by the parameter formulas and modular filters."""

from __future__ import annotations

import math
import random
from typing import Sequence

from .core import RandomSource

_SUM_TOL = 1e-12

# deterministic Miller-Rabin witnesses, complete for m < 2^64
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def entropy(parts: Sequence[float]) -> float:
    """Shannon entropy (bits) of a finite distribution; 0*log(0) = 0."""
    total = 0.0
    acc = 0.0
    for x in parts:
        if x < 0.0 or x > 1.0:
            raise ValueError("distribution components must lie in [0, 1]")
        total += x
        if x > 0.0:
            acc -= x * math.log2(x)
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"distribution must sum to 1 within {_SUM_TOL}")
    return acc


def h2(x: float) -> float:
    """Binary entropy h(x)."""
    return entropy((x, 1.0 - x))


def entropy_around_half_bound(alpha: float) -> bool:
    """Whether h(1/2 - alpha) <= 1 - 2*alpha^2/ln 2 (it always is, on [0, 1/2])."""
    if alpha < 0.0 or alpha > 0.5:
        raise ValueError("alpha must lie in [0, 1/2]")
    return h2(0.5 - alpha) <= 1.0 - 2.0 * alpha * alpha / math.log(2)


def merged_profile_entropy(sigma: float, tau: float) -> float:
    """Entropy of the 4-symbol profile (tau*s/2, tau*s/2+(1-s)/2, (1-s)/2+(1-tau)*s/2, (1-tau)*s/2).

    This is the exponent governing how many balanced pairs of n-vectors merge
    into one sum profile; as a function of tau it peaks at tau = 1/2.
    """
    if not (0.0 <= sigma <= 1.0 and 0.0 <= tau <= 1.0):
        raise ValueError("sigma and tau must lie in [0, 1]")
    a = tau * sigma / 2.0
    b = tau * sigma / 2.0 + (1.0 - sigma) / 2.0
    c = (1.0 - sigma) / 2.0 + (1.0 - tau) * sigma / 2.0
    d = (1.0 - tau) * sigma / 2.0
    return entropy((a, b, c, d))


def multinomial_log2(parts: Sequence[int]) -> float:
    """log2 of the exact multinomial coefficient (sum(parts) choose parts)."""
    if not parts:
        raise ValueError("parts must be non-empty")
    for p in parts:
        if not isinstance(p, int) or p < 0:
            raise ValueError("parts must be non-negative integers")
    rem = sum(parts)
    coeff = 1
    for p in parts:
        coeff *= math.comb(rem, p)
        rem -= p
    return math.log2(coeff)


def is_prime(m: int) -> bool:
    """Deterministic for m < 2^64; above that, 48 pseudorandom Miller-Rabin rounds."""
    if not isinstance(m, int) or m < 2:
        raise ValueError("primality is only tested for integers >= 2")
    for p in _MR_BASES_64:
        if m == p:
            return True
        if m % p == 0:
            return False
    if m < 37 * 37:  # no prime factor up to 37, and too small for one above it
        return True
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, m)
        if x in (1, m - 1):
            return False
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                return False
        return True  # a proves compositeness

    if m < (1 << 64):
        bases = _MR_BASES_64
    else:
        src = random.Random(m & 0xFFFFFFFFFFFFFFFF)  # deterministic per m
        bases = tuple(2 + src.randrange(m - 3) for _ in range(48))
    return not any(witness(a) for a in bases)


def random_prime(r: int, rng: RandomSource) -> int:
    """Uniform prime from [r, 2r] by rejection; Bertrand guarantees one exists."""
    if r < 3:
        raise ValueError("r must be >= 3")
    while True:
        candidate = r + rng.randrange(r + 1)
        if is_prime(candidate):
            return candidate
