import math

import pytest

from sslab import (
    RandomSource,
    entropy,
    entropy_around_half_bound,
    h2,
    is_prime,
    merged_profile_entropy,
    multinomial_log2,
    random_prime,
)


def test_h2_anchor_values():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.5) == 1.0
    assert abs(h2(0.25) - h2(0.75)) < 1e-12
    # constants the runtime analysis leans on
    assert h2(0.25) <= 0.8113
    assert h2(0.2) + 0.6 <= 1.32195


def test_entropy_general():
    assert entropy((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)
    assert entropy((1.0,)) == 0.0
    assert entropy((0.5, 0.5)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        entropy((0.3, 0.3))  # does not sum to 1
    with pytest.raises(ValueError):
        entropy((1.5, -0.5))


def test_entropy_concavity_spot():
    rng = RandomSource(21)
    for _ in range(500):
        a, b = rng.random(), rng.random()
        assert h2(a) + h2(b) <= 2.0 * h2((a + b) / 2.0) + 1e-12


def test_entropy_around_half_bound():
    for k in range(0, 501):
        assert entropy_around_half_bound(k / 1000.0)


def test_merged_profile_entropy_at_half():
    for sigma in (0.1, 0.25, 0.5, 0.75, 1.0):
        assert merged_profile_entropy(sigma, 0.5) == pytest.approx(1.0 + h2(sigma / 2.0))


def test_multinomial_log2():
    val = multinomial_log2((10, 10))
    assert 20 - math.log2(41) <= val <= 20
    assert multinomial_log2((5,)) == 0.0
    assert multinomial_log2((1, 1)) == 1.0
    # exact against math.comb products
    assert multinomial_log2((3, 4, 5)) == pytest.approx(
        math.log2(math.comb(12, 3) * math.comb(9, 4)))


def test_is_prime_small_and_large():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97}
    for m in range(2, 100):
        assert is_prime(m) == (m in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(561)       # Carmichael
    assert not is_prime(2**61 + 1)
    # past 2^64 the rounds are pseudorandom: a Mersenne prime, and a product of two
    assert is_prime(2**89 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))
    with pytest.raises(ValueError):
        is_prime(1)


def test_is_prime_matches_a_sieve():
    # below 37^2 = 1369, trial division by the Miller-Rabin bases decides alone
    limit = 100_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    assert [m for m in range(2, limit) if is_prime(m)] == [m for m in range(limit) if sieve[m]]
    assert (is_prime(1367), is_prime(1369), is_prime(1371)) == (True, False, False)


def test_random_prime_range():
    rng = RandomSource(22)
    assert random_prime(3, rng) in (3, 5)
    for _ in range(100):
        r = rng.randint(3, 10**6)
        p = random_prime(r, rng)
        assert r <= p <= 2 * r
        assert is_prime(p)
    with pytest.raises(ValueError):
        random_prime(2, rng)
