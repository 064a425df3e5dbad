"""Seeded instance corpora, and the sum table of a block, shared by the unit and acceptance tests."""

from sslab import (
    Instance,
    RandomSource,
    all_subset_sums,
    distinct_sums,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    mask_from_indices,
)
from sslab.oracle import _block, _sum_table

DENSITIES = (0.5, 1.0, 2.0, 4.0)


def block_table(instance: Instance, subset_mask: int | None = None):
    """w(2^S) of the instance's block S (every item when None), as the oracles build it."""
    return _sum_table(instance.weights, *_block(instance, subset_mask))


def random_corpus(count: int, seed: int, n_lo: int = 8, n_hi: int = 20):
    """Random instances cycling through the density palette."""
    rng = RandomSource(seed)
    out = []
    for k in range(count):
        n = rng.randint(n_lo, n_hi)
        d = DENSITIES[k % len(DENSITIES)]
        out.append(gen_random_density(n, d, rng.split(f"inst:{k}")))
    return out


def structured_corpus(count: int, seed: int, n_lo: int = 8, n_hi: int = 20):
    """Geometric-pairs, all-equal, super-increasing, and planted instances."""
    rng = RandomSource(seed)
    out = []
    for k in range(count):
        n = rng.randint(n_lo, n_hi)
        kind = k % 4
        if kind == 0:
            out.append(gen_geometric_pairs(n - (n % 2)))
        elif kind == 1:
            out.append(gen_all_equal(n))
        elif kind == 2:
            out.append(gen_super_increasing(n))
        else:
            inst, _ = gen_planted(n, n, rng.split(f"planted:{k}"))
            out.append(inst)
    return out


def rich_planted(n: int, m: int, bits: int, seed: int):
    """Planted instance whose first-m block has all 2^m subset sums distinct.

    Resamples (seeded) until the block is fully sum-rich, so gamma = 1 holds.
    Returns (instance, planted_mask).
    """
    attempt = 0
    m_mask = mask_from_indices(range(m))
    while True:
        inst, mask = gen_planted(n, bits, RandomSource(seed + 7919 * attempt))
        if distinct_sums(inst, m_mask) == 1 << m:
            return inst, mask
        attempt += 1


def rich_no_instance(n: int, m: int, bits: int, seed: int) -> Instance:
    """Instance with a fully sum-rich first-m block and no solution at all.

    The target is the smallest value above t0 that is not a subset sum.
    """
    m_mask = mask_from_indices(range(m))
    attempt = 0
    while True:
        inst, _ = gen_planted(n, bits, RandomSource(seed + 104729 * attempt))
        if distinct_sums(inst, m_mask) == 1 << m:
            achieved = set(int(s) for s in all_subset_sums(inst))
            t = inst.target
            while t in achieved:
                t += 1
            if t <= inst.total():
                return Instance(weights=inst.weights, target=t)
        attempt += 1
