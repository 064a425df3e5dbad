"""Structure-dispatched drivers: pick a solver from measured sum statistics.

Small maximum bin: partition [n] into ~1/mu consecutive blocks; a sum-rich
block feeds the representation solver, otherwise the block-product bound
makes a plain deduplicated join cheap. Large maximum bin: one of the two
halves must be sum-poor, which the few-sums join exploits unconditionally.

`solve_auto` runs neither: their gains are 2^(delta n) for a tiny delta, so at
every n a machine can hold, meet in the middle or, past the memory it may take,
Schroeppel-Shamir is faster, and both are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BudgetExhausted,
    Instance,
    RandomSource,
    SolverOutcome,
    StepMeter,
    density,
    mask_from_indices,
    memory_limit_bytes,
)
from .classic import _mim_bytes, meet_in_middle, schroeppel_shamir
from .oracle import _bin_stats, brute_solve, distinct_sums
from .structured import _AttemptTables, _many_sums, _split_join, solve_few_sums

# exact constants used by the exponent accounting
_C_ENTROPY_QUARTER = Fraction(8113, 10000)   # h(1/4) <= 0.8113


def small_bin_time_exponents(epsilon) -> tuple[Fraction, Fraction]:
    """Exact exponent coefficients of the two work terms of the small-bin driver.

    With mu = 3e/2 and gamma = 1 - e/2:
      list term  1/2 + 0.8113*mu - gamma*mu  = 1/2 - 0.28305 e + 3/4 e^2
      pair term  (1/2 - e) + (3/2 - gamma)mu = 1/2 - e/4      + 3/4 e^2
    """
    e = Fraction(epsilon)
    if not 0 < e <= Fraction(1, 6):
        raise ValueError("epsilon must lie in (0, 1/6]")
    mu = Fraction(3, 2) * e
    gamma = 1 - e / 2
    list_term = Fraction(1, 2) + _C_ENTROPY_QUARTER * mu - gamma * mu
    pair_term = (Fraction(1, 2) - e) + (Fraction(3, 2) - gamma) * mu
    return list_term, pair_term


def small_bin_runtime_exponent(epsilon) -> Fraction:
    return max(small_bin_time_exponents(epsilon))


def partition_blocks(n: int, epsilon: float) -> list[list[int]]:
    """Consecutive blocks of size <= ceil(mu*n), mu = 3*epsilon/2."""
    mu = 1.5 * epsilon
    cap = max(1, math.ceil(mu * n - 1e-9))
    return [list(range(i, min(i + cap, n))) for i in range(0, n, cap)]


def solve_partition_join(
    instance: Instance, epsilon: float, meter: StepMeter | None = None
) -> SolverOutcome:
    """Exact join when every block is sum-poor: |w(2^L)| is bounded by the
    product of per-block counts, so both sum tables stay small. The decision
    is exact for any instance; only the runtime claim needs the promise.
    """
    blocks = partition_blocks(instance.n, epsilon)
    left = [i for block in blocks[: len(blocks) // 2] for i in block]
    return _split_join(instance, left, meter=meter, branch="join")


def solve_small_bin(
    instance: Instance,
    epsilon: float,
    rng: RandomSource,
    step_budget: int | None = None,
) -> SolverOutcome:
    """Driver for instances promised beta(w) <= 2^((1/2-epsilon)n).

    Measures each block's distinct sums on the given weights, then either
    runs the representation solver on the first sum-rich block (Monte Carlo)
    or the exact block-product join. Weights of any width are used as given:
    every table and join is exact on Python ints, so nothing is hashed.
    """
    if not 0.0 < epsilon <= 1.0 / 6.0:
        raise ValueError("epsilon must lie in (0, 1/6]")
    n = instance.n
    if n <= 4:
        out = brute_solve(instance)
        out.branch = "tiny"
        return out
    gamma = 1.0 - epsilon / 2.0
    mu = 1.5 * epsilon
    meter = StepMeter(step_budget)
    stage = "scan"  # where a budget exhaustion lands: _many_sums catches its own
    try:
        for block in partition_blocks(n, epsilon):
            m_mask = mask_from_indices(block)
            count = distinct_sums(instance, m_mask)
            meter.add(count)
            # a block passing this has log2|w(2^M)| >= gamma |M|, the sum-richness
            # _many_sums takes unchecked; |M| <= ceil(n/4) <= n/2 passes _AttemptTables
            if math.log2(count) >= gamma * max(len(block), mu * n) - 1e-9:
                out = _many_sums(_AttemptTables(instance, m_mask, gamma), rng, meter)
                out.branch = "representation"
                return out
        stage = "join"
        return solve_partition_join(instance, epsilon, meter=meter)
    except BudgetExhausted:
        return SolverOutcome(cost=meter.cost, exhausted=True, branch=stage)


def measured_gamma(instance: Instance, m_mask: int) -> float:
    """log2 |w(2^M)| / |M|, the sum-richness exponent of block M (0.0 for empty M)."""
    m = m_mask.bit_count()
    if m == 0:
        return 0.0
    return min(1.0, math.log2(distinct_sums(instance, m_mask)) / m)


def solve_large_bin(instance: Instance) -> SolverOutcome:
    """Exact driver for instances promised a huge bin, beta(w) >= 2^(0.661 n):
    take the half with fewer distinct sums as M (gamma measured, not promised)
    and run the unconditional few-sums join.
    """
    n = instance.n
    half = n // 2
    m_mask = mask_from_indices(range(half))
    gamma = measured_gamma(instance, m_mask)
    if n % 2 == 0 and half:  # odd n: M is the first floor(n/2) items by convention
        second = mask_from_indices(range(half, n))
        gamma_second = measured_gamma(instance, second)
        if gamma_second < gamma:  # equal sizes, so fewer distinct sums
            m_mask, gamma = second, gamma_second
    out = solve_few_sums(instance, m_mask, gamma)
    out.branch = "few-sums"
    out.cost["measured_gamma"] = gamma
    return out


@dataclass(frozen=True)
class RegimeReport:
    """Measured structure statistics and which promised regimes they satisfy."""

    n: int
    density: float | None
    beta: int
    distinct: int
    beta_exponent: float
    small_bin: bool               # beta < 2^(n/2), i.e. some epsilon > 0 works
    small_bin_epsilon: float      # largest admissible epsilon (0.0 if none)
    large_bin: bool               # beta >= 2^(0.661 n)
    many_sums: bool               # distinct >= 2^(0.997 n)
    sums_vs_bin_holds: bool       # many_sums implies beta <= 2^(0.4996 n)


def classify(instance: Instance) -> RegimeReport:
    """Measure beta and |w(2^[n])| and evaluate the regime thresholds exactly
    (integer powers, no floating-point exponent compares).
    """
    if instance.n < 1:
        raise ValueError("classification needs n >= 1")
    beta, ds, _ = _bin_stats(instance, norm=False)
    return _regime_report(instance, beta, ds)


def _regime_report(instance: Instance, beta: int, ds: int) -> RegimeReport:
    """classify's report of an instance of n >= 1 items from its measured beta and
    |w(2^[n])|, which `verify sumsvsbin` passes from the statistics its checks share."""
    n = instance.n
    try:
        dens = density(instance)
    except ValueError:
        dens = None
    beta_exp = math.log2(beta) / n
    small = beta**2 < 2**n
    eps = max(0.0, 0.5 - beta_exp)
    large = beta**1000 >= 2 ** (661 * n)
    many = ds**1000 >= 2 ** (997 * n)
    implication = (not many) or (beta**2500 <= 2 ** (1249 * n))
    return RegimeReport(
        n=n, density=dens, beta=beta, distinct=ds, beta_exponent=beta_exp,
        small_bin=small, small_bin_epsilon=eps, large_bin=large,
        many_sums=many, sums_vs_bin_holds=implication,
    )


def solve_auto(instance: Instance) -> SolverOutcome:
    """One exact join: meet_in_middle where its charge passes the memory limit, branch
    "mim", and otherwise schroeppel_shamir, branch "ss", in O*(2^(n/4)) memory; the
    outcome, its "no" included, is that join's own. Where ss is refused as well, its
    CapacityError propagates.
    """
    fits = _mim_bytes(instance) <= memory_limit_bytes()
    out = meet_in_middle(instance) if fits else schroeppel_shamir(instance)
    out.branch = "mim" if fits else "ss"
    return out
