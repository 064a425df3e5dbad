"""Exact Subset Sum solvers parameterized by the structure of the sum multiset.

The library measures two statistics of an instance's weights: the largest
bin of the subset-sum histogram (beta) and the number of distinct subset
sums. Solvers are organized around promises on those statistics: classic
meet-in-the-middle and Schroeppel-Shamir baselines, a representation-technique
solver for sum-rich subsets, an exact dynamic program for sum-poor ones,
modular bit-length reduction, and drivers that dispatch on the measured
regime. Brute-force oracles and combinatorial verifiers back every claim.
"""

from .classic import (
    bellman_dp,
    meet_in_middle,
    modular_sampler,
    residue_count_table,
    sample_subset_in_class,
    schroeppel_shamir,
)
from .combinatorics import (
    UdcpPair,
    bin_l2,
    check_udcp,
    l2_identity_terms,
    udcp_from_instance,
    zero_ternary_counts_by_l1,
)
from .core import (
    BudgetExhausted,
    CapacityError,
    Instance,
    RandomSource,
    SolverOutcome,
    StepMeter,
    density,
    full_mask,
    gen_all_equal,
    gen_geometric_pairs,
    gen_planted,
    gen_random_density,
    gen_super_increasing,
    instance_to_text,
    mask_from_indices,
    mask_indices,
    mask_sum,
    read_instance,
    write_instance,
)
from .dispatch import (
    RegimeReport,
    classify,
    partition_blocks,
    small_bin_runtime_exponent,
    small_bin_time_exponents,
    solve_auto,
    solve_large_bin,
    solve_partition_join,
    solve_small_bin,
)
from .hashing import (
    ReductionNotApplicable,
    ReductionRecord,
    ReductionReport,
    check_reduction_properties,
    output_bound,
    reduce_bitlength,
)
from .numeric import (
    entropy,
    entropy_around_half_bound,
    h2,
    is_prime,
    merged_profile_entropy,
    multinomial_log2,
    random_prime,
)
from .oracle import (
    ENUM_LIMIT,
    all_subset_sums,
    brute_solve,
    distinct_sums,
    max_bin,
    sumset_with_witness,
)
from .structured import (
    build_filtered_list,
    representation_attempt,
    solve_few_sums,
    solve_many_sums,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "CapacityError",
    "ENUM_LIMIT",
    "Instance",
    "RandomSource",
    "ReductionNotApplicable",
    "ReductionRecord",
    "ReductionReport",
    "RegimeReport",
    "SolverOutcome",
    "StepMeter",
    "UdcpPair",
    "all_subset_sums",
    "bellman_dp",
    "bin_l2",
    "brute_solve",
    "build_filtered_list",
    "check_reduction_properties",
    "check_udcp",
    "classify",
    "density",
    "distinct_sums",
    "entropy",
    "entropy_around_half_bound",
    "full_mask",
    "gen_all_equal",
    "gen_geometric_pairs",
    "gen_planted",
    "gen_random_density",
    "gen_super_increasing",
    "h2",
    "instance_to_text",
    "is_prime",
    "l2_identity_terms",
    "mask_from_indices",
    "mask_indices",
    "mask_sum",
    "max_bin",
    "meet_in_middle",
    "merged_profile_entropy",
    "modular_sampler",
    "multinomial_log2",
    "output_bound",
    "partition_blocks",
    "random_prime",
    "read_instance",
    "reduce_bitlength",
    "representation_attempt",
    "residue_count_table",
    "sample_subset_in_class",
    "schroeppel_shamir",
    "small_bin_runtime_exponent",
    "small_bin_time_exponents",
    "solve_auto",
    "solve_few_sums",
    "solve_large_bin",
    "solve_many_sums",
    "solve_partition_join",
    "solve_small_bin",
    "sumset_with_witness",
    "udcp_from_instance",
    "write_instance",
    "zero_ternary_counts_by_l1",
]
