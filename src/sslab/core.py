"""Instance model, subsets as bitmasks, seeded randomness, generators, text I/O.

Weights are arbitrary-precision Python ints throughout; subsets of [n] are
n-bit integer masks (bit i = item i, LSB first).
"""

from __future__ import annotations

import hashlib
import io
import math
import operator
import os
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


class CapacityError(RuntimeError):
    """An operation would exceed the configured memory/enumeration budget."""


class BudgetExhausted(Exception):
    """Control-flow signal: a step meter ran past its limit."""


def memory_limit_bytes() -> int:
    """Soft cap for table-shaped allocations, from SSLAB_MEM_LIMIT_MB (default 512),
    a non-negative integer in the instance file's format."""
    text = os.environ.get("SSLAB_MEM_LIMIT_MB", "512")
    try:
        megabytes = _parse_int(text)
        if megabytes < 0:
            raise ValueError(text)
    except ValueError:
        raise ValueError(f"SSLAB_MEM_LIMIT_MB must be a non-negative integer, got {text!r}") from None
    return megabytes << 20


def check_bytes(nbytes: int, what: str) -> None:
    """The one capacity rule: raises CapacityError, before `what` is allocated, when its
    peak of `nbytes` would exceed memory_limit_bytes(), read now."""
    limit = memory_limit_bytes()
    if nbytes > limit:
        raise CapacityError(f"{what} would take {nbytes} bytes, over the memory limit of {limit}")


def _wide_sum_bytes(value: int) -> int:
    """What a Python int as wide as `value` takes beyond a 70-bit int; 0 under 2^90.
    Every byte charge of a Python-int row is its size measured with values of at
    most 70 bits plus, per Python int the row holds, this of the widest such value."""
    return max(0, sys.getsizeof(value) - sys.getsizeof(1 << 69))


# the counters every classic exact solver and sampler reports
CLASSIC_COUNTERS = ("sums_enumerated", "pairs_checked", "dict_lookups", "samples_drawn")


class StepMeter:
    """The work of one solve: `count` abstract steps, checked against `limit`,
    and named `counters` beside them. `cost`, what a SolverOutcome reports, is
    the counters plus the steps. A counter that is not work (a number of
    attempts, a peak) is written to `counters` directly and charges nothing.
    """

    __slots__ = ("count", "limit", "counters")

    def __init__(self, limit: int | None = None, keys: Sequence[str] = ()):
        self.count = 0
        self.limit = limit
        self.counters = dict.fromkeys(keys, 0)

    def add(self, k: int = 1, key: str | None = None) -> None:
        """Charge k steps, also counted under `key` when given; raises
        BudgetExhausted once the count passes the limit."""
        if key is not None:
            self.counters[key] = self.counters.get(key, 0) + k
        self.count += k
        if self.limit is not None and self.count > self.limit:
            raise BudgetExhausted

    def add_each(self, *ks: int) -> None:
        """add(k) for each of the non-negative `ks` in turn, in one call while
        they all fit under the limit, so BudgetExhausted fires at the same count."""
        total = sum(ks)
        if self.limit is None or self.count + total <= self.limit:
            self.count += total
        else:
            for k in ks:
                self.add(k)

    @property
    def cost(self) -> dict:
        return {**self.counters, "steps": self.count}


# ---------------------------------------------------------------------------
# bitmask subsets

def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def mask_indices(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_sum(weights: Sequence[int], mask: int) -> int:
    """Exact sum of the items selected by `mask`."""
    s = 0
    i = 0
    while mask:
        if mask & 1:
            s += weights[i]
        mask >>= 1
        i += 1
    return s


# ---------------------------------------------------------------------------
# instance model

@dataclass(frozen=True)
class Instance:
    """A subset-sum instance: `weights` and a `target`.

    Weights are positive in the standard model; zero is tolerated because the
    modular bit-length reduction emits residues in [0, p).
    """

    weights: tuple[int, ...]
    target: int

    def __post_init__(self):
        try:  # operator.index takes ints, numpy ints included, and refuses 3.7 and "5"
            ws = tuple(int(operator.index(w)) for w in self.weights)
            target = int(operator.index(self.target))
        except TypeError:
            raise ValueError("weights and target must be integers") from None
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "target", target)
        for w in ws:
            if w < 0:
                raise ValueError("weights must be non-negative integers")
        if self.target < 0:
            raise ValueError("target must be a non-negative integer")

    @property
    def n(self) -> int:
        return len(self.weights)

    def total(self) -> int:
        return sum(self.weights)


def density(instance: Instance) -> float:
    """n / log2(t). Undefined for t < 2."""
    if instance.target < 2:
        raise ValueError("density undefined for target < 2")
    return instance.n / math.log2(instance.target)


# ---------------------------------------------------------------------------
# solver outcome

@dataclass
class SolverOutcome:
    """What a solver produced: an exactly verified witness mask or none, plus counters.

    `witness` is never reported unverified: every solver re-checks the exact
    sum against the instance before returning it.
    """

    witness: int | None = None
    cost: dict = field(default_factory=dict)
    branch: str | None = None
    exhausted: bool = False
    iterations: list = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.witness is not None


def verified_outcome(instance: Instance, mask: int, cost: dict, **kw) -> SolverOutcome:
    # construction sites guarantee the sum; this is the last-line exactness check
    if mask_sum(instance.weights, mask) != instance.target:
        raise RuntimeError("internal error: candidate witness failed exact verification")
    return SolverOutcome(witness=mask, cost=cost, **kw)


# ---------------------------------------------------------------------------
# deterministic randomness

class RandomSource:
    """Seeded deterministic RNG. One owner per stream; `split` derives independent streams."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._rng = random.Random(self.seed)

    def split(self, tag: str) -> "RandomSource":
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return RandomSource(int.from_bytes(digest[:8], "big"))

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def randint(self, a: int, b: int) -> int:
        # inclusive ends, arbitrary precision
        return a + self._rng.randrange(b - a + 1)

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def random(self) -> float:
        return self._rng.random()

    def choice(self, seq):
        return seq[self._rng.randrange(len(seq))]


# ---------------------------------------------------------------------------
# generators

def _pow2_floor(exponent: Fraction) -> int:
    """floor(2**exponent) for rational exponent >= 0."""
    if exponent.denominator == 1:
        return 1 << int(exponent)
    if exponent > 1000:
        # coarse floor; only the integer part matters at this magnitude
        return 1 << math.floor(exponent)
    return max(1, math.floor(2.0 ** float(exponent)))


def gen_random_density(n: int, d, rng: RandomSource) -> Instance:
    """Weights and target uniform in [1, floor(2^(n/d))]: density ~d instances."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < d < math.inf:  # false for nan too
        raise ValueError("density parameter must be positive and finite")
    upper = _pow2_floor(Fraction(n) / Fraction(d))
    weights = tuple(1 + rng.randrange(upper) for _ in range(n))
    target = 1 + rng.randrange(upper)
    return Instance(weights, target)


def gen_geometric_pairs(n: int) -> Instance:
    """Weights 1,1,3,3,9,9,...: 3^(n/2) distinct sums but bins as large as 2^(n/2)."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    weights = []
    for i in range(n // 2):
        weights += [3**i, 3**i]
    target = sum(3**i for i in range(n // 2))  # one copy of each power
    return Instance(tuple(weights), target)


def gen_planted(n: int, bits: int, rng: RandomSource) -> tuple[Instance, int]:
    """Uniform `bits`-bit weights with the target planted on a uniform subset."""
    if n < 1 or bits < 1:
        raise ValueError("n and bits must be >= 1")
    weights = tuple(1 + rng.randrange(1 << bits) for _ in range(n))
    planted = rng.getrandbits(n)
    return Instance(weights, mask_sum(weights, planted)), planted


def gen_all_equal(n: int, target: int | None = None, value: int = 1) -> Instance:
    """All weights equal: one bin per cardinality, the modal bin is C(n, n/2)."""
    if n < 1 or value < 1:
        raise ValueError("n and value must be >= 1")
    if target is None:
        target = (n // 2) * value
    return Instance((value,) * n, target)


def gen_super_increasing(n: int) -> Instance:
    """Weights 2^i: all 2^n subset sums distinct (every bin has size one)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = tuple(1 << i for i in range(n))
    target = sum(1 << i for i in range(0, n, 2))
    return Instance(weights, target)


# ---------------------------------------------------------------------------
# instance text format:
#   three data lines: n, the n weights, t; '#' comment lines and blank lines
#   are ignored, so for n = 0 only n and t remain

def write_instance(instance: Instance, dest) -> None:
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            write_instance(instance, fh)
        return
    dest.write(f"{instance.n}\n")
    dest.write(" ".join(str(w) for w in instance.weights) + "\n")
    dest.write(f"{instance.target}\n")


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_int(token: str) -> int:
    """An optional sign and ASCII digits: int() alone also takes `1_000` and `١٢`."""
    if not _INTEGER.fullmatch(token.strip()):
        raise ValueError(token)
    return int(token)


def read_instance(src) -> Instance:
    """Parse the text format; rejects malformed counts and non-integer tokens."""
    if isinstance(src, (str, os.PathLike)):
        with open(src) as fh:
            return read_instance(fh)
    lines = [ln for ln in src if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        n = _parse_int(lines[0])
    except (IndexError, ValueError):
        raise ValueError("malformed instance: first data line must be the item count") from None
    if n < 0:
        raise ValueError("malformed instance: negative item count")
    expected = 3 if n else 2  # the weights line of n = 0 is blank
    if len(lines) != expected:
        raise ValueError(f"malformed instance: expected {expected} data lines, got {len(lines)}")
    tokens = lines[1].split() if n else []
    if len(tokens) != n:
        raise ValueError(f"malformed instance: expected {n} weights, got {len(tokens)}")
    try:
        weights = tuple(_parse_int(tok) for tok in tokens)
        target = _parse_int(lines[-1])
    except ValueError:
        raise ValueError("malformed instance: weights and target must be integers") from None
    return Instance(weights, target)


def instance_to_text(instance: Instance) -> str:
    buf = io.StringIO()
    write_instance(instance, buf)
    return buf.getvalue()
