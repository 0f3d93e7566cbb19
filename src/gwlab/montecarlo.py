"""Forward simulation of the branching recursion at scale.

Replications are processed in fixed-size chunks of 4096; chunk ``i`` draws
from ``default_rng(SeedSequence([seed, i]))``, so the output is a pure
function of the seed and is identical no matter how chunks are scheduled
across workers.  Within a chunk each generation is drawn either
individual-by-individual and summed per replication (small populations), or
as one multinomial split per replication (large populations with a narrow
offspring support); both produce the offspring-sum law exactly.  An
individual's count is read off the inverse CDF by counting the CDF steps
its uniform reaches (at most ``STEP_LIMIT`` steps) or through a guide
table (wider laws), in int32 whenever no sum can pass it.

A chunk keeps only its live replications, in replication order, and
counts the extinct ones; each level groups the live (Z_{n-1}, Z_n) rows and
puts one (0, 0) row in front for the extinct.  Chunks and their merge group
rows by sorting one packed int64 key per row and reading off runs (see
``_group_pairs``).

Replications whose population passes the cap stop being tabulated from the
offending generation on; per-generation exclusion counts are part of the
result, never silently dropped.  Every tabulation reads a level through
``_event``, which counts the excluded replications as defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .engine import check_start_size
from .errors import DegenerateConditioning, InvalidParameter
from .estimator import deviation_mask, ratio_law
from .measures import DiscreteMeasure
from .offspring import OffspringLaw

__all__ = [
    "SimConfig", "SimTable", "simulate_paths", "empirical_estimator_law",
    "binned_estimator_law", "empirical_consistency_probability",
]

CHUNK = 4096

# Ratio laws from simulation are binned to multiples of 1/DEFAULT_BIN_DEN by
# default; half a bin is added to the metric slack.
DEFAULT_BIN_DEN = 64

INDIV_LIMIT = 1 << 18

MULTINOMIAL_SUPPORT_LIMIT = 4096

# Laws with at most this many CDF steps are drawn by counting the steps each
# uniform reaches, wider ones through a guide table (see ``_Sampler``).  In
# whole simulations (x86-64, numpy 2.4) the guide table catches up at about
# 12 steps when most of the mass sits on a few atoms, as with Poisson(2), and
# at 24 to 32 steps when the mass is spread evenly.  At this limit the two
# routes are within 10% of each other on both shapes.
STEP_LIMIT = 16

_INDIV_HARD_LIMIT = 1 << 24


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replications: int
    n_max: int
    z0: int = 1
    cap: int = 10_000_000

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InvalidParameter("seed must be nonnegative")
        if self.replications < 1:
            raise InvalidParameter("need at least one replication")
        if self.n_max < 1:
            raise InvalidParameter("horizon n_max must be at least 1")
        check_start_size(self.z0)
        if self.cap < self.z0:
            raise InvalidParameter("population cap must be at least z0")


@dataclass
class SimTable:
    """Aggregated (Z_{n-1}, Z_n) pair counts per generation."""

    cfg: SimConfig
    levels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    excluded: np.ndarray  # excluded[n] = replications missing at level n

    def included(self, n: int) -> int:
        return self.cfg.replications - int(self.excluded[n])

    def pairs(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if n not in self.levels:
            raise InvalidParameter(f"level {n} was not simulated")
        return self.levels[n]

    def rows(self):
        """Yields (n, z_prev, z, count) in deterministic order."""
        for n in sorted(self.levels):
            prev, curr, counts = self.levels[n]
            for j, k, c in zip(prev.tolist(), curr.tolist(), counts.tolist()):
                yield n, j, k, c

    def equals(self, other: "SimTable") -> bool:
        return (
            sorted(self.levels) == sorted(other.levels)
            and np.array_equal(self.excluded, other.excluded)
            and all(
                np.array_equal(mine, theirs)
                for n in self.levels
                for mine, theirs in zip(self.levels[n], other.levels[n])
            )
        )


def _group_pairs(
    prev: np.ndarray, curr: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the ``counts`` (one per row if None) of equal (prev, curr) pairs.

    Each pair is packed into one int64 key ``prev * pack + curr`` with
    ``pack > max(curr)``, so sorted keys hold each pair as one run, in pair
    order.  A column whose values would push the key past int64 is replaced
    by its ranks among its distinct values first, which keeps the order and
    bounds the key by the number of rows.
    """
    if prev.size == 0:
        return prev, curr, np.zeros(0, dtype=np.int64)
    prev_vals = curr_vals = None
    if (int(prev.max()) + 1) * (int(curr.max()) + 1) > 2**63:
        prev_vals, prev = np.unique(prev, return_inverse=True)
    if (int(prev.max()) + 1) * (int(curr.max()) + 1) > 2**63:
        curr_vals, curr = np.unique(curr, return_inverse=True)
    pack = np.int64(curr.max()) + 1
    keys = prev * pack + curr
    order = None if counts is None else np.argsort(keys)
    keys = np.sort(keys) if order is None else keys[order]
    cut = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
    counts = np.diff(cut) if order is None else np.add.reduceat(counts[order], cut[:-1])
    prev, curr = np.divmod(keys[cut[:-1]], pack)
    if prev_vals is not None:
        prev = prev_vals[prev]
    if curr_vals is not None:
        curr = curr_vals[curr]
    return prev, curr, counts


class _Sampler:
    """An offspring law's inverse CDF, read by one of two routes.

    ``searchsorted(cum, u, "right")`` counts the CDF steps ``cum[i] <= u``,
    so the inverse CDF is ``support[0]`` plus the jump ``support[i + 1] -
    support[i]`` of every step that ``u`` has reached.  Laws with at most
    ``STEP_LIMIT`` steps are read that way, one compare-and-add pass per
    step.  Wider laws, whose passes would cost more, use a guide table (Chen
    & Asau 1974) of ``G`` buckets, a power of two so that ``floor(u * G)``
    is exact.  Only the buckets a CDF step lies strictly inside, at most
    ``len(cum) - 1``, need a ``searchsorted``; the rest have one index each.
    """

    def __init__(self, measure: DiscreteMeasure):
        self.support = support = measure.integer_values
        self.pvals = measure.weights_array / measure.total_mass
        self.cum = cum = np.cumsum(self.pvals)
        cum[-1] = 1.0
        self.by_steps = len(cum) - 1 <= STEP_LIMIT
        if self.by_steps:
            self.jumps = np.diff(support)
            return
        size = max(64, 1 << (4 * len(cum) - 1).bit_length())
        edges = np.arange(size + 1) / size
        lo = np.searchsorted(cum, edges[:-1], side="right")
        hi = np.searchsorted(cum, edges[1:], side="left")
        self.kids, self.ambiguous = support[lo], lo != hi

    def lookup(self, u: np.ndarray, dtype: type) -> np.ndarray:
        """``support[searchsorted(cum, u, "right")]`` for uniforms ``u``.

        The counts come back as ``dtype``, which must hold ``support[-1]``.
        """
        if not self.by_steps:
            bucket = (u * len(self.kids)).astype(np.intp)
            kids = np.take(self.kids.astype(dtype), bucket)
            hit = np.flatnonzero(np.take(self.ambiguous, bucket))
            kids[hit] = self.support[np.searchsorted(self.cum, u[hit], side="right")]
            return kids
        first = self.support[0]
        if not self.jumps.size:
            return np.full(u.size, first, dtype=dtype)
        # The first step's product starts ``kids`` rather than a fill with
        # ``first``, and a bool array adds as 0 or 1 without a multiply: the
        # first saves 7% of simulating binary(0.75), the second 16% on
        # Poisson(2) cut at 16 steps, whose jumps are all 1.
        steps, jumps = self.cum[:-1].tolist(), self.jumps.astype(dtype)
        reached = np.greater_equal(u, steps[0])
        kids = np.multiply(reached, jumps[0], dtype=dtype)
        scaled = None
        for step, jump in zip(steps[1:], jumps[1:]):
            np.greater_equal(u, step, out=reached)
            if jump == 1:
                kids += reached
            else:
                scaled = np.multiply(reached, jump, out=scaled, dtype=dtype)
                kids += scaled
        if first:
            kids += dtype(first)
        return kids


def _draw_next(
    rng: np.random.Generator, pos: np.ndarray, sampler: _Sampler
) -> np.ndarray:
    """Offspring sums for populations ``pos`` (all positive), one per replication."""
    top = int(pos.max()) * int(sampler.support[-1])  # the largest possible sum
    if top >= 2**63:
        raise InvalidParameter(f"offspring sums can reach {top}, past int64; lower cap")
    total = pos.sum(dtype=np.float64)  # exact below 2**53, and never wraps
    if total <= INDIV_LIMIT or len(sampler.support) > MULTINOMIAL_SUPPORT_LIMIT:
        if total > _INDIV_HARD_LIMIT:
            raise InvalidParameter(
                "population too large for individual draws and support too "
                "wide for multinomial splitting"
            )
        # Every count and every sum is at most ``top``.
        dtype = np.int32 if top < 2**31 else np.int64
        kids = sampler.lookup(rng.random(int(total)), dtype)
        starts = np.cumsum(pos) - pos  # needs pos > 0
        return np.add.reduceat(kids, starts, dtype=dtype).astype(np.int64, copy=False)
    return rng.multinomial(pos, sampler.pvals) @ sampler.support


def _simulate_chunk(
    sampler: _Sampler, cfg: SimConfig, chunk_idx: int, size: int
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """Levels and cumulative exclusion counts of ``size`` replications.

    ``z`` holds the live populations (positive, not excluded) in replication
    order, which is the array every draw takes.  Extinct replications are
    only counted; ``_group_pairs`` would sort their ``(0, 0)`` row first.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, chunk_idx]))

    z = np.full(size, cfg.z0, dtype=np.int64)
    extinct = 0
    levels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    exc_counts = np.zeros(cfg.n_max + 1, dtype=np.int64)

    for step in range(1, cfg.n_max + 1):
        prev = z
        curr = _draw_next(rng, z, sampler) if z.size else z
        over = curr > cfg.cap
        if over.any():
            prev, curr = prev[~over], curr[~over]
        exc_counts[step] = size - extinct - curr.size
        level = _group_pairs(prev, curr)
        if extinct:
            level = tuple(
                np.concatenate((np.array([head], dtype=np.int64), column))
                for head, column in zip((0, 0, extinct), level)
            )
        levels[step] = level
        z = curr[curr > 0]
        extinct += curr.size - z.size
    return levels, exc_counts


def _chunk_sizes(replications: int) -> list[int]:
    full, rest = divmod(replications, CHUNK)
    sizes = [CHUNK] * full
    if rest:
        sizes.append(rest)
    return sizes


def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise InvalidParameter(f"jobs must be at least 1, got {jobs}")


def simulate_paths(law: OffspringLaw, cfg: SimConfig, jobs: int = 1) -> SimTable:
    """Simulate the branching recursion; see the module notes on determinism."""
    check_jobs(jobs)
    if not law.measure.is_integer_supported:
        raise InvalidParameter("offspring law must have integer support")
    sizes = _chunk_sizes(cfg.replications)
    chunk = partial(_simulate_chunk, _Sampler(law.measure), cfg)
    if jobs > 1 and len(sizes) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(chunk, range(len(sizes)), sizes, chunksize=8))
    else:
        results = list(map(chunk, range(len(sizes)), sizes))

    excluded = np.sum([exc for _, exc in results], axis=0, dtype=np.int64)
    final = {}
    for n in range(1, cfg.n_max + 1):
        columns = zip(*(levels[n] for levels, _ in results))
        final[n] = _group_pairs(*(np.concatenate(col) for col in columns))
    return SimTable(cfg=cfg, levels=final, excluded=excluded)


def _event(
    table: SimTable, n: int, conditioned: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """``(prev, curr, counts, excluded, size)`` of level ``n`` in the event.

    The event is all replications, or with ``conditioned`` those with
    ``Z_{n-1} > 0``.  Capped replications belong to it (they were alive
    when capped) but have no pair, so frequencies over ``size`` leave
    ``excluded / size`` as defect.
    """
    prev, curr, counts = table.pairs(n)
    excluded = int(table.excluded[n])
    if conditioned:
        alive = prev > 0
        prev, curr, counts = prev[alive], curr[alive], counts[alive]
        size = int(counts.sum()) + excluded
    else:
        size = table.cfg.replications
    if size == 0:
        raise DegenerateConditioning(f"no surviving replications at level {n}")
    return prev, curr, counts, excluded, size


def empirical_estimator_law(
    table: SimTable, n: int, conditioned: bool = False
) -> DiscreteMeasure:
    """Relative-frequency law of Z_n / Z_{n-1} with exactly reduced ratios."""
    prev, curr, counts, excluded, size = _event(table, n, conditioned)
    if excluded == size:
        raise DegenerateConditioning(f"no tabulated replications at level {n}")
    return ratio_law(prev, curr, counts / size, excluded / size)


def binned_estimator_law(
    table: SimTable, n: int, resolution: Fraction = Fraction(1, DEFAULT_BIN_DEN),
    conditioned: bool = False,
) -> tuple[DiscreteMeasure, float]:
    """Empirical ratio law with atoms snapped to multiples of ``resolution``.

    Returns the measure and the bin radius, which any metric computed from
    it should add to its slack.
    """
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise InvalidParameter("bin resolution must be positive")
    prev, curr, counts, excluded, size = _event(table, n, conditioned)
    if excluded == size:
        raise DegenerateConditioning(f"no tabulated replications at level {n}")
    ratios = np.where(prev > 0, curr / np.maximum(prev, 1).astype(float), 0.0)
    res_f = float(resolution)
    idx = np.rint(ratios / res_f).astype(np.int64)
    uniq, inverse = np.unique(idx, return_inverse=True)
    weights = np.bincount(inverse, weights=counts.astype(float)) / size
    nums = uniq * resolution.numerator
    g = np.gcd(nums, resolution.denominator)
    out = DiscreteMeasure.from_sorted_arrays(
        nums // g, resolution.denominator // g, weights, excluded / size
    )
    return out, res_f / 2.0


def empirical_consistency_probability(
    table: SimTable, n: int, m: Fraction, eta: Fraction
) -> tuple[float, float, float]:
    """Frequency of ``|Z_n/Z_{n-1} - m| >= eta`` given ``Z_{n-1} > 0``.

    Returns ``(value, excluded share, binomial standard error)``.  Rows are
    classified exactly by ``deviation_mask`` on ``(Z_n, Z_{n-1})``, the
    same test ``consistency_probability`` applies to exact laws.
    """
    prev, curr, counts, excluded, size = _event(table, n, conditioned=True)
    value = float(counts[deviation_mask(curr, prev, m, eta)].sum()) / size
    std_error = math.sqrt(max(value * (1.0 - value), 0.0) / size)
    return value, excluded / size, std_error
