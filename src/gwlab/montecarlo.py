"""Forward simulation of the branching recursion at scale.

Replications run in chunks of ``CHUNK``; chunk ``i`` draws from
``default_rng(SeedSequence([seed, i]))``, so the output is a pure function
of the seed, however chunks are scheduled across workers.  Each generation
is drawn either individual-by-individual and summed per replication (small
populations), or as one multinomial split per replication (large
populations with a narrow offspring support); both produce the
offspring-sum law exactly.  An individual's count is read off the inverse
CDF by counting the CDF steps its uniform reaches (at most ``STEP_LIMIT``
steps) or through a guide table (wider laws), in int32 whenever no sum can
pass it.

Chunks run in batches of ``BATCH`` consecutive indices, one per worker
task.  At each level a batch groups its chunks' live (Z_{n-1}, Z_n) rows at
once with ``group_pairs``; with a ``resolution`` the rows are first
replaced by (1, rint((Z_n / Z_{n-1}) / resolution)), the bins the sweeps
read.  ``_merge`` groups each batch into one running total per level and
counts the extinct into one (0, 0) row per level.

Replications whose population passes the cap stop being tabulated from the
offending generation on; per-generation exclusion counts are part of the
result, never silently dropped.  Every tabulation reads a level through
``_event``, which counts the excluded replications as defect.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .engine import check_start_size
from .errors import DegenerateConditioning, InvalidParameter, json_field, json_int
from .estimator import deviation_mask, ratio_law
from .measures import DiscreteMeasure, group_pairs
from .offspring import OffspringLaw

__all__ = [
    "SimConfig", "SimTable", "simulate_paths", "empirical_estimator_law",
    "binned_estimator_law", "empirical_consistency_probability",
]

# Replications per chunk, and chunks per batch (see ``_simulate_batch``).
CHUNK, BATCH = 4096, 8
Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # one level's columns (see ``SimTable``)

# Ratio laws from simulation are binned to multiples of 1/DEFAULT_BIN_DEN by
# default; half a bin is added to the metric slack.
DEFAULT_BIN_DEN = 64

# Floats stop holding every integer past 2**53, so bin indices stay below it.
BIN_INDEX_LIMIT = 2**53

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

# Every batch tabulates every horizon, live or not.  With every replication capped
# (binary(0.75), cap 8, 10^6 replications, 2-core x86-64, numpy 2.4), one more
# horizon costs 0.9-2.1 ms as pairs and 1.2-1.6 ms as a bin tally: 1-2 s per thousand.
HORIZON_LIMIT = 1_000


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replications: int
    n_max: int
    z0: int = 1
    cap: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("seed", "replications", "n_max", "z0", "cap"):
            object.__setattr__(self, name, json_field(vars(self), name, json_int))
        for name, low in (("seed", 0), ("replications", 1), ("n_max", 1)):
            if getattr(self, name) < low:
                raise InvalidParameter(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.n_max > HORIZON_LIMIT:
            raise InvalidParameter(f"horizon n_max = {self.n_max} is past "
                                   f"HORIZON_LIMIT = {HORIZON_LIMIT}")
        check_start_size(self.z0)
        if self.cap < self.z0:
            raise InvalidParameter("population cap must be at least z0")


@dataclass
class SimTable:
    """Per generation, (Z_{n-1}, Z_n, count) rows or (Z_{n-1} > 0, bin, count) tallies."""

    cfg: SimConfig
    levels: dict[int, Rows]
    excluded: np.ndarray  # excluded[n] = replications missing at level n
    resolution: Fraction | None = None

    def pairs(self, n: int) -> Rows:
        if n not in self.levels:
            raise InvalidParameter(f"level {n} was not simulated")
        return self.levels[n]

    def rows(self):
        """Yields (n, z_prev, z, count) in deterministic order."""
        for n in sorted(self.levels):
            yield from ((n, *row) for row in zip(*(a.tolist() for a in self.levels[n])))


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
        """``support[searchsorted(cum, u, "right")]`` for uniforms ``u``, as
        ``dtype``, which must hold ``support[-1]``."""
        if not self.by_steps:
            bucket = (u * len(self.kids)).astype(np.intp)
            kids = np.take(self.kids.astype(dtype), bucket)
            hit = np.flatnonzero(np.take(self.ambiguous, bucket))
            kids[hit] = self.support[np.searchsorted(self.cum, u[hit], side="right")]
            return kids
        first = self.support[0]
        if not self.jumps.size:
            return np.full(u.size, first, dtype=dtype)
        # The first step's product starts ``kids`` rather than a fill with ``first``,
        # and a bool array adds as 0 or 1 without a multiply: the first saves 7% of
        # simulating binary(0.75), the second 16% on Poisson(2) cut at 16 steps (jumps 1).
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


def _draw_next(rng: np.random.Generator, pos: np.ndarray, sampler: _Sampler) -> np.ndarray:
    """Offspring sums for populations ``pos`` (all positive), one per replication."""
    top = int(pos.max()) * int(sampler.support[-1])  # the largest possible sum
    if top >= 2**63:
        raise InvalidParameter(f"offspring sums can reach {top}, past int64; lower cap")
    total = pos.sum(dtype=np.float64)  # exact below 2**53, and never wraps
    if total <= INDIV_LIMIT or len(sampler.support) > MULTINOMIAL_SUPPORT_LIMIT:
        if total > _INDIV_HARD_LIMIT:
            raise InvalidParameter("population too large for individual draws and "
                                   "support too wide for multinomial splitting")
        # Every count and every sum is at most ``top``.
        dtype = np.int32 if top < 2**31 else np.int64
        kids = sampler.lookup(rng.random(int(total)), dtype)
        starts = np.cumsum(pos) - pos  # needs pos > 0
        return np.add.reduceat(kids, starts, dtype=dtype).astype(np.int64, copy=False)
    return rng.multinomial(pos, sampler.pvals) @ sampler.support


def _bin_indices(ratios: np.ndarray, resolution: Fraction) -> np.ndarray:
    """``rint(ratios / resolution)`` as int64, refused where a bin index, or the
    denominator when no ratio reaches 1, would pass ``BIN_INDEX_LIMIT``."""
    largest = float(ratios.max(initial=0.0))
    if Fraction(max(largest, 1.0)) / resolution > BIN_INDEX_LIMIT:
        raise InvalidParameter(f"ratios up to {largest} at resolution {resolution} need "
                               f"bin indices past BIN_INDEX_LIMIT = 2**53")
    return np.rint(ratios / float(resolution)).astype(np.int64)


def _simulate_batch(sampler: _Sampler, cfg: SimConfig, resolution: Fraction | None,
                    chunks: range) -> tuple[dict[int, Rows], np.ndarray]:
    """Levels (pairs or bin tallies) and cumulative exclusion counts of ``chunks``.

    ``zs[j]`` holds chunk ``j``'s live populations (positive, not excluded)
    in replication order, drawn by its own generator, so each stream is read
    as by the chunk alone.  The extinct are left for ``_merge`` to count.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, i])) for i in chunks]
    zs = [np.full(min(CHUNK, cfg.replications - i * CHUNK), cfg.z0, np.int64) for i in chunks]
    levels: dict[int, Rows] = {}
    excluded = np.zeros(cfg.n_max + 1, dtype=np.int64)
    for step in range(1, cfg.n_max + 1):
        draws = [_draw_next(rng, z, sampler) if z.size else z for rng, z in zip(rngs, zs)]
        prev, curr = np.concatenate(zs), np.concatenate(draws)
        over = curr > cfg.cap
        excluded[step] = excluded[step - 1] + np.count_nonzero(over)
        if over.any():
            prev, curr = prev[~over], curr[~over]
        if resolution is not None and curr.size:
            prev, curr = np.ones_like(prev), _bin_indices(curr / prev.astype(float), resolution)
        levels[step] = group_pairs(prev, curr)
        zs = [d[(d > 0) & (d <= cfg.cap)] for d in draws]
    return levels, excluded


def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise InvalidParameter(f"jobs must be at least 1, got {jobs}")


def simulate_paths(
    law: OffspringLaw, cfg: SimConfig, jobs: int = 1, resolution: Fraction | None = None
) -> SimTable:
    """Simulate the branching recursion; see the module notes on determinism.
    With a ``resolution`` the levels tally bins for ``binned_estimator_law``."""
    check_jobs(jobs)
    if not law.measure.is_integer_supported:
        raise InvalidParameter("offspring law must have integer support")
    resolution = None if resolution is None else _check_resolution(resolution)
    chunks = range(-(-cfg.replications // CHUNK))
    batches = [chunks[i : i + BATCH] for i in range(0, len(chunks), BATCH)]
    batch = partial(_simulate_batch, _Sampler(law.measure), cfg, resolution)
    if jobs > 1 and len(batches) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return _merge(cfg, resolution, pool.map(batch, batches))
    return _merge(cfg, resolution, map(batch, batches))


def _merge(cfg: SimConfig, resolution: Fraction | None, results: Iterable) -> SimTable:
    """One table from the batches' ``(levels, excluded)``, in batch order.

    Each batch's level is grouped with the level's running total as the
    batch arrives, pairs and tallies alike, so no batch's rows outlive its
    merge.  A level's replications neither excluded nor in its rows get one
    ``(0, 0)`` row in front.
    """
    excluded = np.zeros(cfg.n_max + 1, dtype=np.int64)
    totals: dict[int, Rows] = {}
    for levels, exc in results:
        excluded += exc
        for n, level in levels.items():
            if n in totals:
                level = group_pairs(*map(np.concatenate, zip(totals[n], level)))
            totals[n] = level
    for n, level in totals.items():
        extinct = cfg.replications - excluded[n] - level[2].sum()
        if extinct:
            totals[n] = tuple(np.concatenate(([head], column))
                              for head, column in zip((0, 0, extinct), level))
    return SimTable(cfg=cfg, levels=totals, excluded=excluded, resolution=resolution)


def _check_resolution(resolution: Fraction) -> Fraction:
    try:
        checked = Fraction(resolution) if isinstance(resolution, numbers.Real) else None
    except (ValueError, OverflowError):  # NaN and infinities
        checked = None
    if checked is None or checked <= 0:
        raise InvalidParameter(f"bin resolution must be a positive number, got {resolution!r:.80}")
    return checked


def _event(
    table: SimTable, n: int, conditioned: bool, resolution: Fraction | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """``(prev, curr, counts, excluded, size)`` of level ``n`` in the event.

    The event is all replications, or with ``conditioned`` those with
    ``Z_{n-1} > 0``.  Capped replications belong to it (they were alive
    when capped) but have no pair, so frequencies over ``size`` leave
    ``excluded / size`` as defect; a tally is read only at its ``resolution``.
    """
    if table.resolution not in (None, resolution):
        wanted = resolution or "pairs"
        raise InvalidParameter(f"level {n} holds bins at {table.resolution}, not {wanted}")
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
    it should add to its slack.  A tally at ``resolution`` is read as binned.
    """
    resolution = _check_resolution(resolution)
    prev, curr, counts, excluded, size = _event(table, n, conditioned, resolution)
    if excluded == size:
        raise DegenerateConditioning(f"no tabulated replications at level {n}")
    idx = curr  # a tally's bin indices, with the extinct in bin 0
    if table.resolution is None:
        ratios = np.where(prev > 0, curr / np.maximum(prev, 1).astype(float), 0.0)
        idx = _bin_indices(ratios, resolution)
    uniq, inverse = np.unique(idx, return_inverse=True)
    weights = np.bincount(inverse, weights=counts.astype(float)) / size
    nums = uniq * resolution.numerator
    g = np.gcd(nums, resolution.denominator)
    out = DiscreteMeasure.from_sorted_arrays(
        nums // g, resolution.denominator // g, weights, excluded / size
    )
    return out, float(resolution) / 2.0


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
