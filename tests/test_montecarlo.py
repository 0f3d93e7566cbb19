"""Seeded forward simulation and empirical estimator laws."""

import hashlib
import math
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwlab import montecarlo
from gwlab import (
    DiscreteMeasure,
    FamilySpec,
    SimConfig,
    binned_estimator_law,
    build,
    empirical_estimator_law,
    estimator_law,
    joint_law,
    prohorov,
    simulate_paths,
)
from gwlab.errors import DegenerateConditioning, GwError, InvalidParameter
from gwlab.lab import contamination_grid
from gwlab.measures import group_pairs
from gwlab.montecarlo import BATCH, CHUNK, STEP_LIMIT, _draw_next, _Sampler

import oracles

DELTA2 = FamilySpec.raw([0.0, 0.0, 1.0])


class TestSimulatePaths:
    def test_rerun_is_bit_identical(self, b75):
        cfg = SimConfig(seed=99, replications=1, n_max=4)
        assert oracles.tables_equal(simulate_paths(b75, cfg), simulate_paths(b75, cfg))

    def test_larger_runs_deterministic_across_jobs(self, b75):
        cfg = SimConfig(seed=42, replications=50_000, n_max=3)
        a = simulate_paths(b75, cfg, jobs=1)
        b = simulate_paths(b75, cfg, jobs=3)
        assert oracles.tables_equal(a, b)

    def test_seed_changes_the_draws(self, b75):
        cfg1 = SimConfig(seed=1, replications=2_000, n_max=2)
        cfg2 = SimConfig(seed=2, replications=2_000, n_max=2)
        assert not oracles.tables_equal(
            simulate_paths(b75, cfg1), simulate_paths(b75, cfg2)
        )

    def test_binary_extinction_frequency_near_exact_value(self, b75):
        reps = 1_000_000
        table = simulate_paths(b75, SimConfig(seed=7, replications=reps, n_max=2))
        prev, curr, counts = table.pairs(2)
        extinct = counts[curr == 0].sum()
        exact = 0.296875
        se = (exact * (1 - exact) / reps) ** 0.5
        assert abs(extinct / reps - exact) <= 3 * se

    def test_deterministic_branching_is_a_single_path(self):
        law = build(DELTA2)
        for z0 in (1, 3):
            table = simulate_paths(law, SimConfig(seed=5, replications=20, n_max=4, z0=z0))
            for n in range(1, 5):
                prev, curr, counts = table.pairs(n)
                assert list(prev) == [z0 * 2 ** (n - 1)]
                assert list(curr) == [z0 * 2**n]
                assert list(counts) == [20]

    def test_population_cap_excludes_and_reports(self):
        law = build(DELTA2)
        table = simulate_paths(law, SimConfig(seed=5, replications=10, n_max=5, cap=8))
        # Z_4 = 16 exceeds the cap, so levels 4 and 5 lose every replication.
        assert table.excluded[3] == 0
        assert table.excluded[4] == 10
        assert table.pairs(4)[2].sum() == 0

    def test_rows_are_sorted_and_complete(self, b75):
        table = simulate_paths(b75, SimConfig(seed=11, replications=500, n_max=3))
        rows = list(table.rows())
        assert rows == sorted(rows)
        level_totals = {}
        for n, _, _, count in rows:
            level_totals[n] = level_totals.get(n, 0) + count
        assert level_totals == {1: 500, 2: 500, 3: 500}

    @pytest.mark.parametrize("replications", [1, 3])
    def test_population_that_can_pass_int64_is_a_typed_error(self, b75, replications):
        # 2**62 parents with up to 2 children each can reach 2**63.  With one
        # replication Z_2 used to wrap negative; with three, the total number
        # of draws did.
        cfg = SimConfig(
            seed=0, replications=replications, n_max=3, z0=2**62, cap=2**63 - 1
        )
        with pytest.raises(InvalidParameter, match="cap"):
            simulate_paths(b75, cfg)

    def test_start_size_past_int64_is_a_typed_error(self):
        # np.full(..., z0, dtype=np.int64) used to raise OverflowError.
        with pytest.raises(InvalidParameter, match="int64"):
            SimConfig(seed=0, replications=3, n_max=2, z0=2**63, cap=2**63)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_a_typed_error(self, b75, jobs):
        cfg = SimConfig(seed=0, replications=10, n_max=2)
        with pytest.raises(InvalidParameter, match="jobs"):
            simulate_paths(b75, cfg, jobs=jobs)

    def test_total_past_int64_still_draws(self):
        # No sum can pass int64 with at most one child each, but the four
        # populations add up to 2**64.  The int64 total wrapped to zero, and
        # the per-individual labels that followed crashed the interpreter.
        law = build(FamilySpec.raw([0.5, 0.5]))
        cfg = SimConfig(seed=0, replications=4, n_max=1, z0=2**62, cap=2**63 - 1)
        prev, curr, counts = simulate_paths(law, cfg).pairs(1)
        assert list(prev) == [2**62] * 4 and list(counts) == [1] * 4
        assert all(abs(int(k) - 2**61) < 2**33 for k in curr)


def _field(low=-3, high=6):
    """Tiny integers and floats, integral or not, and values no field takes."""
    return st.one_of(
        st.integers(low, high),
        st.floats(low, high),
        st.sampled_from([math.nan, math.inf, -math.inf, True, "x", "3", None]),
    )


class TestSimConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(_field(), st.just(2**40)),
        replications=_field(),
        n_max=_field(),
        z0=_field(),
        cap=st.one_of(_field(), st.just(2**70)),
        resolution=st.one_of(
            st.none(),
            st.integers(-2, 3),
            st.fractions(-1, 1),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(["x", "1/64"]),
        ),
    )
    @example(seed=0, replications=2, n_max=2, z0=1, cap=math.nan, resolution=None)
    @example(seed=0, replications=2, n_max=2, z0=1.5, cap=4, resolution=None)
    @example(seed=0.0, replications=2.0, n_max=2, z0=2.0, cap=9, resolution=math.inf)
    def test_each_case_completes_or_raises_a_typed_error(
        self, b75, seed, replications, n_max, z0, cap, resolution
    ):
        try:
            cfg = SimConfig(seed, replications, n_max, z0, cap)
            table = simulate_paths(b75, cfg, resolution=resolution)
        except GwError:
            return
        fields = (cfg.seed, cfg.replications, cfg.n_max, cfg.z0, cfg.cap)
        assert all(type(v) is int for v in fields)
        assert sorted(table.levels) == list(range(1, cfg.n_max + 1))
        for n in table.levels:
            assert table.levels[n][2].sum() + table.excluded[n] == cfg.replications


def _digest(table) -> str:
    h = hashlib.sha256()
    for n in sorted(table.levels):
        for arr in table.levels[n]:
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(table.excluded, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestGroupPairs:
    # (low, high) ranges of the prev and curr columns: below 2^31, straddling
    # it, just past and far past the point where prev * pack + curr no longer
    # fits in int64 unless one or both columns are replaced by their ranks.
    RANGES = [
        ((0, 50), (0, 50)),
        ((0, 2**31 - 1), (0, 2**31 - 1)),
        ((2**31 - 40, 2**31 + 40), (2**31 - 40, 2**31 + 40)),
        ((2**20, 2**40), (2**31 - 5, 2**31 + 5)),
        ((2**32 - 50, 2**32 + 50), (2**31 - 5, 2**31 + 5)),
        ((2**62 - 60, 2**62 + 60), (0, 30)),
        ((0, 30), (2**62 - 60, 2**62 + 60)),
        ((2**62 - 60, 2**62 + 60), (2**62 - 60, 2**62 + 60)),
    ]

    @pytest.mark.parametrize("prev_range,curr_range", RANGES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_a_counter(self, prev_range, curr_range, weighted):
        rng = np.random.default_rng(5)
        size = 3_000
        prev = rng.integers(*prev_range, size=size, endpoint=True, dtype=np.int64)
        curr = rng.integers(*curr_range, size=size, endpoint=True, dtype=np.int64)
        # Draw the rows from half as many pairs, so that pairs really merge.
        rows = rng.integers(0, size // 2, size=size)
        prev, curr = prev[rows], curr[rows]
        counts = rng.integers(1, 10**6, size=size, dtype=np.int64) if weighted else None
        weights = counts.tolist() if weighted else [1] * size
        oracle = Counter()
        for j, k, c in zip(prev.tolist(), curr.tolist(), weights):
            oracle[j, k] += c
        want = sorted(oracle.items())
        got_prev, got_curr, got_counts = group_pairs(prev, curr, counts)
        assert all(a.dtype == np.int64 for a in (got_prev, got_curr, got_counts))
        got = list(zip(zip(got_prev.tolist(), got_curr.tolist()), got_counts.tolist()))
        assert got == want
        assert len(want) < size

    def test_contamination_table_is_pinned(self):
        # Populations of the k = 50 member pass 2^31 at level 7, and at
        # level 8 prev * pack + curr passes int64.  The digest comes from a
        # grouping by structured-dtype sort, which packs no keys.
        law = build(contamination_grid(FamilySpec.binary(0.75), (50,))[0])
        cfg = SimConfig(seed=0, replications=20_000, n_max=8, cap=10**12)
        table = simulate_paths(law, cfg)
        assert int(table.pairs(8)[1].max()) > 2**34
        assert _digest(table) == (
            "4ab120dae4a283e0b70c022387a3cb11c473055014d5c33c26a2b376d1f4184c"
        )


@st.composite
def offspring_pvals(draw):
    """Probability vectors: arbitrary, dyadic with CDF steps on bucket edges
    (up to 255 steps, so on both sides of ``STEP_LIMIT``), a heavy head with
    a tail of tiny atoms sharing one bucket, or arbitrary with
    ``STEP_LIMIT`` steps (the widest law drawn by counting) or one more."""
    kind = draw(st.sampled_from(["random", "dyadic", "tail", "limit"]))
    if kind in ("random", "limit"):
        if kind == "random":
            low, high = 1, 40
        else:
            low = high = STEP_LIMIT + 1 + draw(st.integers(0, 1))
        weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=low, max_size=high))
        pvals = np.array(weights) / sum(weights)
    elif kind == "dyadic":
        bits = draw(st.integers(1, 8))
        cuts = draw(st.permutations(range(1, 2**bits)))
        cuts = cuts[: draw(st.integers(0, len(cuts)))]
        pvals = np.diff([0, *sorted(cuts), 2**bits]) / 2**bits
    else:
        tail = draw(st.integers(1, 200))
        tiny = draw(st.floats(1e-12, 1e-6))
        pvals = np.array([1.0 - tail * tiny] + [tiny] * tail)
    return pvals


# Laws on both sides of the crossover between the two ``_Sampler`` routes.
AT_LIMIT = np.full(STEP_LIMIT + 1, 1.0 / (STEP_LIMIT + 1))
PAST_LIMIT = np.full(STEP_LIMIT + 2, 1.0 / (STEP_LIMIT + 2))

# Past the limit with every CDF step j/64 on an edge of the 256 buckets.
DYADIC_64 = np.full(64, 1.0 / 64)

# An atom that does not fit in int32, so that every draw must run in int64.
WIDE_ATOM = 2**31

# ``STEP_LIMIT`` values that send every law down one route.
ROUTES = {"steps": 2**31, "guide": -1}


def _sampler(pvals, wide=False, first=1, route=None):
    """A sampler on ``first, first + 3, ...``; ``route`` overrides the choice."""
    support = np.arange(len(pvals), dtype=np.int64) * 3 + first
    if wide:
        support[-1] = WIDE_ATOM
    measure = DiscreteMeasure.from_sorted_arrays(support, np.ones_like(support), pvals)
    if route is None:
        return support, _Sampler(measure)
    with mock.patch.object(montecarlo, "STEP_LIMIT", ROUTES[route]):
        return support, _Sampler(measure)


class TestGuideTable:
    # Every law is read by both routes; ``by_steps`` picks the right one.
    @settings(max_examples=300, deadline=None)
    @given(pvals=offspring_pvals(), wide=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(pvals=AT_LIMIT, wide=False, seed=0)
    @example(pvals=PAST_LIMIT, wide=False, seed=0)
    @example(pvals=DYADIC_64, wide=False, seed=0)
    @example(pvals=np.array([0.25, 0.25, 0.5]), wide=True, seed=0)
    def test_lookup_is_the_inverse_cdf(self, pvals, wide, seed):
        assert _sampler(pvals, wide)[1].by_steps == (len(pvals) - 1 <= STEP_LIMIT)
        for route in ROUTES:
            support, sampler = _sampler(pvals, wide, route=route)
            assert sampler.by_steps == (route == "steps")
            steps = sampler.cum[:-1]
            u = [
                [0.0], steps, np.nextafter(steps, 0), np.nextafter(steps, 1),
                np.random.default_rng(seed).random(1000),
            ]
            if route == "guide":
                size = len(sampler.kids)
                assert size >= max(64, 4 * len(pvals)) and size & (size - 1) == 0
                assert sampler.ambiguous.sum() <= len(pvals) - 1
                # Exactly the buckets a step lies strictly inside; a step on
                # an edge starts its bucket and leaves it unambiguous.
                at = steps[steps < 1] * size
                inside = np.zeros(size, dtype=bool)
                inside[np.floor(at[at != np.floor(at)]).astype(np.intp)] = True
                assert np.array_equal(sampler.ambiguous, inside)
                edges = np.arange(size) / size
                u += [edges, np.nextafter(edges[1:], 0)]
            u = np.concatenate(u)
            u = u[(u >= 0) & (u < 1)]
            want = support[np.searchsorted(sampler.cum, u, side="right")]
            # Both routes hand ``_draw_next`` the dtype it reduces in.
            for dtype in (np.int64,) if wide else (np.int32, np.int64):
                got = sampler.lookup(u, dtype)
                assert got.dtype == dtype
                assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        pvals=offspring_pvals(),
        wide=st.booleans(),
        pos=st.lists(st.integers(1, 40), min_size=1, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pvals=AT_LIMIT, wide=False, pos=[40] * 60, seed=0)
    @example(pvals=PAST_LIMIT, wide=False, pos=[40] * 60, seed=0)
    @example(pvals=DYADIC_64, wide=False, pos=[40] * 60, seed=0)
    @example(pvals=np.array([0.25, 0.25, 0.5]), wide=True, pos=[40] * 60, seed=0)
    def test_draw_sums_match_the_float_reduction(self, pvals, wide, pos, seed):
        pos = np.array(pos, dtype=np.int64)
        u = np.random.default_rng(seed).random(int(pos.sum()))
        for route in ROUTES:
            support, sampler = _sampler(pvals, wide, route=route)
            kids = support[np.searchsorted(sampler.cum, u, side="right")]
            got = _draw_next(np.random.default_rng(seed), pos, sampler)
            assert got.dtype == np.int64
            assert np.array_equal(got, oracles.summed_draws(kids, pos))


class TestLiveChunkLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        pvals=offspring_pvals(),
        z0=st.integers(1, 5),
        headroom=st.integers(0, 60),
        n_max=st.integers(1, 8),
        size=st.integers(1, 64),
        chunks=st.integers(1, 3),
        last=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        pvals=np.array([0.3, 0.3, 0.4]), z0=2, headroom=10, n_max=8, size=64, chunks=3,
        last=64, seed=0,
    )
    def test_live_rows_match_the_full_array_loop(
        self, pvals, z0, headroom, n_max, size, chunks, last, seed
    ):
        # An atom at 0 lets paths die out, and atoms 3 apart push the rest
        # past a cap at most 60 above the start.  Chunks of ``size``
        # replications, the last one of ``last`` or fewer, make one batch.
        _, sampler = _sampler(pvals, first=0)
        reps = size * (chunks - 1) + min(last, size)
        cfg = SimConfig(seed=seed, replications=reps, n_max=n_max, z0=z0, cap=z0 + headroom)
        with mock.patch.object(montecarlo, "CHUNK", size):
            batch = montecarlo._simulate_batch(sampler, cfg, None, range(chunks))
            table = montecarlo._merge(cfg, None, [batch])
        want = oracles.simulate_table(sampler, cfg, size)
        assert table.excluded.dtype == want.excluded.dtype
        assert np.array_equal(table.excluded, want.excluded)
        assert sorted(table.levels) == sorted(want.levels)
        for n, rows in want.levels.items():
            for got, arr in zip(table.levels[n], rows):
                assert got.dtype == arr.dtype
                assert np.array_equal(got, arr)


class TestBatches:
    # Replication counts on both sides of a chunk and of a batch, past a
    # batch by a chunk and a part, and three batches, so that a level's
    # running total is regrouped twice; jobs = 2 runs a pool from two batches on.
    @settings(max_examples=25, deadline=None)
    @given(
        law=st.sampled_from([FamilySpec.binary(0.75), FamilySpec.raw([0.2, 0.3, 0.1, 0.4])]),
        replications=st.sampled_from([
            1, CHUNK - 1, CHUNK * BATCH - 1, CHUNK * BATCH + 1, CHUNK * BATCH + CHUNK + 300,
            2 * CHUNK * BATCH + 1,
        ]),
        z0=st.integers(1, 3),
        cap=st.one_of(st.none(), st.integers(3, 12)),
        den=st.one_of(st.none(), st.integers(1, 300), st.just(2**40)),
        jobs=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        law=FamilySpec.binary(0.75), replications=CHUNK * BATCH + CHUNK + 300, z0=2, cap=8,
        den=64, jobs=2, seed=0,
    )
    def test_tables_match_the_chunks_grouped_one_by_one(
        self, law, replications, z0, cap, den, jobs, seed
    ):
        law = build(law)
        cfg = SimConfig(seed=seed, replications=replications, n_max=4, z0=z0,
                        cap=max(cap or 10**7, z0))
        resolution = None if den is None else Fraction(1, den)
        table = simulate_paths(law, cfg, jobs=jobs, resolution=resolution)
        want = oracles.simulate_table(_Sampler(law.measure), cfg, CHUNK, resolution)
        assert oracles.tables_equal(table, want)


@st.composite
def small_laws(draw):
    """Binary, three-point, or raw laws on 0..3 with one far atom at 8..60."""
    kind = draw(st.sampled_from(["binary", "three-point", "far-atom"]))
    if kind == "binary":
        return build(FamilySpec.binary(draw(st.floats(0.05, 0.95))))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=4))
    if kind == "three-point":
        return build(FamilySpec.three_point(*(np.array(weights[:3]) / sum(weights[:3]))))
    far = draw(st.integers(8, 60))
    weights = np.array(weights + [0.0] * (far - len(weights)) + [0.05])
    return build(FamilySpec.raw((weights / weights.sum()).tolist()))


def _binned_outcome(table, n, resolution, conditioned):
    try:
        law, radius = binned_estimator_law(table, n, resolution, conditioned)
    except (DegenerateConditioning, InvalidParameter) as err:
        return type(err)
    return law.nums.tolist(), law.dens.tolist(), law.weights_array.tobytes(), law.defect, radius


class TestBinTally:
    # ``CHUNK * BATCH + 300`` replications make two batches, so ``jobs = 2``
    # runs a pool; caps from 3 to 40 exclude replications.
    @settings(max_examples=30, deadline=None)
    @given(
        law=small_laws(),
        den=st.one_of(st.integers(1, 300), st.sampled_from([2**47, 2**52, 2**53])),
        z0=st.integers(1, 3),
        cap=st.one_of(st.none(), st.integers(3, 40)),
        jobs=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(law=build(FamilySpec.binary(0.75)), den=64, z0=1, cap=None, jobs=2, seed=0)
    def test_tally_bins_like_the_pair_table(self, law, den, z0, cap, jobs, seed):
        cfg = SimConfig(
            seed=seed, replications=CHUNK * BATCH + 300, n_max=4, z0=z0,
            cap=max(cap or 10**7, z0),
        )
        resolution = Fraction(1, den)
        pairs = simulate_paths(law, cfg)
        want = {
            (n, conditioned): _binned_outcome(pairs, n, resolution, conditioned)
            for n in range(1, cfg.n_max + 1)
            for conditioned in (False, True)
        }
        try:
            tally = simulate_paths(law, cfg, jobs=jobs, resolution=resolution)
        except InvalidParameter as err:
            # A tally refuses every level when one needs indices past the limit.
            assert "BIN_INDEX_LIMIT" in str(err)
            assert InvalidParameter in want.values()
            return
        assert np.array_equal(tally.excluded, pairs.excluded)
        for (n, conditioned), outcome in want.items():
            assert _binned_outcome(tally, n, resolution, conditioned) == outcome

    def test_past_exact_float_indices_is_refused(self, b75):
        cfg = SimConfig(seed=29, replications=1_000, n_max=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for den in (2**53, 10**20):
                with pytest.raises(InvalidParameter, match="BIN_INDEX_LIMIT"):
                    simulate_paths(b75, cfg, resolution=Fraction(1, den))
            # Ratios reach 2, so 2**52 is the finest power of two that fits.
            resolution = Fraction(1, 2**52)
            table = simulate_paths(b75, cfg, resolution=resolution)
            binned_estimator_law(table, 2, resolution=resolution)

    def test_tally_refuses_a_level_the_pair_path_refuses_only_when_read(self):
        # Offspring 2 or 64: level 1 reaches ratio 64, whose index at this
        # resolution passes the limit, while level 2 stays at 33.  A pair
        # table still bins level 2; a tally bins every level as it goes.
        weights = [0.0] * 65
        weights[2], weights[64] = 0.99, 0.01
        law = build(FamilySpec.raw(weights))
        cfg = SimConfig(seed=0, replications=500, n_max=2)
        resolution = Fraction(48, 2**53)
        pairs = simulate_paths(law, cfg)
        with pytest.raises(InvalidParameter, match="BIN_INDEX_LIMIT"):
            binned_estimator_law(pairs, 1, resolution=resolution)
        binned_estimator_law(pairs, 2, resolution=resolution)
        with pytest.raises(InvalidParameter, match="ratios up to 64.0 .*BIN_INDEX_LIMIT"):
            simulate_paths(law, cfg, resolution=resolution)

    def test_tally_is_read_only_as_bins_at_its_resolution(self, b75):
        cfg = SimConfig(seed=29, replications=1_000, n_max=2)
        table = simulate_paths(b75, cfg, resolution=Fraction(1, 64))
        with pytest.raises(InvalidParameter, match="not pairs"):
            empirical_estimator_law(table, 2)
        with pytest.raises(InvalidParameter, match="not 1/32"):
            binned_estimator_law(table, 2, resolution=Fraction(1, 32))


class TestEmpiricalEstimatorLaw:
    def test_all_extinct_gives_point_mass_at_zero(self):
        law = build(FamilySpec.raw([1.0]))
        table = simulate_paths(law, SimConfig(seed=3, replications=100, n_max=3))
        emp = empirical_estimator_law(table, 2)
        assert emp.support == (Fraction(0),)
        assert emp.weights == (1.0,)

    def test_ratios_are_reduced_fractions(self, t1):
        table = simulate_paths(t1, SimConfig(seed=13, replications=5_000, n_max=3))
        emp = empirical_estimator_law(table, 3)
        for x in emp.support:
            assert Fraction(x.numerator, x.denominator) == x
        assert len(set(emp.support)) == len(emp.support)
        assert sum(emp.weights) == pytest.approx(1.0, abs=1e-12)

    def test_conditioned_variant_drops_extinct_rows(self, b75):
        table = simulate_paths(b75, SimConfig(seed=17, replications=20_000, n_max=3))
        cond = empirical_estimator_law(table, 3, conditioned=True)
        assert cond.mass_at(0) < empirical_estimator_law(table, 3).mass_at(0)

    @pytest.mark.parametrize("conditioned", [False, True])
    def test_excluded_replications_are_defect(self, b75, conditioned):
        # A cap of 6 excludes 7,200 of 20,000 replications at n = 4; their
        # ratios are unknown, so they must stay as defect, not be dropped.
        cfg = SimConfig(seed=1, replications=20_000, n_max=4, cap=6)
        table = simulate_paths(b75, cfg)
        assert table.excluded[4] == 7_200
        emp = empirical_estimator_law(table, 4, conditioned=conditioned)
        binned, _ = binned_estimator_law(table, 4, conditioned=conditioned)
        prev, _, counts = table.pairs(4)
        event = counts[prev > 0].sum() + 7_200 if conditioned else 20_000
        assert emp.defect == 7_200 / event
        assert emp.defect == binned.defect
        assert emp.total_mass == pytest.approx(binned.total_mass, abs=1e-12)
        if not conditioned:
            assert emp.total_mass == pytest.approx(0.64, abs=1e-12)

    @pytest.mark.parametrize(
        "spec,n,reps",
        [
            (FamilySpec.binary(0.75), 5, 1_000_000),
            (FamilySpec.three_point(0.20, 0.50, 0.30), 4, 200_000),
            (FamilySpec.poisson(2.0), 3, 100_000),
        ],
    )
    def test_close_to_exact_law(self, spec, n, reps):
        law = build(spec)
        table = simulate_paths(law, SimConfig(seed=23, replications=reps, n_max=n))
        emp = empirical_estimator_law(table, n)
        exact = estimator_law(joint_law(law, n)).law
        assert prohorov(emp, exact).value <= 0.01
