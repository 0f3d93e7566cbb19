"""Exact law propagation: generations, joints, conditioning, sums of draws."""

from fractions import Fraction

import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_dict, joint_entries
from gwlab import (
    DEFAULT_TAIL_BUDGET,
    BudgetExceeded,
    DegenerateConditioning,
    DiscreteMeasure,
    FamilySpec,
    InvalidParameter,
    OffspringLaw,
    PowerCache,
    Propagator,
    build,
    condition_on_survival,
    contamination_grid,
    extinction_by_n,
    extinction_probability,
    joint_law,
    propagate,
    trajectory_tv,
    wlln_probability,
)

B75_PMF = {0: 0.25, 2: 0.75}
T1_PMF = {0: 0.20, 2: 0.50, 3: 0.30}


def gen_dict(law, n, z0=1):
    return as_dict(propagate(law, n, z0=z0))


def test_oracle_enumeration_matches_dict_power():
    # The reference sum_of_draws switches from tuple enumeration to dict
    # convolution for large draw counts; hold the two together where both run.
    for z in (0, 1, 2, 3, 5, 7):
        enum = oracles.sum_of_draws(T1_PMF, z)
        power = oracles.dict_power(T1_PMF, z)
        assert oracles.tv(enum, power) <= 1e-13


class TestPropagate:
    def test_generation_zero_is_start_state(self, b75):
        for z0 in (1, 3):
            g = propagate(b75, 0, z0=z0)
            assert g.support == (Fraction(z0),)
            assert g.weights == (1.0,)

    def test_first_generation_is_offspring_law(self, b75):
        assert propagate(b75, 1) == b75.measure

    def test_binary_second_generation_extinct_mass(self, b75):
        assert propagate(b75, 2).mass_at(0) == pytest.approx(
            0.296875, abs=1e-15
        )

    @pytest.mark.parametrize("pmf,spec", [
        (B75_PMF, FamilySpec.binary(0.75)),
        (T1_PMF, FamilySpec.three_point(0.20, 0.50, 0.30)),
    ])
    def test_matches_tree_enumeration(self, pmf, spec):
        law = build(spec)
        for n, z0 in [(1, 1), (2, 1), (3, 1), (2, 2)]:
            ref = oracles.generation_law(pmf, n, z0)
            got = gen_dict(law, n, z0)
            ref_frac = {Fraction(k): v for k, v in ref.items()}
            assert oracles.tv(got, ref_frac) <= 1e-14

    def test_recursion_agrees_with_power_method(self, t1):
        # Ancestors branch independently, so the law from z0 of them is the
        # z0-fold convolution power of the law from one.
        budget = 1e-12
        for z0 in (2, 3):
            for n in range(1, 7):
                got = propagate(t1, n, z0=z0, budget=budget)
                single = propagate(t1, n, budget=budget / 2)
                ref = oracles.dense_power(single.dense_weights(), z0)
                ref = {Fraction(k): float(w) for k, w in enumerate(ref) if w}
                assert oracles.tv(as_dict(got), ref) <= 2 * budget
                assert got.defect <= budget

    def test_mass_at_zero_matches_pgf_iterates(self):
        law = build(FamilySpec.poisson(2.0))
        for n in (1, 2, 3, 4):
            g = propagate(law, n)
            from gwlab import iterate_pgf_at_zero

            assert abs(g.mass_at(0) - iterate_pgf_at_zero(law, n)) <= (
                g.defect + 1e-12
            )

    def test_mean_growth(self, b75):
        for z0 in (1, 2):
            for n in (1, 2, 3, 4):
                g = propagate(b75, n, z0=z0)
                from gwlab import mean

                assert mean(g) == pytest.approx(
                    z0 * b75.mean_m**n, abs=1e-9
                )

    def test_generation_past_the_horizon_is_refused(self, b75):
        # Each step may drop budget / n_max, so only a step past n_max
        # could take the drops past the budget.
        prop = Propagator(b75, n_max=3)
        assert prop.joint(4).n == 4  # reads generation 3
        with pytest.raises(InvalidParameter, match="past the horizon"):
            prop.generation(4)

    def test_law_defect_is_carried_not_charged_to_the_budget(self):
        # Two Poisson(3) ancestors carry the law's own tail defect past the
        # 1e-12 budget by generation 5; it goes into the defect instead.
        # Only a cost cap ends the propagation, at step 6.
        prop = Propagator(build(FamilySpec.poisson(3.0)), z0=2, n_max=6)
        law = prop.generation(5)
        assert law.defect > DEFAULT_TAIL_BUDGET
        assert law.total_mass + law.defect == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(BudgetExceeded, match="_DENSE_WORK_CAP") as err:
            prop.joint(6)
        assert err.value.step == 6

    @pytest.mark.parametrize("make", [
        lambda: build(FamilySpec.poisson(2.0), float("nan")),
        lambda: Propagator(build(FamilySpec.binary(0.75)), budget=-1.0),
    ], ids=["build-nan", "propagator-negative"])
    def test_bad_budget_is_refused_where_it_is_spent(self, make):
        with pytest.raises(InvalidParameter, match="budget"):
            make()

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.one_of(
            st.builds(FamilySpec.poisson, st.floats(1.1, 2.0)),
            st.builds(FamilySpec.polynomial, st.floats(2.5, 4.0), st.integers(4, 10)),
        ),
        z0=st.integers(1, 3),
        n=st.integers(1, 6),
        budget=st.sampled_from([1e-12, 1e-8, 1e-4]),
    )
    def test_drops_stay_within_the_budget(self, spec, z0, n, budget):
        # A step's drops are its defect less the defect it inherits, summed
        # in the engine's order; each difference is good to half an ulp.
        prop = Propagator(build(spec), z0=z0, n_max=n, budget=budget)
        drops = slop = 0.0
        prev = prop.generation(0)
        for t in range(1, n + 1):
            cur = prop.generation(t)
            inherited = prev.defect
            w = prev.dense_weights()
            for j in np.flatnonzero(w).tolist():
                inherited += w[j] * prop.powers.get(j)[1]
            drops += cur.defect - inherited
            slop += math.ulp(cur.defect)
            prev = cur
        assert -slop <= drops <= budget * (1 + 1e-9) + slop


@pytest.mark.parametrize("call", [
    lambda law: extinction_by_n(law, 3, z0=2**63),
    lambda law: trajectory_tv(law, law, 1, z0=2**63),
], ids=["extinction_by_n", "trajectory_tv"])
def test_start_size_past_int64_is_refused(b75, call):
    with pytest.raises(InvalidParameter, match="int64"):
        call(b75)


def test_a_power_past_the_halving_cap_is_refused(b75):
    # The start size's power is asked of PowerCache outside any propagation
    # plan; the cache checks it against the same cap a plan would.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="_POWER_WORK_CAP"):
        trajectory_tv(b75, b75, 1, z0=10**6)
    assert time.perf_counter() - start < 1.0


class TestExtinctionByN:
    def test_two_ancestors_one_step(self, b75):
        assert extinction_by_n(b75, 1, z0=2) == pytest.approx(0.0625, abs=1e-15)

    def test_monotone_and_convergent(self, b75):
        q = extinction_probability(b75).value
        values = [extinction_by_n(b75, n) for n in range(1, 60)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))
        assert values[-1] == pytest.approx(q, abs=1e-9)
        z0 = 3
        assert extinction_by_n(b75, 59, z0=z0) == pytest.approx(q**z0, abs=1e-9)

    def test_matches_propagated_mass_at_zero(self, t1):
        for n in (1, 2, 3):
            g = propagate(t1, n)
            assert abs(extinction_by_n(t1, n) - g.mass_at(0)) <= (
                g.defect + 1e-12
            )


class TestJointLaw:
    def test_first_step_rows(self, b75):
        j = joint_law(b75, 1)
        entries = joint_entries(j)
        assert set(entries) == {(1, 0), (1, 2)}
        assert entries[(1, 0)] == 0.25
        assert entries[(1, 2)] == 0.75

    def test_binary_pair_entry(self, b75):
        assert joint_entries(joint_law(b75, 2))[(2, 4)] == pytest.approx(
            0.421875, abs=1e-15
        )

    def test_matches_tree_enumeration(self, t1):
        for n, z0 in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            ref = oracles.joint_pairs(T1_PMF, n, z0)
            got = joint_entries(joint_law(t1, n, z0=z0))
            assert set(got) == set(ref)
            assert max(abs(got[k] - ref[k]) for k in ref) <= 1e-14

    def test_propagator_reuses_work(self, b75):
        prop = Propagator(b75, z0=1, n_max=4)
        direct = joint_law(b75, 3)
        assert joint_entries(prop.joint(3)) == joint_entries(direct)
        assert prop.support_size(3) == len(propagate(b75, 3).support)

    def test_rows_past_the_cap_are_refused_before_any_is_built(self, b75):
        # Generation 14 holds 1,318 sizes, so the joint law at 15 plans
        # 1,737,124 rows; the step into generation 15 builds no rows and
        # stays within every cap.
        prop = Propagator(b75, n_max=15)
        assert prop.support_size(15) > 0
        assert len(prop.joint(14).prev) < 2**20
        with pytest.raises(BudgetExceeded, match="_JOINT_ROW_CAP") as err:
            prop.joint(15)
        assert err.value.step == 15


class TestConditionOnSurvival:
    def test_certain_survival_changes_nothing(self):
        law = build(FamilySpec.raw([0.0, 0.3, 0.7]))
        j = joint_law(law, 2)
        assert joint_entries(condition_on_survival(j)) == pytest.approx(joint_entries(j))

    def test_normalizer_is_survival_probability(self, b75):
        for n in (2, 3, 4):
            j = joint_law(b75, n)
            cond = condition_on_survival(j)
            expected = 1.0 - extinction_by_n(b75, n - 1)
            assert j.probs[j.prev > 0] / cond.probs == pytest.approx(expected, abs=1e-12)

    def test_binary_second_step_weight(self, b75):
        j = joint_law(b75, 2)
        cond = condition_on_survival(j)
        assert j.probs[j.prev > 0] / cond.probs == pytest.approx(0.75, abs=1e-15)
        assert all(prev > 0 for prev, _ in joint_entries(cond))

    def test_extinct_start_rejected(self):
        law = build(FamilySpec.raw([1.0]))
        with pytest.raises(DegenerateConditioning):
            condition_on_survival(joint_law(law, 2))


class TestWllnProbability:
    def test_wide_threshold_gives_zero(self, b75):
        value, slack = wlln_probability(b75, 3, 2.0)
        assert value == 0.0
        assert slack <= 1e-12

    def test_single_draw_binary(self, b75):
        value, _ = wlln_probability(b75, 1, 0.4)
        assert value == 1.0

    def test_matches_dict_power_oracle(self, b75, t1):
        for law, pmf in ((b75, B75_PMF), (t1, T1_PMF)):
            for k in (1, 2, 3, 5, 8):
                for eta in (0.1, 0.25, 0.5):
                    value, slack = wlln_probability(law, k, eta)
                    ref = oracles.deviation_mass(pmf, k, eta)
                    assert value == pytest.approx(ref, abs=1e-12 + slack)

    def test_eventually_small_in_k(self, b75):
        # Parity of k moves the lattice of S_k/k relative to the mean, so the
        # sequence oscillates; the trend is what decreases.  Block maxima
        # capture that, and the final block is far below the starting one.
        values = [wlln_probability(b75, k, 0.25)[0] for k in range(1, 121)]
        blocks = [max(values[i : i + 20]) for i in range(0, 120, 20)]
        assert all(x > y for x, y in zip(blocks, blocks[1:]))
        assert blocks[-1] <= 0.005

    def test_shared_cache_consistent(self, b75):
        cache = PowerCache(b75)
        direct = wlln_probability(b75, 7, 0.25)
        cached = wlln_probability(b75, 7, 0.25, _cache=cache)
        assert direct == cached


class TestPowerCache:
    def test_matches_convolution_power(self, t1):
        cache = PowerCache(t1)
        for j in (1, 2, 3, 5, 9):
            dense, defect = cache.get(j)
            ref = oracles.dense_power(t1.measure.dense_weights(), j)
            assert dense.shape == ref.shape
            assert np.allclose(dense, ref, atol=1e-13)
            assert defect <= 1e-12

    # sha256 over get(j)[0].tobytes() and float(defect).hex() for j in
    # HALVING_JS, recorded before the stepping route existed.  The cost rule
    # keeps these dense laws on the halving route, so their bits must hold.
    HALVING_JS = (*range(1, 13), 31, 64, 100, 257)
    HALVING_DIGESTS = {
        ("binary", "cold"): "9a42cd52986d64190b919b6e1f55cdebaa745c1d58e34035160f2ea76ee832c9",
        ("binary", "sweep"): "d2b3ac02c3b501d4d6ae0017b022ffffffdef9f0f589e5edf83afa19d1ce00ea",
        ("three_point", "cold"): "78eece49c23ea34fdd7e9263befae17c874efb0cab18ec7d6f31680822a04880",
        ("three_point", "sweep"): "77b1545dafcd163f50cb8b846fb81d302fe21503f5affc6be9ec0b396233cbb6",
        ("poisson", "cold"): "7d1b644de321b49abee8f20e2798be926416df7e3aea026d7ea6fcc1f64f3c85",
        ("poisson", "sweep"): "7469b0574948aaafde20556bb58775030c0b9d51b5472e6742786f395e4e8654",
    }

    @pytest.mark.parametrize("family,mode", sorted(HALVING_DIGESTS))
    def test_dense_laws_keep_halving_bits(self, family, mode):
        spec = {
            "binary": FamilySpec.binary(0.75),
            "three_point": FamilySpec.three_point(0.20, 0.50, 0.30),
            "poisson": FamilySpec.poisson(2.0),
        }[family]
        law = build(spec)
        sweep = StepCounter(law)
        h = hashlib.sha256()
        for j in self.HALVING_JS:
            cache = StepCounter(law) if mode == "cold" else sweep
            w, defect = cache.get(j)
            h.update(w.tobytes())
            h.update(float(defect).hex().encode())
            assert cache.steps == 0
        assert h.hexdigest() == self.HALVING_DIGESTS[family, mode]

    # sha256 over len(w), w.tobytes() and float(defect).hex() for j in
    # TRIM_JS, recorded with ``np.trim_zeros(w, "b")`` as the trim.  The
    # contamination member's top atom underflows by j = 257, so that power
    # ends in 792 trimmed zeros.
    TRIM_JS = (*range(1, 13), 31, 64, 100, 257)
    TRIM_DIGESTS = {
        ("contamination", "cold"): "9bacf34b45071e17224b2c119c3fab01cee365d0acee6eaa1e8f42d8e6578066",
        ("contamination", "sweep"): "589a1894138e8f91f16368c4395d9804df68b978ece0c4fd305ad2a8b1a01730",
        ("binary", "cold"): "1e4cac3b31a745a16952065e5f5baf71ed95ad4b3110fbacac209da36e0c9bf9",
        ("binary", "sweep"): "05b7332a285baec580ee15aaf6c128c3b234a6e453cd985c60f88193f95a8844",
    }

    @pytest.mark.parametrize("family,mode", sorted(TRIM_DIGESTS))
    def test_trimmed_powers_keep_their_bits_and_lengths(self, family, mode):
        if family == "binary":
            spec = FamilySpec.binary(0.75)
        else:
            spec = contamination_grid(FamilySpec.binary(0.75), (20,))[0]
        law = build(spec)
        sweep = StepCounter(law)
        h = hashlib.sha256()
        used = []
        for j in self.TRIM_JS:
            cache = StepCounter(law) if mode == "cold" else sweep
            used.append(cache)
            w, defect = cache.get(j)
            h.update(len(w).to_bytes(8, "little"))
            h.update(w.tobytes())
            h.update(float(defect).hex().encode())
        # Both trimming sites run: the stepping route only for the sparse law.
        assert any(c.steps for c in used) == (family == "contamination")
        assert h.hexdigest() == self.TRIM_DIGESTS[family, mode]

    def test_sparse_law_takes_stepping_route(self):
        # Three atoms over 150 lattice points: stepping to j costs about
        # 3 * 150 * j**2 / 2 multiply-adds, halving about (150 * j / 2)**2.
        law = sparse_law([0, 1, 150], [0.3, 0.3, 0.4])
        cache = StepCounter(law)
        w, _ = cache.get(30)
        assert cache.steps == 1
        np.testing.assert_allclose(
            w, oracles.dense_power(law.measure.dense_weights(), 30), rtol=1e-12, atol=0
        )

    @settings(max_examples=60, deadline=None)
    @given(
        span=st.integers(1, 3),
        data=st.data(),
        defect=st.sampled_from([0.0, 1e-10]),
        js=st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True),
    )
    def test_powers_match_dense_oracle(self, span, data, defect, js):
        sites = data.draw(
            st.lists(st.integers(0, 150 // span), min_size=2, max_size=4, unique=True)
        )
        raw = data.draw(
            st.lists(st.floats(0.04, 1.0), min_size=len(sites), max_size=len(sites))
        )
        assert_powers_match_oracle(sparse_law([span * s for s in sites], raw, defect), js)

    def test_underflowing_tail_is_trimmed(self):
        # The top atom's square underflows to 0, so every power past the
        # first ends in zeros that both routes must trim.
        law = sparse_law([0, 1, 150], [0.5, 0.5, 1e-170])
        assert_powers_match_oracle(law, [2, 3, 30])


def assert_powers_match_oracle(law, js):
    """Cold and ascending-sweep powers against ``oracles.dense_power``."""
    base = law.measure.dense_weights()
    sweep = PowerCache(law)
    for j in sorted(js):
        expected = np.trim_zeros(oracles.dense_power(base, j), "b")
        for cache in (PowerCache(law), sweep):
            w, d = cache.get(j)
            assert w.shape == expected.shape
            assert np.array_equal(w != 0, expected != 0)
            np.testing.assert_allclose(w, expected, rtol=1e-12, atol=0)
            assert abs(d - j * law.measure.defect) <= 1e-15


class StepCounter(PowerCache):
    """A PowerCache that counts how often it takes the stepping route."""

    steps = 0

    def _step(self, anchor, j):
        self.steps += 1
        return super()._step(anchor, j)


def sparse_law(sites, raw, defect=0.0):
    """Offspring law with mass ``raw / sum(raw) * (1 - defect)`` at ``sites``."""
    w = np.zeros(max(sites) + 1)
    w[sites] = np.asarray(raw, dtype=float) / sum(raw) * (1.0 - defect)
    measure = DiscreteMeasure.from_dense(w, defect=defect)
    return OffspringLaw(measure, mean_m=float(np.arange(w.size) @ w))
