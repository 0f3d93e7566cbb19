"""Robustness sweeps and the machine-checkable inequality reports."""

import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import idle_staircase, time_limit
from gwlab import lab, maxflow, metrics, montecarlo
from gwlab.offspring import MAX_DERIVED_TRUNCATION, psi1_tail
from gwlab import (
    BudgetExceeded,
    CLAIM_IDS,
    DiscreteMeasure,
    ExperimentSpec,
    FamilySpec,
    InvalidParameter,
    JointLaw,
    Propagator,
    SimConfig,
    SolverDidNotConverge,
    SupercriticalRequired,
    VerificationReport,
    binary_sweep_spec,
    binned_estimator_law,
    bounded_lipschitz,
    build,
    consistency_probability,
    contamination_grid,
    contamination_sweep_spec,
    empirical_estimator_law,
    estimator_law,
    prohorov,
    robustness_modulus,
    run_default_suite,
    simulate_paths,
    tv_distance,
    verify_conditional_consistency,
    verify_conditional_occupancy,
    verify_decomposition_identity,
    verify_extinction_bound,
    verify_joint_tv_bound,
    verify_mean_continuity,
    verify_wlln,
)

DELTA2 = FamilySpec.raw([0.0, 0.0, 1.0])


class TestVerificationReport:
    def test_pass_flag_tracks_the_inequality(self):
        good = VerificationReport("lemma-wlln", {}, lhs=1.0, rhs=1.0, slack=0.0)
        assert good.passed
        bad = VerificationReport("lemma-wlln", {}, lhs=1.0 + 1e-9, rhs=1.0, slack=0.0)
        assert not bad.passed

    def test_json_dict_is_serializable(self, b75):
        rep = verify_joint_tv_bound(b75, b75, 2)
        json.dumps(rep.to_json_dict())


class TestJointTvBound:
    def test_identical_laws(self, b75):
        rep = verify_joint_tv_bound(b75, b75, 3)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_single_step_is_tight(self, b75):
        other = build(FamilySpec.binary(0.7))
        rep = verify_joint_tv_bound(b75, other, 1)
        d_tv, _ = tv_distance(b75.measure, other.measure)
        assert rep.lhs == pytest.approx(d_tv, abs=1e-15)
        assert rep.rhs == pytest.approx(d_tv, abs=1e-15)
        assert rep.passed

    def test_trajectory_up_to_four_then_pair(self, b75):
        other = build(FamilySpec.binary(0.73))
        assert verify_joint_tv_bound(b75, other, 4).instance["lhs_kind"] == "trajectory"
        assert verify_joint_tv_bound(b75, other, 5).instance["lhs_kind"] == "pair"

    def test_random_pairs_pass(self):
        from conftest import random_offspring_pair

        rng = np.random.default_rng(51)
        for i in range(15):
            law1, law2 = random_offspring_pair(rng)
            rep = verify_joint_tv_bound(law1, law2, 1 + i % 4, z0=1 + i % 2)
            assert rep.passed, rep


class TestExtinctionBound:
    def test_identical_laws(self, b75):
        rep = verify_extinction_bound(b75, b75, 10)
        assert rep.lhs == 0.0 and rep.passed

    def test_binary_near_pair_long_horizon(self, b75):
        rep = verify_extinction_bound(b75, build(FamilySpec.binary(0.74)), 20)
        assert rep.passed
        assert rep.instance["gamma_bar"] < 1.0
        assert rep.instance["gate_ok"]
        assert rep.instance["pgf_grid_max"] <= rep.instance["d_tv"] + 1e-10

    def test_needs_supercritical_anchor(self, b75):
        with pytest.raises(SupercriticalRequired):
            verify_extinction_bound(build(FamilySpec.binary(0.4)), b75, 5)


class TestConditionalConsistency:
    def test_deterministic_law_never_deviates(self):
        rep = verify_conditional_consistency(build(DELTA2), 0.4, 0.1, range(1, 6))
        assert rep.lhs == 0.0 and rep.passed
        assert all(v == 0.0 for v in rep.instance["values"].values())

    def test_binary_second_step_value_is_certain_deviation(self, b75):
        # All three conditioned atoms deviate from 1.5 by at least 0.4.
        rep = verify_conditional_consistency(b75, 0.4, 0.5, range(2, 7))
        assert rep.instance["values"][2] == 1.0

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_a_typed_error(self, b75, jobs):
        # Horizons 2 to 4 are exact, so no simulation would reject it.
        with pytest.raises(InvalidParameter, match="jobs"):
            verify_conditional_consistency(b75, 0.4, 0.5, range(2, 5), jobs=jobs)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_eta_is_a_typed_error(self, b75, eta):
        with pytest.raises(InvalidParameter, match="finite"):
            verify_conditional_consistency(b75, eta, 0.5, range(2, 5))

    @pytest.mark.parametrize(
        "eps", [math.nan, math.inf, -math.inf, 0.0, -0.5],
        ids=["nan", "inf", "-inf", "zero", "negative"],
    )
    def test_eps_that_is_not_finite_and_positive_is_refused(self, b75, eps):
        with pytest.raises(InvalidParameter, match="finite and positive"):
            verify_conditional_consistency(b75, 0.4, eps, range(2, 6))

    @pytest.mark.parametrize(
        "setting, match",
        [({"replications": 0}, "replications"), ({"seed": -1}, "seed"), ({"cap": 0}, "cap")],
        ids=["replications", "seed", "cap"],
    )
    def test_simulation_settings_are_checked_when_every_horizon_is_exact(
        self, b75, setting, match
    ):
        # Horizons 2 to 4 are exact, so no simulation would reject them.
        with pytest.raises(InvalidParameter, match=match):
            verify_conditional_consistency(b75, 0.4, 0.1, range(2, 5), **setting)

    def test_binary_threshold_found_and_decreasing(self, b75):
        rep = verify_conditional_consistency(b75, 0.4, 0.5, range(2, 7))
        assert rep.passed
        assert rep.instance["first_n_below"] == 5
        assert rep.instance["decreasing_last_exact"]
        assert all(kind == "exact" for kind in rep.instance["kinds"].values())

    def test_monte_carlo_half_classifies_boundary_atoms_exactly(self, b75):
        # At eta = 2/5 the atoms 11/10 and 19/10 lie exactly on the boundary
        # |x - 3/2| = eta and count as deviations; float arithmetic drops some.
        reps = 200_000
        rep = verify_conditional_consistency(
            b75, 0.4, 0.5, range(6, 9), exact_cutoff=1, replications=reps, seed=0
        )
        assert rep.instance["mc_from"] == 1
        table = simulate_paths(b75, SimConfig(seed=0, replications=reps, n_max=8))
        for n in range(6, 9):
            prev, curr, counts = table.pairs(n)
            alive = deviating = 0
            for j, k, c in zip(prev.tolist(), curr.tolist(), counts.tolist()):
                if j > 0:
                    alive += c
                    if abs(Fraction(k, j) - Fraction(3, 2)) >= Fraction(2, 5):
                        deviating += c
            assert rep.instance["kinds"][n] == "mc"
            assert rep.instance["values"][n] == deviating / alive

    def test_levels_lost_to_the_cap_report_zero_with_full_slack(self):
        # Two or three children each: every path passes the cap of 8 by
        # n = 4, so levels 4 and 5 have no tabulated replication at all.
        law = build(FamilySpec.raw([0.0, 0.0, 0.5, 0.5]))
        rep = verify_conditional_consistency(
            law, 0.4, 0.1, range(4, 6), exact_cutoff=1, replications=10, cap=8
        )
        assert rep.instance["kinds"] == {4: "mc", 5: "mc"}
        assert rep.instance["values"] == {4: 0.0, 5: 0.0}
        assert rep.instance["std_errors"] == {4: 0.0, 5: 0.0}
        # No level holds evidence, so none may pass as the best one.
        assert rep.instance["best_n"] is None
        assert rep.instance["first_n_below"] is None
        assert (rep.lhs, rep.slack) == (1.0, 0.0)
        assert not rep.passed
        assert rep.note.startswith("inconclusive:")

    def test_levels_lost_to_the_cap_cannot_be_the_best(self):
        # Level 3 keeps one replication in 200 and levels 4 and 5 none: the
        # best level is 3 even though 4 and 5 report the smaller value 0.
        law = build(FamilySpec.raw([0.0, 0.0, 0.5, 0.5]))
        rep = verify_conditional_consistency(
            law, 0.4, 0.1, range(2, 6), exact_cutoff=1, replications=200, cap=8
        )
        assert rep.instance["values"][4] == rep.instance["values"][5] == 0.0
        assert rep.instance["best_n"] == 3
        assert rep.lhs == rep.instance["values"][3] > 0.0
        assert rep.note == ""

    def test_sweep_and_check_switch_at_the_same_horizon(self, b75, monkeypatch):
        # Binary supports hold 2^(n-1) + 1 atoms, so a cutoff of 8 keeps
        # n <= 3 exact and switches both routes to simulation at n = 4.
        spec = ExperimentSpec(
            center=FamilySpec.binary(0.75),
            grid=(FamilySpec.binary(0.76),),
            n_range=range(2, 7),
            exact_cutoff=8,
            replications=20_000,
        )
        calls = []
        binned = lab.binned_estimator_law

        def counted(table, n, *args, **kwargs):
            calls.append(n)
            return binned(table, n, *args, **kwargs)

        monkeypatch.setattr(lab, "binned_estimator_law", counted)
        # Binning must not go through the exact-ratio tabulation.
        monkeypatch.setattr(montecarlo, "empirical_estimator_law", None)
        (row,) = robustness_modulus(spec, jobs=1)
        # One binned law per simulated horizon, for the centre and the member.
        assert sorted(calls) == [4, 4, 5, 5, 6, 6]
        rep = verify_conditional_consistency(
            b75, 0.4, 0.5, spec.n_range, exact_cutoff=8, replications=20_000
        )
        assert row["mc_from"] == rep.instance["mc_from"] == 4
        kinds = rep.instance["kinds"]
        assert kinds == {2: "exact", 3: "exact", 4: "mc", 5: "mc", 6: "mc"}

    def test_each_joint_law_is_held_only_while_it_is_read(self, b75):
        # Every horizon to n = 14 is exact (765,625 joint rows planned at 14).
        # tracemalloc peaked at 36.7 MiB on a 2-core Xeon.  Holding each joint
        # law through the merge of its deviating rows, merged on sorted copies,
        # the same check peaked at 52.4 MiB.
        tracemalloc.start()
        try:
            rep = verify_conditional_consistency(b75, 0.4, 0.1, range(2, 15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(rep.instance["kinds"].values()) == {"exact"} and rep.passed
        assert peak < 40 * 2**20


class TestConditionalOccupancy:
    def test_unreachable_size_has_zero_occupancy(self):
        rep = verify_conditional_occupancy(build(DELTA2), 3, range(1, 6))
        assert rep.passed
        assert all(v == 0.0 for v in rep.instance["occupancy"].values())

    def test_binary_occupancy_decreasing_and_bounded(self, b75):
        rep = verify_conditional_occupancy(b75, 2, range(1, 13))
        assert rep.passed
        assert rep.instance["occupancy_decreasing"]
        occ, bounds = rep.instance["occupancy"], rep.instance["bounds"]
        assert all(occ[n] <= bounds[n] + 1e-10 for n in occ)

    def test_dyadic_bounds_are_exact(self, b75):
        # p = gamma = 1/2: (1 + 10 + 45) / 2**10 + (1/2) * 2**-10.
        rep = verify_conditional_occupancy(b75, 2, [7, 10])
        assert rep.instance["bounds"] == {7: 0.23046875, 10: 0.05517578125}

    def test_bound_ingredients_match_derivative_at_q(self, b75):
        rep = verify_conditional_occupancy(b75, 2, range(1, 5))
        gamma = rep.instance["gamma"]
        assert rep.instance["survivor_mass_at_one"] == pytest.approx(gamma, abs=1e-12)
        assert rep.instance["doomed_mean"] == pytest.approx(gamma, abs=1e-12)
        assert gamma == pytest.approx(1.0 - rep.instance["p"], abs=1e-12)


class TestWlln:
    def test_deterministic_law(self):
        rep = verify_wlln(build(DELTA2), 0.25, 0.05)
        assert rep.lhs == 0.0 and rep.passed

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 0.0, -0.5],
        ids=["nan", "inf", "-inf", "zero", "negative"],
    )
    @pytest.mark.parametrize("which", ["eta", "eps"])
    def test_threshold_that_is_not_finite_and_positive_is_refused(self, b75, which, bad):
        thresholds = {"eta": 0.25, "eps": 0.05} | {which: bad}
        with pytest.raises(InvalidParameter, match="finite and positive"):
            verify_wlln(b75, **thresholds)

    def test_binary_threshold_in_grid(self, b75):
        rep = verify_wlln(b75, 0.25, 0.05)
        assert rep.passed
        assert 1 <= rep.instance["k0"] <= 200

    @pytest.mark.parametrize("spec, eta", [
        (FamilySpec.binary(0.75), 0.25),
        (FamilySpec.polynomial(3.5, truncation=30), 0.05),
        (FamilySpec.poisson(2.0, truncation=6), 0.25),
        (FamilySpec.polynomial(2.5, truncation=40), 0.25),
    ], ids=["binary", "below-cutoff", "one-past-cutoff", "far-past-cutoff"])
    def test_truncation_level_matches_the_scan(self, spec, eta):
        law = build(spec)
        rep = verify_wlln(law, eta, 0.05, k_max=5)
        ell, tail = oracles.wlln_level_by_scan(law, eta)
        assert (rep.instance["ell"], rep.instance["tail_moment"]) == (ell, tail)

    def test_truncation_level_matches_the_scan_on_random_raw_laws(self):
        # Gaps in the support leave the tail flat across runs of levels.
        rng = np.random.default_rng(45)
        for _ in range(100):
            size = int(rng.integers(1, 60))
            w = rng.random(size) * (rng.random(size) < 0.5)
            w[-1] += 0.1
            law = build(FamilySpec.raw((w / w.sum()).tolist()))
            eta = float(rng.uniform(0.01, 3.0 * law.mean_m + 0.1))
            rep = verify_wlln(law, eta, 0.5, k_max=1)
            assert (rep.instance["ell"], rep.instance.get("tail_moment", math.inf)) == \
                oracles.wlln_level_by_scan(law, eta)

    def test_a_tail_that_never_clears_is_found_promptly(self):
        # One psi1_tail a level over 999,999 levels: still running after 15 s.
        law = build(FamilySpec.polynomial(2.1, truncation=20_000))
        with time_limit(10.0, "the truncation-level search"):
            rep = verify_wlln(law, 0.25, 0.05, k_max=5)
        assert rep.instance["ell"] is None
        assert rep.note == "no truncation level clears the indicator term"
        assert psi1_tail(law, 10**6) >= 0.25 / 3.0

    def test_chebychev_ingredient_formula(self, b75):
        rep = verify_wlln(b75, 0.25, 0.05)
        ell, k_max = rep.instance["ell"], rep.instance["k_max"]
        assert rep.instance["chebychev_at_kmax"] == pytest.approx(
            9 * 0.25**-2 * ell**2 / k_max, abs=1e-12
        )


class TestDecompositionIdentity:
    def test_certain_survival_means_no_reweighting(self):
        law = build(FamilySpec.raw([0.0, 0.3, 0.7]))
        rep = verify_decomposition_identity(law, 3)
        assert rep.lhs <= 1e-15 and rep.passed
        assert rep.instance["survival"] == pytest.approx(1.0, abs=1e-12)

    def test_binary_second_step_weight(self, b75):
        rep = verify_decomposition_identity(b75, 2)
        assert rep.passed
        assert rep.instance["survival"] == pytest.approx(0.75, abs=1e-15)

    def test_two_ancestors(self, b75):
        assert verify_decomposition_identity(b75, 3, z0=2).passed

    @pytest.mark.parametrize(
        "spec, n, z0",
        [(FamilySpec.binary(0.75), 4, 1), (FamilySpec.three_point(0.2, 0.5, 0.3), 3, 2),
         (FamilySpec.poisson(2.0), 3, 1), (FamilySpec.binary(0.65), 5, 1)],
    )
    def test_matches_the_atom_by_atom_fraction_loop_bit_for_bit(self, spec, n, z0):
        law = build(spec)
        joint = Propagator(law, z0=z0, n_max=n).joint(n)
        unconditional = estimator_law(joint).law
        conditional = estimator_law(joint, conditioned=True).law
        alive = float(joint.probs[joint.prev > 0].sum())
        extinct = float(joint.probs.sum()) - alive
        points = set(unconditional.support) | set(conditional.support) | {Fraction(0)}
        worst = 0.0
        for x in points:
            recombined = conditional.mass_at(x) * alive + (extinct if x == 0 else 0.0)
            worst = max(worst, abs(unconditional.mass_at(x) - recombined))
        rep = verify_decomposition_identity(law, n, z0)
        assert (rep.lhs, rep.instance["atoms"]) == (worst, len(points))


class TestMeanContinuity:
    def test_binary_pair_exact_lhs(self, b75):
        rep = verify_mean_continuity(b75, build(FamilySpec.binary(0.74)))
        assert rep.passed
        assert rep.lhs == pytest.approx(0.02, abs=1e-12)

    def test_bound_shrinks_with_the_distance(self, b75):
        gaps = []
        for p in (0.74, 0.745, 0.749):
            rep = verify_mean_continuity(b75, build(FamilySpec.binary(p)))
            assert rep.passed
            gaps.append(rep.rhs)
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("pair", [
        (FamilySpec.binary(0.75), FamilySpec.binary(0.74)),
        (FamilySpec.poisson(2.0), FamilySpec.poisson(2.02)),
        (FamilySpec.polynomial(3.5, truncation=2_000),
         FamilySpec.polynomial(3.6, truncation=2_000)),
        (FamilySpec.poisson(1.0), FamilySpec.polynomial(3.5, truncation=500)),
    ], ids=["suite-binary", "suite-poisson", "polynomial", "poisson-polynomial"])
    def test_minimizer_matches_the_scan(self, pair):
        law1, law2 = (build(spec) for spec in pair)
        rep = verify_mean_continuity(law1, law2)
        assert (rep.rhs, rep.instance["ell"]) == oracles.mean_continuity_by_scan(law1, law2)

    def test_minimizer_matches_the_scan_on_random_raw_laws(self):
        # Some laws differ in their top count, some by a hair, some have gaps.
        rng = np.random.default_rng(44)
        for _ in range(100):
            size = int(rng.integers(1, 40))
            w = rng.random(size) * (rng.random(size) < 0.7)
            w[-1] += 1.0
            v = w + np.where(rng.random(size) < 0.5, rng.random(size) * 1e-6, 0.0)
            if rng.random() < 0.3:
                v = v[: int(rng.integers(1, size + 1))]
                v[-1] += 1.0
            laws = [build(FamilySpec.raw((x / x.sum()).tolist())) for x in (w, v)]
            rep = verify_mean_continuity(*laws)
            assert (rep.rhs, rep.instance["ell"]) == oracles.mean_continuity_by_scan(*laws)

    def test_flat_bounds_keep_the_first_minimizer(self):
        # Mass c/k at each k in 2..K, and c moved from 0 to 1 in the second
        # law: every level's bound is the same real number, so only rounding
        # separates them, and the cumulative sums round differently.
        for top in range(3, 40):
            for c in (1e-3, 3e-4):
                w = np.zeros(top + 1)
                w[2:] = c / np.arange(2, top + 1)
                w[0] = 1.0 - w.sum()
                v = w.copy()
                v[:2] += (-c, c)
                laws = [build(FamilySpec.raw(x.tolist())) for x in (w, v)]
                rep = verify_mean_continuity(*laws)
                assert (rep.rhs, rep.instance["ell"]) == oracles.mean_continuity_by_scan(*laws)

    def test_large_truncations_finish_promptly(self):
        # One O(K) scan per level took about four minutes on this pair.
        laws = [build(FamilySpec.polynomial(p, truncation=200_000)) for p in (3.5, 3.6)]
        with time_limit(10.0, "the mean-continuity check"):
            rep = verify_mean_continuity(*laws)
        assert rep.passed and 1 <= rep.instance["ell"] <= 200_001

    def test_a_tail_bound_past_two_million_levels_is_read_on_arrays(self):
        # The Poisson tail bound, called once a level in Python, took 2.3 s
        # on a 2-core Xeon: 2,000,001 levels past its cutoff of 16.
        laws = [build(FamilySpec.poisson(1.0)),
                build(FamilySpec.polynomial(3.5, truncation=2_000_000))]
        with time_limit(2.0, "the mean-continuity check"):
            rep = verify_mean_continuity(*laws)
        ell = rep.instance["ell"]
        tails = [psi1_tail(law, ell + 1) for law in laws]
        assert rep.rhs == 2.0 * ell * rep.instance["d_tv"] + tails[0] + tails[1]


# The suite's binary(0.75) consistency and occupancy instances, run alone.
STANDALONE = {
    "theorem-conditional-consistency": lambda law: verify_conditional_consistency(
        law, 0.4, 0.1, range(2, 13)
    ),
    "lemma-conditional-occupancy": lambda law: verify_conditional_occupancy(law, 2, range(1, 13)),
}


class TestDefaultSuite:
    def test_every_claim_passes(self):
        start = time.perf_counter()
        reports = run_default_suite()
        elapsed = time.perf_counter() - start
        # Twice the slowest of five runs of the suite alone, each the first call
        # in a fresh interpreter, on a 2-core Xeon (0.081, 0.064, 0.079, 0.065,
        # 0.081 s).
        assert elapsed < 0.163
        assert len(reports) == 13
        assert {r.claim_id for r in reports} == set(CLAIM_IDS)
        failures = [r for r in reports if not r.passed]
        assert failures == []

    def test_claim_filter(self):
        reports = run_default_suite(claims=["lemma-wlln"])
        assert len(reports) == 1
        assert reports[0].claim_id == "lemma-wlln"

    def test_unknown_claim_rejected(self):
        with pytest.raises(InvalidParameter):
            run_default_suite(claims=["lemma-unheard-of"])

    @pytest.mark.parametrize(
        "claims",
        [
            ["lemma-conditional-occupancy"],
            ["theorem-conditional-consistency"],
            ["theorem-conditional-consistency", "lemma-conditional-occupancy"],
            None,
        ],
    )
    def test_shared_propagation_gives_the_standalone_bytes(self, claims):
        reports = run_default_suite(claims=claims)
        shared = [r for r in reports if r.claim_id in STANDALONE]
        wanted = [c for c in STANDALONE if claims is None or c in claims]
        assert [r.claim_id for r in shared] == wanted
        for report in shared:
            alone = STANDALONE[report.claim_id](build(FamilySpec.binary(0.75)))
            assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(
                alone.to_json_dict(), sort_keys=True
            )

    @pytest.mark.parametrize(
        "body, args",
        [
            (verify_conditional_consistency, (0.4, 0.1, range(2, 13))),
            (verify_conditional_occupancy, (2, range(1, 13))),
        ],
    )
    @pytest.mark.parametrize(
        "settings, names",
        [
            # An equal law built anew is still another law object.
            ({"law": build(FamilySpec.binary(0.75))}, "law"),
            ({"z0": 2}, "z0"),
            ({"n_max": 13}, "n_max"),
            ({"budget": 1e-9}, "budget"),
            ({"law": build(FamilySpec.binary(0.75)), "z0": 2, "budget": 1e-9}, "law, z0, budget"),
        ],
    )
    def test_a_propagator_built_otherwise_is_refused(self, b75, body, args, settings, names):
        prop = Propagator(**{"law": b75, "z0": 1, "n_max": 12, **settings})
        with pytest.raises(InvalidParameter, match=f"^the shared Propagator differs in {names}$"):
            body(b75, *args, _prop=prop)
        assert body(b75, *args, _prop=Propagator(b75, n_max=12)).passed

    def test_consistency_reads_joint_laws_and_builds_no_measure(self, monkeypatch):
        # Each exact horizon hands over a factory of its joint law, read once.
        init, built, calls = DiscreteMeasure.__init__, [], []

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def recording(factory, m, eta):
            before, read = len(built), []

            def reading():
                joint = factory()
                read.append(isinstance(joint, JointLaw))
                return joint

            result = consistency_probability(reading, m, eta)
            calls.append((read, len(built) - before))
            return result

        monkeypatch.setattr(DiscreteMeasure, "__init__", counted_init)
        monkeypatch.setattr(lab, "consistency_probability", recording)
        run_default_suite()
        assert len(calls) == 11
        assert all(read == [True] and not new for read, new in calls)


class TestRobustnessModulus:
    def test_center_row_is_exactly_zero(self):
        spec = ExperimentSpec(
            center=FamilySpec.binary(0.75),
            grid=(FamilySpec.binary(0.75), FamilySpec.binary(0.76)),
            n_range=range(1, 4),
        )
        rows = robustness_modulus(spec)
        assert rows[0]["d_tv"] == 0.0
        assert rows[0]["modulus"] == 0.0
        assert rows[0]["modulus_slack"] == 0.0
        assert rows[1]["modulus"] > 0.0

    def test_binary_grid_shape(self):
        spec = binary_sweep_spec(offsets=(-0.01, -0.005, 0.0, 0.005, 0.01), n_max=4)
        rows = robustness_modulus(spec)
        moduli = [r["modulus"] for r in rows]
        center = 2
        assert moduli[center] == 0.0
        assert moduli[0] >= moduli[1] - 1e-9 >= -1e-9
        assert moduli[4] >= moduli[3] - 1e-9 >= -1e-9
        assert all(r["mc_from"] is None for r in rows)

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_one_is_a_typed_error(self, jobs):
        # Horizons 1 and 2 are exact, so no simulation would reject it.
        with pytest.raises(InvalidParameter, match="jobs"):
            robustness_modulus(binary_sweep_spec(offsets=(0.0,), n_max=2), jobs=jobs)

    def test_subcritical_member_flagged_not_fatal(self):
        spec = ExperimentSpec(
            center=FamilySpec.binary(0.75),
            grid=(FamilySpec.binary(0.45),),
            n_range=range(1, 3),
        )
        rows = robustness_modulus(spec)
        assert rows[0]["flagged"] == "subcritical"
        assert rows[0]["modulus"] > 0.0

    def test_subcritical_center_rejected(self):
        spec = ExperimentSpec(
            center=FamilySpec.binary(0.45),
            grid=(FamilySpec.binary(0.46),),
            n_range=range(1, 3),
        )
        with pytest.raises(SupercriticalRequired):
            robustness_modulus(spec)

    def test_bounded_lipschitz_option(self):
        spec = ExperimentSpec(
            center=FamilySpec.binary(0.75),
            grid=(FamilySpec.binary(0.76),),
            n_range=range(1, 3),
            metric="bounded_lipschitz",
        )
        rows = robustness_modulus(spec)
        assert 0.0 < rows[0]["modulus"] <= 1.0

    def test_bounded_lipschitz_runs_the_default_eight_horizons(self):
        # The 161-atom laws at n = 6 and the 2,325-atom laws at n = 8 once
        # exhausted the dense simplex; the sweep must stay exact throughout.
        rows = robustness_modulus(binary_sweep_spec(metric="bounded_lipschitz"), jobs=1)
        assert len(rows) == 5
        assert all(r["mc_from"] is None for r in rows)
        assert rows[2]["modulus"] == 0.0
        assert all(r["modulus"] <= 0.1 for r in rows)


    def test_member_seeds_do_not_move(self):
        assert [lab._member_seed(0, i) for i in range(6)] == [
            2968811710, 3964924996, 3141116543, 2613022947, 1874364848, 161328693,
        ]

    def test_seeds_are_derived_only_for_curves_that_simulate(self, monkeypatch):
        # exact_cutoff = 1 sends every horizon to Monte Carlo: the centre
        # simulates with seed index 0 and binary(0.74) with index 1, and the
        # binary(0.75) member reuses the centre's curve.  Rows recorded when
        # every seed was derived up front.
        spec = ExperimentSpec(
            center=FamilySpec.binary(0.75),
            grid=(FamilySpec.binary(0.74), FamilySpec.binary(0.75)),
            n_range=(1, 2, 3),
            exact_cutoff=1,
            replications=2000,
        )
        derived, member_seed = [], lab._member_seed
        monkeypatch.setattr(
            lab, "_member_seed", lambda *args: derived.append(args) or member_seed(*args)
        )
        assert robustness_modulus(spec) == [
            {"index": 0, "family": "binary(p=0.74)", "d_tv": 0.010000000000000009,
             "d_tv_slack": 0.0, "modulus": 0.02200000000000002,
             "modulus_slack": 0.015625000000001332, "argmax_n": 2, "mc_from": 1, "flagged": ""},
            {"index": 1, "family": "binary(p=0.75)", "d_tv": 0.0, "d_tv_slack": 0.0,
             "modulus": 0.0, "modulus_slack": 0.015625, "argmax_n": 1, "mc_from": 1,
             "flagged": ""},
        ]
        assert derived == [(0, 0), (0, 1)]
        derived.clear()
        robustness_modulus(binary_sweep_spec(n_max=4))
        assert derived == []

    def test_engine_cap_ends_the_exact_route_of_the_k50_member(self):
        # Generation 2 reaches about 19,000, so step 3 plans a dense array
        # of about 500 times that, past the engine's caps: the sweep's exact
        # route ends at the step the engine refuses.
        spec = contamination_sweep_spec(k_values=(50,), n_max=3, replications=1_000)
        (row,) = robustness_modulus(spec)
        prop = Propagator(build(spec.grid[0]), n_max=3, budget=spec.budget)
        with pytest.raises(BudgetExceeded, match="_DENSE_WORK_CAP") as err:
            prop.joint(3)
        assert err.value.step == row["mc_from"] == 3

    def test_joint_row_cap_ends_the_exact_route_of_binary_at_n_15(self, b75):
        # Generation 15 holds far fewer sizes than the exact cutoff, but its
        # joint law plans 1,737,124 rows, past the engine's row cap: the
        # sweep and the check both simulate from n = 15 on instead of failing.
        spec = binary_sweep_spec(offsets=(0.0,), n_max=15, replications=4_096)
        (row,) = robustness_modulus(spec)
        rep = verify_conditional_consistency(b75, 0.4, 0.5, range(14, 16), replications=4_096)
        prop = Propagator(b75, n_max=15, budget=spec.budget)
        assert prop.support_size(15) <= spec.exact_cutoff
        with pytest.raises(BudgetExceeded, match="_JOINT_ROW_CAP") as err:
            prop.joint(15)
        assert err.value.step == row["mc_from"] == rep.instance["mc_from"] == 15
        assert rep.instance["kinds"] == {14: "exact", 15: "mc"}


def reference_moduli(spec):
    """``(modulus, modulus_slack, argmax_n)`` per member, from the spec's
    metric at every horizon walked forward under the strict ``>`` rule."""
    metric = prohorov if spec.metric == "prohorov" else bounded_lipschitz
    center = build(spec.center, spec.budget)
    curve, _ = lab._estimator_curve(center, spec, lab._member_seed(spec.seed, 0))
    out = []
    for idx, member in enumerate(spec.grid):
        law = build(member, spec.budget)
        same = law.measure == center.measure
        other = curve if same else lab._estimator_curve(
            law, spec, lab._member_seed(spec.seed, idx + 1))[0]
        best = (-1.0, 0.0, None)
        for n in sorted(set(spec.n_range)):
            (a, slack_a), (b, slack_b) = curve[n], other[n]
            if same:
                value, slack = 0.0, slack_a + slack_b
            else:
                result = metric(a, b)
                value, slack = result.value, result.defect_slack + slack_a + slack_b
            if value > best[0]:
                best = (value, slack, n)
        out.append(best)
    return out


ORDER_SPECS = {
    "binary": binary_sweep_spec(),
    "contamination": contamination_sweep_spec(k_values=(20, 50), n_max=4, replications=2_000),
    "binary-bl": binary_sweep_spec(n_max=5, metric="bounded_lipschitz"),
}


class TestModulusSkip:
    """Horizons go cheapest first, and those whose distance provably cannot
    win are skipped, without changing a row."""

    @pytest.mark.parametrize(
        "spec", [ORDER_SPECS["binary"], ORDER_SPECS["contamination"]],
        ids=["binary", "contamination"],
    )
    def test_rows_match_prohorov_at_every_horizon(self, spec):
        rows = robustness_modulus(spec)
        got = [(r["modulus"], r["modulus_slack"], r["argmax_n"]) for r in rows]
        assert got == reference_moduli(spec)

    def test_ties_keep_the_first_horizon(self):
        # p = 0.74 reaches its largest distance at n = 6, 7 and 8 alike.
        spec = binary_sweep_spec()
        assert spec.grid[0] == FamilySpec.binary(0.74)
        center, member = (lab._estimator_curve(build(s), spec, 0)[0]
                          for s in (spec.center, spec.grid[0]))
        values = [prohorov(center[n][0], member[n][0]).value for n in (6, 7, 8)]
        assert values == [1 / 33] * 3
        row = robustness_modulus(spec)[0]
        assert (row["modulus"], row["argmax_n"]) == (1 / 33, 6)

    def test_horizons_nine_to_twelve_leave_the_binary_rows_unchanged(self):
        # Rows 1 and 3 peak at the last default horizon, n = 8; every member's
        # curve falls from n = 9 on, so the rows are those of n_max = 8.
        assert robustness_modulus(binary_sweep_spec(n_max=12)) == robustness_modulus(
            binary_sweep_spec()
        )

    def test_default_binary_sweep_skips_three_calls(self, monkeypatch):
        calls = []
        original = lab.prohorov

        def counted(a, b):
            calls.append(len(a) * len(b))
            return original(a, b)

        monkeypatch.setattr(lab, "prohorov", counted)
        robustness_modulus(binary_sweep_spec())
        assert (len(calls), sum(calls)) == (29, 12_187_465)

    @pytest.mark.parametrize(
        "spec, flows",
        [(binary_sweep_spec(), 4), (contamination_sweep_spec(k_values=(50,), replications=4_096), 1)],
        ids=["binary", "contamination"],
    )
    def test_each_row_solves_one_band_flow(self, monkeypatch, spec, flows):
        # Only the winning horizon's certificate is read; the centre row of
        # the binary sweep reuses its curve and has none.
        solved, original = [], metrics.couple
        monkeypatch.setattr(metrics, "couple", lambda *args: solved.append(1) or original(*args))
        rows = robustness_modulus(spec)
        assert len(solved) == flows == sum(row["modulus"] > 0.0 for row in rows)

    def test_the_winning_certificate_is_checked(self, monkeypatch):
        monkeypatch.setattr(maxflow, "staircase", idle_staircase)
        with pytest.raises(SolverDidNotConverge, match="augmenting path"):
            robustness_modulus(binary_sweep_spec())

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("name", sorted(ORDER_SPECS))
    def test_rows_do_not_depend_on_the_horizon_order(self, monkeypatch, name, order):
        spec = ORDER_SPECS[name]
        cost_order = lab._horizon_order
        rng = np.random.default_rng(7)

        def permuted(center_curve, curve, n_range):
            ns = cost_order(center_curve, curve, n_range)
            return ns[::-1] if order == "reversed" else list(rng.permutation(ns))

        monkeypatch.setattr(lab, "_horizon_order", permuted)
        rows = robustness_modulus(spec)
        got = [(r["modulus"], r["modulus_slack"], r["argmax_n"]) for r in rows]
        assert got == reference_moduli(spec)

    def test_binary_cost_order_is_the_horizon_order(self):
        spec = binary_sweep_spec()
        center, member = (lab._estimator_curve(build(s), spec, 0)[0]
                          for s in (spec.center, spec.grid[0]))
        assert lab._horizon_order(center, member, spec.n_range) == list(range(1, 9))

    def test_contamination_never_certifies_its_largest_pair(self, monkeypatch):
        # For k = 50 the n = 2 laws have 3 and 64,111 atoms; they go last,
        # and the greedy bound proves them below the maximum at n = 8.
        spec = contamination_sweep_spec(k_values=(50,), replications=4_096)
        sizes, bounded = [], []
        original, original_at_most = lab.prohorov, lab.prohorov_at_most

        def counted(a, b):
            sizes.append((len(a), len(b)))
            return original(a, b)

        def at_most(a, b, bound):
            bounded.append((len(a), len(b)))
            return original_at_most(a, b, bound)

        monkeypatch.setattr(lab, "prohorov", counted)
        monkeypatch.setattr(lab, "prohorov_at_most", at_most)
        (row,) = robustness_modulus(spec)
        assert (3, 64_111) not in sizes
        assert bounded[-1] == (3, 64_111)
        assert row["argmax_n"] == 8 and row["modulus"] > 0.1


class TestContaminationGrid:
    def test_distance_is_the_mixing_weight(self, b75):
        grid = contamination_grid(FamilySpec.binary(0.75), (20, 25, 50))
        for spec, k in zip(grid, (20, 25, 50)):
            member = build(spec)
            d_tv, _ = tv_distance(b75.measure, member.measure)
            assert d_tv == pytest.approx(1.0 / k, abs=1e-12)
            assert member.measure.mass_at(10 * k) == pytest.approx(1.0 / k, abs=1e-15)

    def test_requires_sensible_index(self):
        with pytest.raises(InvalidParameter):
            contamination_grid(FamilySpec.binary(0.75), (1,))

    @pytest.mark.parametrize("k", [10**12, MAX_DERIVED_TRUNCATION // 10 + 1])
    def test_index_whose_far_atom_is_past_the_cap_is_refused(self, k):
        # 10**12 ended in numpy's bare MemoryError from ``np.zeros(10 * k + 1)``.
        with pytest.raises(InvalidParameter, match="MAX_DERIVED_TRUNCATION"):
            contamination_grid(FamilySpec.binary(0.75), (k,))

    @pytest.mark.parametrize("k", [2.5, float("nan"), "abc"])
    def test_index_that_is_not_an_integer_is_refused(self, k):
        # ``int(k)`` built the k = 2 member from 2.5 and ended in a bare
        # ``ValueError`` on NaN and "abc".
        with pytest.raises(InvalidParameter, match="'k'"):
            contamination_grid(FamilySpec.binary(0.75), (k,))


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = contamination_sweep_spec(k_values=(20, 30), n_max=6)
        back = ExperimentSpec.from_json_dict(spec.to_json_dict())
        assert back == spec

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            ExperimentSpec(
                center=FamilySpec.binary(0.75),
                grid=(),
                n_range=range(1, 3),
            )

    @pytest.mark.parametrize(
        "field, value, words",
        [
            ("seed", -1, "seed"),
            ("budget", -1.0, "budget"),
            ("budget", float("nan"), "budget"),
            ("budget", float("inf"), "budget"),
            ("cap", 1, "cap"),
            ("z0", 1.9, "z0"),
            ("z0", float("inf"), "z0"),
            ("seed", False, "seed"),
            ("cap", "12", "cap"),
            ("exact_cutoff", float("nan"), "exact_cutoff"),
            ("bin_denominator", 64.5, "bin_denominator"),
            ("n_range", [1, float("-inf")], "n_range"),
        ],
    )
    def test_from_json_dict_rejects_out_of_range_fields(self, field, value, words):
        data = binary_sweep_spec(n_max=2, z0=2).to_json_dict()
        data[field] = value
        with pytest.raises(InvalidParameter, match=words):
            ExperimentSpec.from_json_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("grid", ["abc"], "grid[0]: expected a JSON object with field 'family', got str"),
            ("grid", [{"p": 0.5}], "grid[0]: missing field 'family'"),
            ("center", "abc", "center: expected a JSON object with field 'family', got str"),
        ],
        ids=["grid-member-string", "grid-member-without-family", "center-string"],
    )
    def test_from_json_dict_names_the_place_of_a_bad_family(self, field, value, message):
        data = binary_sweep_spec(n_max=2).to_json_dict()
        data[field] = value
        with pytest.raises(InvalidParameter) as info:
            ExperimentSpec.from_json_dict(data)
        assert str(info.value) == message

    def test_start_size_past_int64_is_refused_with_the_simulation_message(self):
        with pytest.raises(InvalidParameter, match="int64"):
            ExperimentSpec(center=FamilySpec.binary(0.75), grid=(FamilySpec.binary(0.75),),
                           n_range=(1,), z0=2**63, cap=2**64)
        with pytest.raises(InvalidParameter, match="int64"):
            binary_sweep_spec(z0=2**63, cap=2**65)

    @pytest.mark.parametrize("n_range", [[10**30], [1, 2**40], [montecarlo.HORIZON_LIMIT + 1]])
    def test_horizon_past_the_limit_is_refused(self, n_range):
        data = binary_sweep_spec(n_max=2).to_json_dict()
        data["n_range"] = n_range
        with pytest.raises(InvalidParameter, match="HORIZON_LIMIT = 1000"):
            ExperimentSpec.from_json_dict(data)
        SimConfig(0, 1, montecarlo.HORIZON_LIMIT)  # the limit itself is a horizon

    def test_replication_count_past_the_limit_is_refused(self):
        data = binary_sweep_spec(n_max=2).to_json_dict()
        data["replications"] = montecarlo.REPLICATION_LIMIT + 1
        with pytest.raises(InvalidParameter, match="REPLICATION_LIMIT = 10000000000"):
            ExperimentSpec.from_json_dict(data)
        SimConfig(0, montecarlo.REPLICATION_LIMIT, 1)  # the limit itself is accepted

    def test_from_json_dict_leaves_absent_fields_at_their_defaults(self):
        spec = binary_sweep_spec(n_max=2)
        data = {k: spec.to_json_dict()[k] for k in ("center", "grid", "n_range")}
        assert ExperimentSpec.from_json_dict(data) == spec

    def test_integral_float_seed_from_python_runs_as_its_integer(self):
        rows = robustness_modulus(binary_sweep_spec(n_max=2, offsets=(0.0,), seed=2.0))
        assert rows == robustness_modulus(binary_sweep_spec(n_max=2, offsets=(0.0,), seed=2))

    @pytest.mark.parametrize(
        "field, value",
        [("n_range", (1.5, 2.7)), ("exact_cutoff", float("nan")), ("bin_denominator", 1.5),
         ("budget", "abc")],
    )
    def test_python_fields_take_their_json_values_only(self, field, value):
        # Each was accepted from Python: the horizons rounded down, every
        # horizon sent to Monte Carlo, or a bare TypeError from ``Fraction``
        # or from ``math.isfinite``.
        with pytest.raises(InvalidParameter, match=repr(field)):
            ExperimentSpec(**{"center": FamilySpec.binary(0.75),
                              "grid": (FamilySpec.binary(0.75),), "n_range": (1, 2),
                              field: value})

    def test_from_json_dict_takes_integral_floats(self):
        data = binary_sweep_spec(n_max=2, z0=2).to_json_dict()
        data.update(z0=2.0, n_range=[1.0, 2.0], replications=1e4)
        spec = ExperimentSpec.from_json_dict(data)
        assert (spec.z0, spec.n_range, spec.replications) == (2, (1, 2), 10_000)
        assert all(type(v) is int for v in (spec.z0, *spec.n_range, spec.replications))


class TestBinnedEstimatorLaw:
    def test_matches_exact_ratios_already_on_the_grid(self, b75):
        # Binary ratios are multiples of 1/2 at n = 2, so 1/64 binning moves
        # nothing and the two empirical laws agree atom for atom.
        table = simulate_paths(b75, SimConfig(seed=29, replications=20_000, n_max=2))
        binned, slack = binned_estimator_law(table, 2, resolution=Fraction(1, 64))
        plain = empirical_estimator_law(table, 2)
        assert slack == pytest.approx(1.0 / 128.0, abs=1e-15)
        assert prohorov(binned, plain).value == 0.0

    def test_resolution_past_exact_float_indices_is_refused(self, b75):
        table = simulate_paths(b75, SimConfig(seed=29, replications=1_000, n_max=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for den in (2**53, 10**20):
                with pytest.raises(InvalidParameter, match="BIN_INDEX_LIMIT"):
                    binned_estimator_law(table, 2, resolution=Fraction(1, den))
            # Ratios reach 2, so 2**52 is the finest power of two that fits.
            binned_estimator_law(table, 2, resolution=Fraction(1, 2**52))

    def test_conditioned_variant(self, b75):
        table = simulate_paths(b75, SimConfig(seed=29, replications=20_000, n_max=2))
        binned, _ = binned_estimator_law(table, 2, conditioned=True)
        assert binned.mass_at(0) < 0.1
