"""Robustness sweeps and the machine-checkable inequality reports."""

import json
from fractions import Fraction

import numpy as np
import pytest

from gwlab import lab, montecarlo
from gwlab import (
    CLAIM_IDS,
    ExperimentSpec,
    FamilySpec,
    InvalidParameter,
    SimConfig,
    SupercriticalRequired,
    VerificationReport,
    binary_sweep_spec,
    binned_estimator_law,
    build,
    consistency_probability,
    contamination_grid,
    contamination_sweep_spec,
    empirical_estimator_law,
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

    def test_binary_threshold_in_grid(self, b75):
        rep = verify_wlln(b75, 0.25, 0.05)
        assert rep.passed
        assert 1 <= rep.instance["k0"] <= 200

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


class TestDefaultSuite:
    def test_every_claim_passes(self):
        reports = run_default_suite()
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

    def test_consistency_laws_keep_their_fraction_views_unbuilt(self, monkeypatch):
        laws = []

        def recording(e, m, eta):
            laws.append(e.law)
            return consistency_probability(e, m, eta)

        monkeypatch.setattr(lab, "consistency_probability", recording)
        run_default_suite()
        assert len(laws) == 11
        assert all("support" not in law.__dict__ for law in laws)


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

    def test_start_size_past_int64_is_refused_with_the_simulation_message(self):
        with pytest.raises(InvalidParameter, match="int64"):
            ExperimentSpec(center=FamilySpec.binary(0.75), grid=(FamilySpec.binary(0.75),),
                           n_range=(1,), z0=2**63, cap=2**64)
        with pytest.raises(InvalidParameter, match="int64"):
            binary_sweep_spec(z0=2**63, cap=2**65)

    def test_from_json_dict_leaves_absent_fields_at_their_defaults(self):
        spec = binary_sweep_spec(n_max=2)
        data = {k: spec.to_json_dict()[k] for k in ("center", "grid", "n_range")}
        assert ExperimentSpec.from_json_dict(data) == spec

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

    def test_conditioned_variant(self, b75):
        table = simulate_paths(b75, SimConfig(seed=29, replications=20_000, n_max=2))
        binned, _ = binned_estimator_law(table, 2, conditioned=True)
        assert binned.mass_at(0) < 0.1
