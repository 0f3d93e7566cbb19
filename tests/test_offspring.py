"""Offspring families, pgf machinery, extinction, decomposition transforms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gwlab import (
    FamilySpec,
    InvalidParameter,
    SupercriticalRequired,
    build,
    criticality,
    extinction_probability,
    extinction_transform,
    iterate_pgf_at_zero,
    mean,
    pgf,
    pgf_derivative,
    psi1_tail,
    survival_transform,
)
from gwlab.offspring import MAX_DERIVED_TRUNCATION

POLY3 = FamilySpec.polynomial(3, truncation=200_000)


class TestBuild:
    def test_binary(self):
        law = build(FamilySpec.binary(0.75))
        assert law.measure.mass_at(0) == 0.25
        assert law.measure.mass_at(2) == 0.75
        assert law.mean_m == 1.5

    def test_binary_parameter_range(self):
        with pytest.raises(InvalidParameter):
            build(FamilySpec.binary(1.5))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FamilySpec.raw([0.5, math.nan]),
            lambda: FamilySpec.poisson(math.nan),
            lambda: FamilySpec.poisson(math.inf),
            lambda: FamilySpec.binary(math.nan),
            lambda: FamilySpec.three_point(0.5, math.nan, 0.5),
            lambda: FamilySpec.polynomial(math.inf, truncation=100),
            lambda: FamilySpec.from_json_dict({"family": "raw", "weights": [-math.inf, 1.0]}),
        ],
        ids=["raw-nan", "poisson-nan", "poisson-inf", "binary-nan", "three-point-nan",
             "polynomial-inf", "json-raw-minus-inf"],
    )
    def test_non_finite_parameters_are_rejected(self, make):
        with pytest.raises(InvalidParameter, match="finite"):
            make()

    @pytest.mark.parametrize("truncation", [3.7, math.inf, math.nan, True, "4"])
    def test_json_truncation_must_be_integral(self, truncation):
        doc = {"family": "poisson", "lambda": 2.0, "truncation": truncation}
        with pytest.raises(InvalidParameter, match="'truncation'"):
            FamilySpec.from_json_dict(doc)

    def test_json_truncation_takes_integral_float(self):
        doc = {"family": "poisson", "lambda": 2.0, "truncation": 4.0}
        assert FamilySpec.from_json_dict(doc) == FamilySpec.poisson(2.0, truncation=4)

    def test_explicit_truncation_past_the_limit_is_refused(self):
        # It ran out of memory in a bare MemoryError while building the law.
        with pytest.raises(InvalidParameter, match="MAX_DERIVED_TRUNCATION"):
            FamilySpec.poisson(2.0, truncation=10**9)
        with pytest.raises(InvalidParameter, match="MAX_DERIVED_TRUNCATION"):
            FamilySpec.polynomial(3.0, truncation=MAX_DERIVED_TRUNCATION + 1)
        FamilySpec.poisson(2.0, truncation=MAX_DERIVED_TRUNCATION)

    def test_three_point_weights_must_sum_to_one(self):
        with pytest.raises(InvalidParameter):
            build(FamilySpec.three_point(0.5, 0.5, 0.5))

    def test_poisson_rate_recovered_from_zero_mass(self):
        for lam in (0.5, 2.0, 3.5):
            law = build(FamilySpec.poisson(lam))
            assert -math.log(law.measure.mass_at(0)) == pytest.approx(lam, abs=1e-9)
            assert lam - 1e-9 <= law.mean_m <= lam

    def test_polynomial_weight_ratio(self):
        law = build(POLY3)
        ratio = law.measure.mass_at(1) / law.measure.mass_at(0)
        assert ratio == pytest.approx(2.0**-3, abs=1e-15)

    def test_polynomial_exponent_must_exceed_two(self):
        with pytest.raises(InvalidParameter):
            build(FamilySpec.polynomial(2.0, truncation=100))

    def test_truncated_families_record_tail_bounds(self):
        for spec in (FamilySpec.poisson(2.0), POLY3):
            law = build(spec)
            assert law.tail_bound is not None
            assert law.measure.defect <= 1e-10

    def test_mean_matches_measure(self):
        for spec in (
            FamilySpec.binary(0.6),
            FamilySpec.three_point(0.2, 0.5, 0.3),
            FamilySpec.poisson(1.5),
            FamilySpec.raw([0.1, 0.2, 0.3, 0.4]),
        ):
            law = build(spec)
            assert law.mean_m == pytest.approx(mean(law.measure), abs=1e-9)


class TestPgf:
    def test_at_one_total_mass(self, b75):
        assert pgf(b75, 1.0) == pytest.approx(1.0 - b75.measure.defect, abs=1e-15)

    def test_at_zero_is_zero_mass(self, b75):
        assert pgf(b75, 0.0) == 0.25

    def test_binary_closed_form(self):
        p = 0.6
        law = build(FamilySpec.binary(p))
        for s in np.linspace(0.0, 1.0, 11):
            assert pgf(law, float(s)) == pytest.approx(
                (1 - p) + p * s * s, abs=1e-15
            )

    def test_rejects_out_of_range(self, b75):
        for s in (-0.1, 1.1):
            with pytest.raises(InvalidParameter):
                pgf(b75, s)
            with pytest.raises(InvalidParameter):
                pgf_derivative(b75, s)

    def test_derivative_at_one_is_mean(self):
        for spec in (FamilySpec.binary(0.75), FamilySpec.poisson(2.0)):
            law = build(spec)
            assert pgf_derivative(law, 1.0) == pytest.approx(law.mean_m, abs=1e-12)

    def test_binary_derivative_closed_form(self):
        p = 0.75
        law = build(FamilySpec.binary(p))
        for s in np.linspace(0.0, 1.0, 11):
            assert pgf_derivative(law, float(s)) == pytest.approx(
                2 * p * s, abs=1e-15
            )

    def test_nondecreasing_and_convex(self):
        law = build(FamilySpec.poisson(2.0))
        grid = np.linspace(0.0, 1.0, 101)
        values = [pgf(law, float(s)) for s in grid]
        diffs = np.diff(values)
        assert (diffs >= -1e-15).all()
        assert (np.diff(diffs) >= -1e-15).all()
        derivs = [pgf_derivative(law, float(s)) for s in grid]
        assert (np.diff(derivs) >= -1e-15).all()


class TestExtinction:
    def test_binary_root(self, b75):
        ext = extinction_probability(b75)
        assert ext.supercritical
        assert ext.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(pgf(b75, ext.value) - ext.value) <= 1e-13

    def test_no_zero_children_means_certain_survival(self):
        law = build(FamilySpec.raw([0.0, 0.3, 0.7]))
        assert extinction_probability(law).value == 0.0

    def test_subcritical_returns_one_with_flag(self):
        law = build(FamilySpec.binary(0.4))
        ext = extinction_probability(law)
        assert not ext.supercritical
        assert ext.value == 1.0

    def test_binary_closed_form_monotone_in_p(self):
        previous = None
        for p in np.linspace(0.55, 0.95, 9):
            q = extinction_probability(build(FamilySpec.binary(float(p)))).value
            assert q == pytest.approx((1 - p) / p, abs=1e-12)
            if previous is not None:
                assert q < previous
            previous = q

    def test_fixed_point_crossed_exactly_once(self, b75):
        q = extinction_probability(b75).value
        grid = np.linspace(0.0, 0.999, 2000)
        signs = np.sign([pgf(b75, float(s)) - s for s in grid])
        crossings = np.count_nonzero(np.diff(signs))
        assert crossings == 1
        assert grid[np.nonzero(np.diff(signs))[0][0]] <= q

    def test_iterates_converge_from_below(self, b75):
        q = extinction_probability(b75).value
        previous = -1.0
        for n in range(0, 40):
            it = iterate_pgf_at_zero(b75, n)
            assert previous <= it <= q + 1e-13
            previous = it
        assert iterate_pgf_at_zero(b75, 200) == pytest.approx(q, abs=1e-10)


class TestCriticality:
    def test_classification(self):
        assert criticality(build(FamilySpec.binary(0.75))) == "supercritical"
        assert criticality(build(FamilySpec.binary(0.4))) == "subcritical"
        assert criticality(build(FamilySpec.raw([0.0, 1.0]))) == "critical"

    def test_dead_zone_rejected_by_supercritical_operations(self):
        nearly = build(FamilySpec.raw([0.25, 0.5 - 1e-10, 0.25 + 1e-10]))
        assert criticality(nearly) == "critical"
        with pytest.raises(SupercriticalRequired):
            survival_transform(nearly)


class TestSurvivalTransform:
    def test_no_mass_at_zero_and_immortal(self, b75):
        hat = survival_transform(b75)
        assert hat.measure.mass_at(0) == 0.0
        assert extinction_probability(hat).value == 0.0

    def test_mass_at_one_is_derivative_at_q(self):
        for spec in (FamilySpec.binary(0.75), FamilySpec.poisson(2.0)):
            law = build(spec)
            q = extinction_probability(law).value
            hat = survival_transform(law)
            assert hat.measure.mass_at(1) == pytest.approx(
                pgf_derivative(law, q), abs=1e-12
            )

    def test_pgf_identity_on_grid(self):
        for spec in (FamilySpec.binary(0.75), FamilySpec.poisson(2.0)):
            law = build(spec)
            q = extinction_probability(law).value
            hat = survival_transform(law)
            for i in range(1, 10):
                s = i / 10
                direct = pgf(hat, s)
                composed = (pgf(law, q + (1 - q) * s) - q) / (1 - q)
                assert direct == pytest.approx(composed, abs=1e-10)

    def test_immortal_law_is_unchanged(self):
        law = build(FamilySpec.raw([0.0, 0.0, 1.0]))
        hat = survival_transform(law)
        assert hat.measure == law.measure

    def test_subcritical_rejected(self):
        with pytest.raises(SupercriticalRequired):
            survival_transform(build(POLY3))


class TestExtinctionTransform:
    def test_total_mass_one(self, b75):
        star = extinction_transform(b75)
        assert sum(star.measure.weights) == pytest.approx(1.0, abs=1e-12)

    def test_binary_closed_form(self, b75):
        star = extinction_transform(b75)
        assert star.measure.mass_at(0) == pytest.approx(0.75, abs=1e-12)
        assert star.measure.mass_at(2) == pytest.approx(0.25, abs=1e-12)

    def test_mean_is_derivative_at_q(self):
        for spec in (FamilySpec.binary(0.75), FamilySpec.poisson(2.0)):
            law = build(spec)
            q = extinction_probability(law).value
            star = extinction_transform(law)
            assert star.mean_m == pytest.approx(pgf_derivative(law, q), abs=1e-12)
            assert star.mean_m < 1.0

    def test_doomed_law_is_unchanged(self):
        # Extinction is already sure, so conditioning on it changes nothing.
        law = build(POLY3)
        star = extinction_transform(law)
        assert star.mean_m == pytest.approx(law.mean_m, abs=1e-12)
        assert star.mean_m < 1.0
        q = extinction_probability(law).value
        for i in range(1, 10):
            s = i / 10
            assert pgf(star, s) == pytest.approx(pgf(law, q * s) / q, abs=1e-10)

    def test_rejected_when_extinction_impossible(self):
        law = build(FamilySpec.raw([0.0, 0.0, 1.0]))
        with pytest.raises(InvalidParameter):
            extinction_transform(law)


class TestPsi1Tail:
    def test_at_zero_equals_mean(self):
        for spec in (FamilySpec.binary(0.75), FamilySpec.poisson(2.0)):
            law = build(spec)
            assert psi1_tail(law, 0) == pytest.approx(law.mean_m, abs=1e-12)

    def test_beyond_support_is_zero(self, b75):
        assert psi1_tail(b75, 3) == 0.0

    def test_nonincreasing_and_vanishing(self):
        for spec in (
            FamilySpec.binary(0.75),
            FamilySpec.three_point(0.2, 0.5, 0.3),
            FamilySpec.poisson(2.0),
            POLY3,
        ):
            law = build(spec)
            values = [psi1_tail(law, ell) for ell in range(0, 60, 3)]
            assert all(x >= y - 1e-15 for x, y in zip(values, values[1:]))
        assert psi1_tail(build(FamilySpec.poisson(2.0)), 60) <= 1e-12

    def test_polynomial_tail_dominated_by_integral_bound(self):
        # sum_{k>=ell} k c (k+1)^-3 <= c sum_{k>=ell} (k+1)^-2 <= c / ell.
        law = build(POLY3)
        c = law.measure.mass_at(0)
        for ell in (10, 100, 1000):
            assert psi1_tail(law, ell) <= c / ell
            assert psi1_tail(law, ell) > 0.0
