"""Exact ratio-estimator laws, conditioning, and deviation probabilities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_dict, exact_route_cases, joint_entries
from gwlab import (
    DegenerateConditioning,
    DiscreteMeasure,
    FamilySpec,
    InvalidParameter,
    JointLaw,
    SimConfig,
    bounded_lipschitz,
    build,
    consistency_probability,
    contamination_grid,
    estimator_law,
    extinction_by_n,
    joint_law,
    tv_distance,
)
from gwlab.estimator import deviation_mask, ratio_law
from gwlab.montecarlo import SimTable, empirical_consistency_probability

B75_PMF = {0: 0.25, 2: 0.75}
T1_PMF = {0: 0.20, 2: 0.50, 3: 0.30}


class TestEstimatorLaw:
    def test_first_step_reproduces_offspring_law(self, b75):
        e = estimator_law(joint_law(b75, 1))
        assert e.law == b75.measure
        assert e.n == 1 and e.z0 == 1 and not e.conditioned

    def test_binary_second_step_unconditional(self, b75):
        law = estimator_law(joint_law(b75, 2)).law
        assert as_dict(law) == {
            Fraction(0): pytest.approx(0.296875, abs=1e-15),
            Fraction(1): pytest.approx(0.28125, abs=1e-15),
            Fraction(2): pytest.approx(0.421875, abs=1e-15),
        }

    def test_binary_second_step_conditioned(self, b75):
        law = estimator_law(joint_law(b75, 2), conditioned=True).law
        assert as_dict(law) == {
            Fraction(0): pytest.approx(0.0625, abs=1e-15),
            Fraction(1): pytest.approx(0.375, abs=1e-15),
            Fraction(2): pytest.approx(0.5625, abs=1e-15),
        }

    @pytest.mark.parametrize("conditioned", [False, True])
    def test_matches_ratio_enumeration(self, t1, conditioned):
        for n, z0 in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            got = as_dict(estimator_law(joint_law(t1, n, z0=z0), conditioned=conditioned).law)
            ref = oracles.ratio_law(T1_PMF, n, z0, conditioned=conditioned)
            assert oracles.tv(got, ref) <= 1e-13

    def test_equal_ratios_merge_into_one_atom(self, t1):
        # (Z_1, Z_2) = (2, 4) and (3, 6) both produce the value 2.
        j = joint_law(t1, 2)
        law = estimator_law(j).law
        entries = joint_entries(j)
        expected = entries[(2, 4)] + entries[(3, 6)]
        assert law.mass_at(2) == pytest.approx(expected, abs=1e-15)
        assert len(set(law.support)) == len(law.support)

    def test_extinction_and_zero_ratio_share_the_atom_at_zero(self, t1):
        # Mass at 0 collects both never-started rows (j = 0) and died-now
        # rows (k = 0, j > 0).
        j = joint_law(t1, 2)
        law = estimator_law(j).law
        from_rows = sum(
            p for (prev, curr), p in joint_entries(j).items() if curr == 0 or prev == 0
        )
        assert law.mass_at(0) == pytest.approx(from_rows, abs=1e-15)

    def test_decomposition_into_survival_and_extinction_parts(self, b75):
        n = 2
        unconditional = estimator_law(joint_law(b75, n)).law
        conditional = estimator_law(joint_law(b75, n), conditioned=True).law
        survival = 1.0 - extinction_by_n(b75, n - 1)
        for x in set(unconditional.support) | set(conditional.support):
            expected = survival * conditional.mass_at(x)
            if x == 0:
                expected += 1.0 - survival
            assert unconditional.mass_at(x) == pytest.approx(expected, abs=1e-12)

    def test_distinct_ratios_with_one_float_come_back_in_exact_order(self):
        # (2**27 + 1)/2**27 and (2**27 + 2)/(2**27 + 1) round to the same
        # double; the second is the smaller.
        law = ratio_law(
            np.array([2**27, 2**27 + 1]), np.array([2**27 + 1, 2**27 + 2]),
            np.array([0.5, 0.5]), 0.0,
        )
        assert law.support == (Fraction(2**27 + 2, 2**27 + 1), Fraction(2**27 + 1, 2**27))
        assert law.float_support[0] == law.float_support[1]
        assert law.weights == (0.5, 0.5)
        assert tv_distance(law, law) == (0.0, 0.0)
        assert bounded_lipschitz(law, law).value == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 40), st.integers(0, 120))
                | st.integers(2**27, 2**27 + 3).map(lambda j: (j, j + 1))
                | st.tuples(st.integers(2**63, 2**64), st.integers(0, 2**66)),
                st.sampled_from([1, 3, 2**62]),
                st.floats(1e-6, 1.0),
            ),
            min_size=1, max_size=60,
        ),
        eta=st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2**70)]),
        data=st.data(),
    )
    def test_matches_the_reduce_then_merge_route_bit_for_bit(self, rows, eta, data):
        # Rows merge unreduced: each pair comes scaled by 1, 3 or 2**62, so
        # equal ratios arrive in several forms, in int64 or past it.  Distinct
        # ratios (j + 1)/j for j near 2**27 share floats, so the exact
        # reordering is reached too; (0, k) rows take the atom at 0.  An eta
        # of 2**70 leaves no deviating row.
        pairs = [(j * scale, k * scale) for (j, k), scale, _ in rows] + [(2, 3)]
        prev, curr = (as_ints(list(col)) for col in zip(*pairs))
        probs = np.array([p for *_, p in rows] + [0.5])
        probs /= probs.sum()
        law = ratio_law(prev, curr, probs, 0.0)
        want = oracles.ratio_law_by_rows(prev, curr, probs, 0.0)
        for got, ref in zip(law._arrays(), want._arrays()):
            assert (got.dtype, array_bits(got)) == (ref.dtype, array_bits(ref))
        # m +- eta lands on a live row's ratio, so that atom sits on the boundary.
        i = data.draw(st.sampled_from(np.flatnonzero(prev > 0).tolist()))
        m = Fraction(int(curr[i]), int(prev[i])) + data.draw(st.sampled_from([eta, -eta]))
        joint = JointLaw(n=1, z0=1, prev=prev, curr=curr, probs=probs, defect=0.0)
        got = consistency_probability(joint, m, eta)
        assert same_bits(got, oracles.consistency_by_rows(joint, m, eta))

    def test_conditioning_needs_survivors(self):
        law = build(FamilySpec.raw([1.0]))
        with pytest.raises(DegenerateConditioning):
            estimator_law(joint_law(law, 2), conditioned=True)

    def test_json_dict_round_trips_measure(self, b75):
        e = estimator_law(joint_law(b75, 2), conditioned=True)
        doc = e.to_json_dict()
        assert doc["n"] == 2 and doc["conditioned"] is True
        assert DiscreteMeasure.from_json_dict(doc["law"]) == e.law


class TestConsistencyProbability:
    def test_wide_threshold_gives_zero(self, b75):
        value, slack = consistency_probability(joint_law(b75, 2), 1.5, 10.0)
        assert value == 0.0
        assert slack <= 1e-12

    def test_binary_second_step_every_atom_deviates(self, b75):
        # The conditioned atoms sit at 0, 1 and 2; each is at least 0.4 away
        # from the mean 1.5, so the deviation event is certain.
        value, _ = consistency_probability(joint_law(b75, 2), 1.5, 0.4)
        assert value == 1.0

    def test_probability_shrinks_with_generation(self, b75):
        values = []
        for n in (2, 4, 6, 8):
            values.append(consistency_probability(joint_law(b75, n), 1.5, 0.4)[0])
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_nonincreasing_in_eta(self, b75):
        joint = joint_law(b75, 3)
        values = [
            consistency_probability(joint, 1.5, eta)[0]
            for eta in np.linspace(0.05, 2.0, 25)
        ]
        assert all(x >= y - 1e-15 for x, y in zip(values, values[1:]))

    def test_exact_rational_threshold_includes_boundary_atoms(self, b75):
        # With m = 3/2 and eta = 1/2 the atoms at 1 and 2 deviate by exactly
        # eta and must count; rational arithmetic makes that decision exact.
        joint = joint_law(b75, 2)
        exact, _ = consistency_probability(joint, Fraction(3, 2), Fraction(1, 2))
        assert exact == pytest.approx(1.0, abs=1e-15)
        floating, _ = consistency_probability(joint, 1.5, 0.5)
        assert floating == exact

    def test_float_thresholds_are_read_as_the_decimals_they_print_as(self, b75):
        # The atom 11/10 lies exactly 2/5 from 3/2, so it deviates at
        # eta = 0.4; a float comparison of the atoms dropped it.
        joint = joint_law(b75, 6)
        exact = consistency_probability(joint, Fraction(3, 2), Fraction(2, 5))
        assert exact == (0.21145720288033495, 0.0)
        assert consistency_probability(joint, 1.5, 0.4) == exact

    @pytest.mark.parametrize("m, eta", [
        (float("nan"), 0.4), (float("inf"), 0.4), (1.5, float("nan")), (1.5, float("inf")),
    ], ids=["m-nan", "m-inf", "eta-nan", "eta-inf"])
    def test_non_finite_thresholds_are_refused(self, b75, m, eta):
        with pytest.raises(InvalidParameter, match="finite"):
            consistency_probability(joint_law(b75, 2), m, eta)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rational_threshold_matches_the_fraction_loop_bit_for_bit(self, t1, n):
        joint = joint_law(t1, n)
        e = estimator_law(joint, conditioned=True)
        m, eta = Fraction(19, 10), Fraction(3, 10)
        total = 0.0
        for x, w in e.law.items():
            if abs(x - m) >= eta:
                total += w
        assert consistency_probability(joint, m, eta) == (total, e.law.defect)

    def test_matches_direct_mass_computation(self, t1):
        joint = joint_law(t1, 2)
        e = estimator_law(joint, conditioned=True)
        m, eta = t1.mean_m, 0.3
        expected = sum(
            w for x, w in e.law.items() if abs(float(x) - m) >= eta
        )
        value, _ = consistency_probability(joint, m, eta)
        assert value == pytest.approx(expected, abs=1e-15)


def same_bits(got, ref) -> bool:
    return np.array(got).tobytes() == np.array(ref).tobytes()


def array_bits(a: np.ndarray) -> bytes | list:
    """An array's bytes, or its Python ints for an object array."""
    return a.tolist() if a.dtype == object else a.tobytes()


class TestConsistencyBitForBit:
    """The deviating rows' merge against ``oracles.consistency_by_law``."""

    @settings(max_examples=80, deadline=None)
    @given(case=exact_route_cases(), data=st.data())
    def test_matches_the_whole_law_route(self, case, data):
        spec, n, z0 = case
        law = build(spec)
        joint = joint_law(law, n, z0=z0)
        # m +- eta lands on a live row's ratio, so that atom sits on the boundary.
        eta = data.draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)))
        live = np.flatnonzero(joint.prev > 0)
        i = data.draw(st.sampled_from(live.tolist()))
        offset = data.draw(st.sampled_from([eta, -eta]))
        m = Fraction(int(joint.curr[i]), int(joint.prev[i])) + offset
        for thresholds in ((m, eta), (law.mean_m, float(eta))):
            got = consistency_probability(joint, *thresholds)
            assert same_bits(got, oracles.consistency_by_law(joint, *thresholds))

    @pytest.mark.parametrize("n", [1, 2])
    def test_contamination_member_matches_the_whole_law_route(self, n):
        law = build(contamination_grid(FamilySpec.binary(0.75), (50,))[0])
        joint = joint_law(law, n)
        for m, eta in ((Fraction(law.mean_m), Fraction(2, 5)), (Fraction(3, 2), Fraction(1, 2))):
            got = consistency_probability(joint, m, eta)
            assert same_bits(got, oracles.consistency_by_law(joint, m, eta))


def small_fractions(top=400):
    return st.builds(Fraction, st.integers(0, top), st.integers(1, top))


@st.composite
def classifier_case(draw, points, m_values, eta_values):
    """Reduced sorted atoms plus ``m`` and ``eta``; ``m +- eta`` are atoms."""
    m, eta = draw(m_values), draw(eta_values)
    pts = set(draw(st.lists(points, max_size=30)))
    pts |= {m + eta} | ({m - eta} if m >= eta else set())
    pts = sorted(pts)
    nums = [x.numerator for x in pts]
    dens = [x.denominator for x in pts]
    return nums, dens, m, eta


def as_ints(values):
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class TestDeviationMask:
    @settings(max_examples=300, deadline=None)
    @given(case=classifier_case(
        small_fractions(),
        st.builds(Fraction, st.integers(0, 60), st.integers(1, 60)),
        st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
    ))
    def test_matches_fraction_oracle_including_boundary_atoms(self, case):
        nums, dens, m, eta = case
        mask = deviation_mask(as_ints(nums), as_ints(dens), m, eta)
        expected = [oracles.deviates(n, d, m, eta) for n, d in zip(nums, dens)]
        assert mask.tolist() == expected
        atoms = [Fraction(n, d) for n, d in zip(nums, dens)]
        assert mask[atoms.index(m + eta)]

    @settings(max_examples=200, deadline=None)
    @given(case=classifier_case(
        st.one_of(small_fractions(2**20), small_fractions(2**70)),
        # Float means carry denominators of 2**52 and more; the extra 2**-60
        # guarantees that n * m_den leaves int64 for any numerator >= 8.
        st.floats(0.0, 8.0).map(lambda x: Fraction(x) + Fraction(1, 2**60)),
        st.floats(1e-3, 4.0).map(Fraction),
    ))
    def test_products_past_int64_fall_back_to_exact_python_ints(self, case):
        nums, dens, m, eta = case
        assert (max(nums) + 1) * m.denominator >= 2**63
        mask = deviation_mask(as_ints(nums), as_ints(dens), m, eta)
        assert mask.tolist() == [oracles.deviates(n, d, m, eta) for n, d in zip(nums, dens)]

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(InvalidParameter):
            deviation_mask(np.array([1]), np.array([1]), Fraction(1), Fraction(0))

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.dictionaries(
            st.tuples(st.integers(1, 30), st.integers(0, 90)), st.integers(1, 5),
            min_size=1, max_size=40,
        ),
        m=st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
        eta=st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)),
    )
    def test_exact_and_empirical_paths_agree_on_the_same_pairs(self, rows, m, eta):
        prev, curr = (np.array(col, dtype=np.int64) for col in zip(*rows))
        counts = np.array(list(rows.values()), dtype=np.int64)
        size = int(counts.sum())
        table = SimTable(
            cfg=SimConfig(seed=0, replications=size, n_max=1),
            levels={1: (prev, curr, counts)},
            excluded=np.zeros(2, dtype=np.int64),
        )
        empirical, excluded, _ = empirical_consistency_probability(table, 1, m, eta)
        far = sum(c for (j, k), c in rows.items() if oracles.deviates(k, j, m, eta))
        assert empirical == far / size and excluded == 0.0
        joint = JointLaw(n=1, z0=1, prev=prev, curr=curr, probs=counts / size, defect=0.0)
        exact, _ = consistency_probability(joint, m, eta)
        assert exact == pytest.approx(empirical, abs=1e-12)
