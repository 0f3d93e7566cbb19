"""Prohorov and bounded-Lipschitz metrics, couplings, joint and path distances."""

import json
import math
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_arrays, idle_staircase, random_measure, random_offspring_pair
from gwlab import (
    CouplingInfeasible,
    DiscreteMeasure,
    FamilySpec,
    InvalidParameter,
    MismatchedLaws,
    SolverDidNotConverge,
    binary_sweep_spec,
    bounded_lipschitz,
    build,
    contamination_sweep_spec,
    estimator_law,
    joint_law,
    joint_tv,
    lab,
    maxflow,
    metrics,
    prohorov,
    robustness_modulus,
    strassen_coupling,
    trajectory_tv,
    tv_distance,
)


DATA = Path(__file__).parent / "data"


def dirac(x) -> DiscreteMeasure:
    return DiscreteMeasure.from_items([(Fraction(x), 1.0)])


@st.composite
def lattice_pairs(draw, denominators=(4, 10)) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Two measures of up to 8 atoms on one lattice, some with a defect."""
    # Quarter lattices tie many distances; tenths round them.
    denominator = draw(st.sampled_from(denominators))

    def side():
        points = draw(st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        total = draw(st.sampled_from([1.0, 0.9, 0.5]))
        weights = rng.dirichlet(np.ones(len(points))) * total
        return DiscreteMeasure.from_items(
            zip((Fraction(p, denominator) for p in points), weights),
            defect=max(0.0, 1.0 - float(weights.sum())),
        )

    return side(), side()


def lattice_pair(data, denominators=(4, 10)) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    return data.draw(lattice_pairs(denominators))


def one_ulp_pair() -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """A tenths-lattice draw on which the breakpoint bisect and scan once
    differed by one ulp, when pair distances were float differences and the
    flow had a floor."""

    def side(points, total):
        weights = np.random.default_rng(1).dirichlet(np.ones(len(points))) * total
        return DiscreteMeasure.from_items(
            zip((Fraction(p, 10) for p in points), weights),
            defect=max(0.0, 1.0 - float(weights.sum())),
        )

    return side([2, 3, 7, 0], 0.5), side([0, 3, 4, 5, 1, 6, 2, 7], 1.0)


# Origins and units that move a lattice to where float gaps round: near 2^52,
# where the spacing is 1, and into the subnormal range.
SCALES = [(0, 1), (2**52, 1), (0, Fraction(1, 2**1070))]


def rescaled(m: DiscreteMeasure, origin, unit) -> DiscreteMeasure:
    """``m`` with each atom ``x`` moved to ``origin + unit * x``."""
    return DiscreteMeasure.from_items(
        [(origin + unit * x, w) for x, w in m.items()], defect=m.defect
    )


def tied_floats_pair() -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Two measures on 2^52 and 2^52 + 1/4, which round to one float: only the
    integers tell which right atoms lie below each left one."""
    return tuple(
        rescaled(DiscreteMeasure.from_items([(0, w), (Fraction(1, 4), 1.0 - w)]), 2**52, 1)
        for w in (0.4, 0.6)
    )


def distances(a: DiscreteMeasure, b: DiscreteMeasure) -> list[float]:
    """Every pair distance, the float of its exact ``Fraction``, sorted once each."""
    return sorted({float(abs(x - y)) for x in a.support for y in b.support})


def float_slack(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """The float error of ``T - M`` that ``prohorov`` adds to its ``defect_slack``."""
    return math.ldexp((len(a) + len(b)) * max(a.total_mass, b.total_mass), -52)


def near_pair(data) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """One lattice support of up to 8 atoms under two weight vectors, the
    second within 5% of the first, some with a defect.

    This is the binary sweep's shape: ``T - M(0)`` is small, so the search's
    first probe, at the largest pair distance at or below it, decides most of
    the bracket.
    """
    denominator = data.draw(st.sampled_from([4, 10]))
    points = data.draw(st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True))
    support = [Fraction(p, denominator) for p in points]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    first = rng.dirichlet(np.ones(len(points)))
    second = first * rng.uniform(0.95, 1.05, len(points))

    def side(weights):
        weights = weights / weights.sum() * data.draw(st.sampled_from([1.0, 0.97]))
        return DiscreteMeasure.from_items(
            zip(support, weights), defect=max(0.0, 1.0 - float(weights.sum()))
        )

    return side(first), side(second)


def same_entries(c1, c2) -> bool:
    """The two couplings hold the same pairs with bit-identical masses."""
    return (
        np.array_equal(c1.rows, c2.rows)
        and np.array_equal(c1.cols, c2.cols)
        and np.array_equal(c1.mass, c2.mass)
    )


# Kept as a past solver failure: this pair drove the former dense simplex
# into a degenerate pivot where its ratio-test tie tolerance produced an
# empty candidate set.
DEGENERATE_LEFT = DiscreteMeasure.from_items(
    zip(
        [Fraction(5, 4), Fraction(5, 2), Fraction(7, 2), Fraction(4),
         Fraction(9, 2), Fraction(19, 4), Fraction(23, 4)],
        [0.06703316127804348, 0.08139608506865023, 0.2648038423386677,
         0.10904322585326968, 0.3263938374599004, 0.056919630331061975,
         0.09441021767040647],
    )
)
DEGENERATE_RIGHT = DiscreteMeasure.from_items(
    zip(
        [Fraction(1, 4), Fraction(2), Fraction(5, 2), Fraction(15, 4),
         Fraction(4)],
        [0.022458665781785393, 0.18691246420939178, 0.6337770873855041,
         0.001264803711983619, 0.1555869789113352],
    )
)

# Kept as a past solver failure: on this pair, thousandths with weights down
# to 3e-15 and a quarter of the left mass truncated, HiGHS ended with status
# 15 (model status unknown), which the former LP raised as
# ``SolverDidNotConverge``.
STALLED_LEFT = DiscreteMeasure.from_items(
    zip(
        [Fraction(k, 1000) for k in range(15)],
        [0.012932013818993018, 0.0019268847464818638, 0.06830786262276566,
         0.014196938171511457, 0.0040843193141166904, 0.2758178836153708,
         0.02812779380119002, 0.0238526288293938, 0.11938130627637913,
         0.033204328854754495, 0.016661371029208154, 0.038755946043416784,
         0.07928577941591393, 0.013200342045595686, 0.016694698099242542],
    ),
    defect=0.253569903315666,
)
STALLED_RIGHT = DiscreteMeasure.from_items(
    zip(
        [Fraction(k, 1000) for k in (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14)],
        [0.13555473857335223, 0.0009290902992651302, 0.2782785945201757,
         4.2332829601850675e-07, 1.967081541503527e-06, 0.007897850190377347,
         0.5334725760994631, 9.647444088857368e-08, 3.0671177688748923e-15,
         1.512764655766499e-11, 5.094906994793749e-06, 0.03955034402512477],
    ),
    defect=0.004309224485837704,
)


class TestProhorov:
    def test_identical_is_zero_with_valid_certificate(self):
        rng = np.random.default_rng(31)
        m = random_measure(rng)
        res = prohorov(m, m)
        assert res.value == 0.0
        oracles.validate_coupling(res.certificate)

    def test_dirac_pairs_closed_form(self):
        grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                Fraction(3, 2), Fraction(2), Fraction(7, 2)]
        for a in grid:
            for b in grid:
                got = prohorov(dirac(a), dirac(b)).value
                assert got == min(1.0, abs(float(a - b)))

    def test_equals_tv_on_integer_supports(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            a = random_measure(rng, integer=True)
            b = random_measure(rng, integer=True)
            assert prohorov(a, b).value == pytest.approx(
                tv_distance(a, b)[0], abs=1e-9
            )

    def test_matches_subset_enumeration_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            a, b = random_measure(rng), random_measure(rng)
            got = prohorov(a, b).value
            ref = oracles.prohorov(*as_arrays(a), *as_arrays(b))
            assert got == pytest.approx(ref, abs=1e-9)

    def test_metric_properties(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            a, b, c = (random_measure(rng) for _ in range(3))
            ab = prohorov(a, b).value
            assert ab <= 1.0 + 1e-12
            assert ab == pytest.approx(prohorov(b, a).value, abs=1e-9)
            assert prohorov(a, c).value <= ab + prohorov(b, c).value + 1e-9

    def test_certificates_witness_the_value(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            a, b = random_measure(rng), random_measure(rng)
            res = prohorov(a, b)
            cert = res.certificate
            oracles.validate_coupling(cert)
            left_err, right_err = oracles.marginal_errors(cert)
            assert left_err <= 1e-10 and right_err <= 1e-10
            assert oracles.band_mass(cert) >= 1.0 - res.value - 1e-10

    @settings(max_examples=300, deadline=None)
    @given(pair=lattice_pairs())
    @example(pair=one_ulp_pair())
    @example(pair=one_ulp_pair()[::-1])  # a near tie: only the greedy's T - M gives the reference
    def test_matches_the_full_breakpoint_search(self, pair):
        a, b = pair
        res = prohorov(a, b)
        ref = oracles.prohorov_by_breakpoints(a, b)
        assert res.value == ref.value == oracles.prohorov_exact(a, b)
        assert same_entries(res.certificate, ref.certificate)
        assert res.value == oracles.prohorov_by_breakpoints(a, b, scan=True).value
        enumerated = oracles.prohorov(*as_arrays(a), *as_arrays(b))
        assert res.value == pytest.approx(enumerated, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_near_pairs_match_the_full_breakpoint_search(self, data):
        a, b = near_pair(data)
        res = prohorov(a, b)
        for scan in (False, True):
            ref = oracles.prohorov_by_breakpoints(a, b, scan=scan)
            assert res.value == ref.value
            assert same_entries(res.certificate, ref.certificate)
        # M only grows, so the value is at most the total-variation bound.
        pairs = maxflow.Pairs(a, b)
        matched = maxflow.couple(a, b, pairs, pairs.windows(0.0), 0.0, 0.0)[1]
        assert res.value <= max(a.total_mass, b.total_mass) - matched + metrics._GUARD

    @settings(max_examples=300, deadline=None)
    @given(pair=lattice_pairs())
    @example(pair=one_ulp_pair())
    @example(pair=tied_floats_pair())
    def test_within_the_float_slack_of_the_exact_reference(self, pair):
        a, b = pair
        assert abs(prohorov(a, b).value - oracles.prohorov_exact(a, b)) <= float_slack(a, b)

    def test_binary_sweep_laws_are_within_the_float_slack_of_the_exact_reference(self):
        spec = binary_sweep_spec()
        center, *members = (
            [estimator_law(joint_law(build(family), n)).law for n in range(1, 7)]
            for family in (spec.center, *spec.grid)
        )
        for member in members:
            for a, b in zip(center, member):
                ref = oracles.prohorov_exact(a, b)
                assert abs(prohorov(a, b).value - ref) <= float_slack(a, b)

    @settings(max_examples=300, deadline=None)
    @given(pair=lattice_pairs())
    @example(pair=one_ulp_pair())
    def test_symmetric_within_the_float_slack(self, pair):
        a, b = pair
        assert abs(prohorov(a, b).value - prohorov(b, a).value) <= float_slack(a, b)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_windows_hold_the_pairs_within_each_distance(self, data):
        # Quarter lattices tie pair distances across rows.
        origin, unit = data.draw(st.sampled_from(SCALES))
        a, b = (rescaled(m, origin, unit) for m in lattice_pair(data, denominators=(4,)))
        pairs = maxflow.Pairs(a, b)
        for d in [0.0, *distances(a, b), math.inf]:
            below = np.nextafter(d, -np.inf)
            # Windows shrunk from those at d are those at the float below.
            assert np.array_equal(pairs.windows(below, pairs.windows(d)), pairs.windows(below))
            for t in (d, below):
                edges = pairs.windows(t)
                for i, x in enumerate(a.support):
                    near = [j for j, y in enumerate(b.support) if float(abs(x - y)) <= t]
                    assert near == list(range(edges[i], edges[len(a) + i]))

    @settings(max_examples=200, deadline=None)
    @given(pair=lattice_pairs(), scale=st.sampled_from(SCALES), seed=st.integers(0, 2**32 - 1))
    @example(pair=one_ulp_pair(), scale=SCALES[1], seed=0)
    @example(pair=one_ulp_pair(), scale=SCALES[2], seed=0)
    def test_extreme_is_the_largest_or_least_exact_distance(self, pair, scale, seed):
        a, b = (rescaled(m, *scale) for m in pair)
        pairs = maxflow.Pairs(a, b)
        rng = np.random.default_rng(seed)
        for size in (0, 1, 3, len(a) * len(b)):
            rows, cols = rng.integers(len(a), size=size), rng.integers(len(b), size=size)
            exact = [float(abs(a.support[i] - b.support[j])) for i, j in zip(rows, cols)]
            assert pairs.extreme(rows, cols, True) == max(exact, default=0.0)
            assert pairs.extreme(rows, cols, False) == min(exact, default=math.inf)

    def test_windows_pass_pairs_that_round_to_one_distance(self):
        # Near 1e16 the float spacing is 2: x - y rounds to 1e16 for three
        # adjacent y below x, and y - x is 1e16 for the one above.
        a = dirac(10**16)
        b = DiscreteMeasure.from_items(
            [(Fraction(1, 10), 0.25), (Fraction(1, 5), 0.25), (Fraction(3, 10), 0.25),
             (2 * 10**16, 0.25)]
        )
        pairs = maxflow.Pairs(a, b)
        assert pairs.windows(1e16).tolist() == [0, 4]
        assert pairs.windows(np.nextafter(1e16, -np.inf)).tolist() == [3, 3]

    def test_distances_past_int64_are_rounded_once(self):
        # Cross products of these atoms pass 2**63: they go through Python ints.
        a = DiscreteMeasure.from_items([(Fraction(1, 3**40), 0.5), (Fraction(2**70 + 1, 2**70), 0.5)])
        b = DiscreteMeasure.from_items([(Fraction(1, 5**30), 0.5), (Fraction(1), 0.5)])
        assert a.dens.dtype == object
        rows, cols = np.repeat([0, 1], 2), np.tile([0, 1], 2)
        got = maxflow.Pairs(a, b).distance(rows, cols).tolist()
        assert got == [float(abs(a.support[i] - b.support[j])) for i, j in zip(rows, cols)]
        assert prohorov(a, b).value == pytest.approx(oracles.prohorov_exact(a, b), abs=1e-15)

    def test_horizon_ten_is_exact_with_a_valid_certificate(self):
        a, b = (
            estimator_law(joint_law(build(FamilySpec.binary(p)), 10)).law
            for p in (0.75, 0.74)
        )
        assert len(a) * len(b) > 200_000_000
        res = prohorov(a, b)
        assert res.defect_slack == a.defect + b.defect + float_slack(a, b)
        oracles.validate_coupling(res.certificate)
        assert oracles.band_mass(res.certificate) >= 1.0 - res.value - 1e-10

    def test_defects_reported_as_slack_not_value(self):
        a = DiscreteMeasure.from_items([(Fraction(0), 0.95)], defect=0.05)
        b = DiscreteMeasure.from_items([(Fraction(0), 0.99)], defect=0.01)
        res = prohorov(a, b)
        assert res.defect_slack >= 0.06
        assert res.value <= 0.05


def eager_prohorov(a, b) -> metrics.MetricResult:
    """``prohorov`` with its band flow solved and its coupling built at once."""
    aw, bw = a.weights_array, b.weights_array
    t_goal = max(a.total_mass, b.total_mass)
    d, edges, deficit = metrics._least_feasible_distance(pairs := maxflow.Pairs(a, b), aw, bw, t_goal)
    value = max(d, deficit)
    rounding = math.ldexp((len(a) + len(b)) * t_goal, -52)
    coupling = maxflow.couple(a, b, pairs, edges, d, value)[0]
    return metrics.MetricResult(value, coupling, a.defect + b.defect + rounding)


class TestDeferredCertificate:
    """The Prohorov band flow is solved, and its coupling built, only when
    the certificate is read."""

    def test_the_value_builds_no_band_flow(self, monkeypatch):
        built = []
        monkeypatch.setattr(metrics, "couple", lambda *args: built.append(args))
        rng = np.random.default_rng(38)
        a, b = random_measure(rng), random_measure(rng)
        assert prohorov(a, b).value == eager_prohorov(a, b).value
        assert built == []

    def test_the_certificate_is_built_once(self, monkeypatch):
        solved, original = [], metrics.couple
        monkeypatch.setattr(metrics, "couple", lambda *args: solved.append(1) or original(*args))
        res = prohorov(dirac(0), DiscreteMeasure.from_items([(0, 0.5), (1, 0.5)]))
        first = res.certificate
        assert isinstance(first, metrics.Coupling) and res.certificate is first
        assert len(solved) == 1

    def test_json_matches_the_eager_certificate_on_gate_three_pairs(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            a, b = random_measure(rng, max_atoms=8), random_measure(rng, max_atoms=8)
            lazy, eager = prohorov(a, b), eager_prohorov(a, b)
            assert json.dumps(lazy.to_json_dict()) == json.dumps(eager.to_json_dict())
            assert np.array_equal(lazy.certificate.strassen, eager.certificate.strassen)
            assert lazy.certificate.strassen_eps == eager.certificate.strassen_eps

    def test_solver_errors_surface_when_the_certificate_is_read(self, monkeypatch):
        monkeypatch.setattr(maxflow, "staircase", idle_staircase)
        res = prohorov(DiscreteMeasure.from_items([(0, 0.5), (2, 0.5)]), dirac(2))
        assert res.value == 0.5
        with pytest.raises(SolverDidNotConverge, match="augmenting path"):
            res.certificate

    def test_other_metric_results_are_plain(self):
        rng = np.random.default_rng(39)
        a, b = random_measure(rng), random_measure(rng)
        assert [f.name for f in fields(metrics.MetricResult)] == ["value", "certificate", "defect_slack"]
        result = bounded_lipschitz(a, b)
        assert type(result) is metrics.MetricResult and isinstance(vars(result)["certificate"], dict)
        assert vars(metrics.MetricResult(0.5, defect_slack=0.1)) == {
            "value": 0.5, "certificate": None, "defect_slack": 0.1,
        }


def search(a, b, least_feasible=metrics._least_feasible_distance) -> float:
    """The least feasible distance between two measures, by ``least_feasible``."""
    t_goal = max(a.total_mass, b.total_mass)
    return least_feasible(maxflow.Pairs(a, b), a.weights_array, b.weights_array, t_goal)[0]


class TestSecantSearch:
    """The search's secant step moves no value: it ends where the search by
    weighted medians alone (``oracles.least_feasible_by_median``) ends."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["lattice", "quarters", "near"]))
    def test_matches_the_median_search(self, data, kind):
        if kind == "near":
            a, b = near_pair(data)
        else:
            a, b = lattice_pair(data, (4, 10) if kind == "lattice" else (4,))
        bisect, scan = (oracles.prohorov_by_breakpoints(a, b, scan=s).value for s in (False, True))
        if bisect == scan:  # else the test is not monotone, and the order of probes counts
            assert search(a, b) == search(a, b, oracles.least_feasible_by_median)

    def test_matches_the_median_search_on_the_binary_sweep_horizons(self):
        laws = {
            p: [estimator_law(joint_law(build(FamilySpec.binary(p)), n)).law for n in range(1, 9)]
            for p in (0.75, 0.74, 0.745, 0.755, 0.76)
        }
        for p in laws:
            for a, b in zip(laws[0.75], laws[p]):
                assert search(a, b) == search(a, b, oracles.least_feasible_by_median)

    def test_matches_the_median_search_on_the_contamination_sweep(self, monkeypatch):
        pairs = []
        original = lab.prohorov

        def kept(a, b):
            pairs.append((a, b))
            return original(a, b)

        monkeypatch.setattr(lab, "prohorov", kept)
        robustness_modulus(contamination_sweep_spec(k_values=(50,)))
        assert len(pairs) == 7
        for a, b in pairs:
            assert search(a, b) == search(a, b, oracles.least_feasible_by_median)

    def test_a_deficit_that_steps_at_the_crossing_falls_back_to_medians(self):
        # At n = 8, T - M reads 0.01913 just below the answer 0.0185185 and
        # 0.01824 at it, so no deficit rules out a pair between the two.
        a, b = (estimator_law(joint_law(build(FamilySpec.binary(p)), 8)).law for p in (0.75, 0.755))
        d = search(a, b)
        assert d == search(a, b, oracles.least_feasible_by_median) == 1 / 54

    def test_the_binary_sweep_search_probes_fewer_greedies(self, monkeypatch):
        greedies, bounded = [], []
        greedy, at_most = metrics._greedy_mass, lab.prohorov_at_most

        def counted_greedy(*args):
            greedies.append(1)
            return greedy(*args)

        def counted_at_most(*args):
            bounded.append(1)
            return at_most(*args)

        monkeypatch.setattr(metrics, "_greedy_mass", counted_greedy)
        monkeypatch.setattr(lab, "prohorov_at_most", counted_at_most)
        robustness_modulus(binary_sweep_spec())
        # One greedy per prohorov_at_most; the rest are the searches' probes,
        # of which the weighted medians alone made 124.
        assert len(bounded) == 28
        assert len(greedies) - len(bounded) == 70

    def test_the_one_ulp_draw_is_within_an_ulp_of_both_breakpoint_searches(self):
        a, b = one_ulp_pair()
        res = prohorov(a, b)
        oracles.validate_coupling(res.certificate)
        assert res.value == oracles.prohorov_exact(a, b) == 0.5
        for scan in (False, True):
            assert abs(res.value - oracles.prohorov_by_breakpoints(a, b, scan=scan).value) <= 1e-15

    def test_the_one_ulp_draw_agrees_across_all_three_searches(self):
        a, b = one_ulp_pair()
        bisect, scan = (oracles.prohorov_by_breakpoints(a, b, scan=s).value for s in (False, True))
        assert prohorov(a, b).value == bisect == scan


class TestProhorovAtMost:
    @staticmethod
    def check(a, b):
        value = prohorov(a, b).value
        bounds = [value, value - 1e-6, value + 1e-6]
        for d in distances(a, b):
            bounds += [d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf)]
        for bound in bounds:
            proved = metrics.prohorov_at_most(a, b, bound)
            if proved:
                assert value <= bound
            if value <= bound - 1e-6:
                assert proved

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sound_and_decisive_on_lattice_pairs(self, data):
        self.check(*lattice_pair(data))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sound_and_decisive_on_near_pairs(self, data):
        self.check(*near_pair(data))


class TestStrassenCoupling:
    def test_identity_coupling(self):
        rng = np.random.default_rng(37)
        m = random_measure(rng)
        coup = strassen_coupling(m, m, 0.0)
        oracles.validate_coupling(coup)
        assert oracles.band_mass(coup) == pytest.approx(1.0, abs=1e-12)
        assert len(coup.rows) == len(m)
        assert (coup.rows == coup.cols).all()

    def test_dirac_pair_at_exact_distance(self):
        coup = strassen_coupling(dirac(1), dirac(3), 2.0)
        assert coup.rows.tolist() == [0]
        assert coup.cols.tolist() == [0]
        assert coup.mass.tolist() == [1.0]
        assert oracles.band_mass(coup) == 1.0

    def test_estimator_laws_band_mass(self):
        laws = [build(FamilySpec.binary(p)) for p in (0.75, 0.74)]
        measures = [estimator_law(joint_law(law, 3)).law for law in laws]
        rho = prohorov(*measures).value
        coup = strassen_coupling(*measures, rho)
        oracles.validate_coupling(coup)
        assert oracles.band_mass(coup) >= 1.0 - rho - 1e-10

    def test_infeasible_band_reports_achievable_mass(self):
        a = dirac(0)
        b = dirac(5)
        with pytest.raises(CouplingInfeasible) as err:
            strassen_coupling(a, b, 0.25)
        assert err.value.achievable == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_bands_of_several_atoms_report_the_hall_mass(self):
        # One float below the Prohorov value the band falls short, unless the
        # value is a deficit within the 1e-12 tolerance.  Quarter-lattice
        # gaps are exact floats, so the oracle's band needs no tolerance.
        rng = np.random.default_rng(44)
        refused = []
        for _ in range(100):
            a, b = random_measure(rng), random_measure(rng)
            eps = math.nextafter(prohorov(a, b).value, 0.0)
            (xs, aw), (ys, bw) = as_arrays(a), as_arrays(b)
            hall = aw.sum() - max(0.0, oracles._one_sided_deficit(xs, aw, ys, bw, eps, tol=0.0))
            if hall >= max(a.total_mass, b.total_mass) - eps - 1e-12:
                oracles.validate_coupling(strassen_coupling(a, b, eps))
                continue
            with pytest.raises(CouplingInfeasible) as err:
                strassen_coupling(a, b, eps)
            assert err.value.achievable == pytest.approx(hall, abs=1e-12)
            refused.append(hall)
        # 27 of the 100 are refused, 24 of them with a positive band mass.
        assert len(refused) >= 20 and sum(m > 0.0 for m in refused) >= 20

    def test_validate_rejects_a_band_mass_below_the_strassen_cut(self):
        halves = DiscreteMeasure.from_items([(Fraction(0), 0.5), (Fraction(1), 0.5)])
        coup = strassen_coupling(halves, halves, 0.0)
        oracles.validate_coupling(coup)
        assert oracles.strassen_cut(coup) == pytest.approx(1.0, abs=1e-15)
        # Same marginals, but nothing on the band: the cut exposes it.
        coup.rows, coup.cols = np.array([0, 1]), np.array([1, 0])
        coup.mass = np.array([0.5, 0.5])
        with pytest.raises(InvalidParameter, match="Strassen cut"):
            oracles.validate_coupling(coup)

    def test_nan_and_negative_eps_are_rejected(self, monkeypatch):
        def stepped(pairs, t):
            raise AssertionError(f"a window was stepped at {t!r}")

        monkeypatch.setattr(maxflow.Pairs, "windows", stepped)
        m = dirac(1)
        with pytest.raises(InvalidParameter, match="bound"):
            metrics.prohorov_at_most(m, m, float("nan"))
        for eps in (float("nan"), -0.5):
            with pytest.raises(InvalidParameter, match="eps"):
                strassen_coupling(m, m, eps)

    def test_band_mass_counts_the_pairs_the_flow_used(self):
        # 14/5 - 2 rounds once, to fl(4/5) = 0.8: the pair is on the band
        # there and off it one float below, though 2.8 - 2.0 rounds below.
        assert 2.8 - 2.0 < 0.8
        coup = strassen_coupling(dirac(2), dirac(Fraction(14, 5)), 0.8)
        assert oracles.band_mass(coup) == 1.0
        assert oracles.band_mass(coup, math.nextafter(0.8, 0.0)) == 0.0
        oracles.validate_coupling(coup)

    def test_slack_counts_only_the_pairs_off_the_flow_band(self):
        # The same pair: on the band at fl(4/5), so nothing is slack; one
        # float below, the 0.7 it carries is.
        a = dirac(2)
        b = DiscreteMeasure.from_items([(2, 0.3), (Fraction(14, 5), 0.7)])
        assert strassen_coupling(a, b, 0.8).slack == 0
        assert strassen_coupling(a, b, math.nextafter(0.8, 0.0)).slack == 0.7

    def test_widest_band_couples_everything(self):
        rng = np.random.default_rng(38)
        a, b = random_measure(rng), random_measure(rng)
        eps = distances(a, b)[-1]
        for width in (eps, float("inf")):  # inf is valid: the widest band
            coup = strassen_coupling(a, b, width)
            oracles.validate_coupling(coup)
            assert coup.slack == 0
            assert oracles.band_mass(coup) == pytest.approx(1.0, abs=1e-10)


class TestCouplingCompletion:
    """The array completion against the dict walk of ``oracles``, bit for bit."""

    @staticmethod
    def check(a, b):
        aw, bw = a.weights_array, b.weights_array
        t_goal = max(a.total_mass, b.total_mass)
        d, edges, deficit = metrics._least_feasible_distance(pairs := maxflow.Pairs(a, b), aw, bw, t_goal)
        value = max(d, deficit)
        got = maxflow.couple(a, b, pairs, edges, d, value)[0]
        entries, slack = oracles.complete_coupling(a, b, edges, value)
        keys = sorted(entries)
        assert got.rows.tolist() == [i for i, _ in keys]
        assert got.cols.tolist() == [j for _, j in keys]
        assert got.mass.tolist() == [entries[key] for key in keys]
        # Same bits, and an int 0 where nothing is off the band.
        assert json.dumps(got.slack) == json.dumps(slack)
        assert np.array_equal(got.strassen, oracles.strassen_set(a, b, edges))
        assert np.array_equal(got.strassen, oracles.strassen_spans(a, b, edges))
        return got

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_dict_walk_on_lattice_pairs(self, data):
        self.check(*lattice_pair(data))

    def test_matches_the_dict_walk_on_the_one_sided_contamination_law(self):
        spec = contamination_sweep_spec(k_values=(50,))
        center, member = (
            estimator_law(joint_law(build(family), 2)).law
            for family in (spec.center, spec.grid[0])
        )
        assert (len(center), len(member)) == (3, 64_111)
        for a, b, inside in ((center, member, 3), (member, center, 64_048)):
            got = self.check(a, b)
            assert got.slack > 0.0 and got.strassen.sum() == inside


def couple_at(left, right, eps):
    """``maxflow.couple`` on the band at ``eps``, completed at ``eps``."""
    pairs = maxflow.Pairs(left, right)
    return maxflow.couple(left, right, pairs, pairs.windows(eps), eps, eps)


class TestCouple:
    def test_full_band_flow_value_is_min_total_mass(self):
        rng = np.random.default_rng(39)
        full, right = random_measure(rng), random_measure(rng)
        # Sub-probability on the left.
        left = DiscreteMeasure.from_items(zip(full.support, full.weights_array * 0.7), 0.3)
        coupling, matched = couple_at(left, right, distances(left, right)[-1])
        assert matched == pytest.approx(min(left.total_mass, right.total_mass), abs=1e-12)
        assert coupling.mass.sum() == pytest.approx(matched, abs=1e-12)
        assert not coupling.strassen.any()

    def test_disconnected_band_moves_nothing(self):
        coupling, matched = couple_at(dirac(0), dirac(9), 1.0)
        assert matched == 0.0
        assert coupling.slack == 1.0 and coupling.strassen.tolist() == [True]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flow_matches_hall_deficit_and_strassen_cut(self, data):
        # Quarter lattices give exact, often repeated distances; tenths give
        # distances whose float differences round away from eps.
        denominator = data.draw(st.sampled_from([4, 10]))

        def side():
            points = data.draw(
                st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True)
            )
            raw = data.draw(
                st.lists(
                    st.floats(0.01, 1.0), min_size=len(points), max_size=len(points)
                )
            )
            weights = np.array(raw) / sum(raw) * data.draw(st.floats(0.3, 1.0))
            support = (Fraction(p, denominator) for p in sorted(points))
            return DiscreteMeasure.from_items(zip(support, weights), max(0.0, 1.0 - float(weights.sum())))

        left, right = side(), side()
        (xs, a), (ys, b) = as_arrays(left), as_arrays(right)
        x = left.support[data.draw(st.integers(0, len(xs) - 1))]
        eps = float(abs(x - right.support[data.draw(st.integers(0, len(ys) - 1))]))
        coupling, matched = couple_at(left, right, eps)
        deficit = oracles._one_sided_deficit(xs, a, ys, b, eps)
        assert matched == pytest.approx(a.sum() - max(0.0, deficit), abs=1e-12)
        inside = [x for x, keep in zip(left.support, coupling.strassen) if keep]
        near = [any(float(abs(x - y)) <= eps for x in inside) for y in right.support]
        assert matched == pytest.approx(a[~coupling.strassen].sum() + b[near].sum(), abs=1e-12)
        edges = maxflow.Pairs(left, right).windows(eps)
        assert np.array_equal(coupling.strassen, oracles.strassen_spans(left, right, edges))

    def test_an_augmenting_path_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(maxflow, "staircase", idle_staircase)
        left = DiscreteMeasure.from_items([(0, 0.5), (2, 0.5)])
        with pytest.raises(SolverDidNotConverge, match="augmenting path"):
            couple_at(left, dirac(2), 0.0)

    def test_an_augmenting_path_through_an_earlier_row_is_a_typed_error(self, monkeypatch):
        # Row 0 fills right atom 1, the whole window of seed row 1; the path
        # from row 1 to right atom 0's room runs back through row 0.
        def crossed(supply, room, lo, hi):
            supply[0] = room[1] = 0.0
            return np.array([0]), np.array([1]), np.array([0.5]), 0.5

        left = DiscreteMeasure.from_items([(1, 0.5), (3, 0.5)])
        right = DiscreteMeasure.from_items([(0, 0.5), (2, 0.5)])
        assert maxflow.Pairs(left, right).windows(1.0).tolist() == [0, 1, 2, 2]
        monkeypatch.setattr(maxflow, "staircase", crossed)
        with pytest.raises(SolverDidNotConverge, match="augmenting path"):
            couple_at(left, right, 1.0)

    @pytest.mark.parametrize("swap", [False, True], ids=["p075_first", "p0755_first"])
    def test_strassen_search_on_the_pinned_horizon_eight_pair(self, swap):
        # The CI-pinned certificate's pair, 2,325 atoms a side: the search
        # merges spans over hundreds of rows, unlike the small pairs above.
        with open(DATA / "estimator_law_binary_p075_n8.json") as f:
            pinned = DiscreteMeasure.from_json_dict(json.load(f)["law"])
        other = estimator_law(joint_law(build(FamilySpec.binary(0.755)), 8)).law
        a, b = (other, pinned) if swap else (pinned, other)
        coup = prohorov(a, b).certificate
        oracles.validate_coupling(coup)
        edges = maxflow.Pairs(a, b).windows(coup.strassen_eps)
        assert np.array_equal(coup.strassen, oracles.strassen_set(a, b, edges))
        assert np.array_equal(coup.strassen, oracles.strassen_spans(a, b, edges))
        assert coup.strassen.sum() == (552 if swap else 1745)


class TestBoundedLipschitz:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(40)
        m = random_measure(rng)
        assert bounded_lipschitz(m, m).value == pytest.approx(0.0, abs=1e-12)

    def test_dirac_closed_forms(self):
        # Best test function trades sup-norm for slope; optimizing the split
        # gives 2d/(2+d) for diracs at distance d <= 1.
        assert bounded_lipschitz(dirac(0), dirac(1)).value == pytest.approx(
            2.0 / 3.0, abs=1e-9
        )
        half = DiscreteMeasure.from_items([(Fraction(1, 2), 1.0)])
        assert bounded_lipschitz(dirac(0), half).value == pytest.approx(
            0.4, abs=1e-9
        )

    def test_one_shared_atom_measures_the_retained_mass_gap(self):
        # Retained masses 0.95 and 0.99 on one atom: h = -1 there gives 0.04,
        # as it does when the right side has a second, negligible atom.
        a = DiscreteMeasure.from_items([(Fraction(0), 0.95)], defect=0.05)
        b = DiscreteMeasure.from_items([(Fraction(0), 0.99)], defect=0.01)
        assert bounded_lipschitz(a, b).value == pytest.approx(0.04, abs=1e-12)

    def test_prohorov_squared_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            a = random_measure(rng, max_atoms=10)
            b = random_measure(rng, max_atoms=10)
            rho = prohorov(a, b).value
            beta = bounded_lipschitz(a, b).value
            assert rho * rho <= 1.5 * beta + 1e-8

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            a = random_measure(rng, max_atoms=4)
            b = random_measure(rng, max_atoms=4)
            got = bounded_lipschitz(a, b).value
            ref = oracles.bounded_lipschitz(*as_arrays(a), *as_arrays(b))
            assert got == pytest.approx(ref, abs=2e-3)

    @staticmethod
    def _draw_pair(data, denominators=(1, 4, 10)) -> tuple[DiscreteMeasure, DiscreteMeasure]:
        """Two measures of up to six atoms on a lattice of 1, 1/4 or 1/10, by default."""
        denominator = data.draw(st.sampled_from(denominators))

        def side():
            points = data.draw(
                st.lists(st.integers(0, 24), min_size=1, max_size=6, unique=True)
            )
            raw = data.draw(
                st.lists(
                    st.floats(0.01, 1.0), min_size=len(points), max_size=len(points)
                )
            )
            return DiscreteMeasure.from_items(
                (Fraction(p, denominator), w / sum(raw)) for p, w in zip(points, raw)
            )

        return side(), side()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_certificate_is_feasible_and_brackets_the_value(self, data):
        a, b = self._draw_pair(data)
        res = bounded_lipschitz(a, b)
        cert = res.certificate
        union = sorted(set(a.support) | set(b.support))
        points = np.array(cert["points"])
        assert points.tolist() == [float(x) for x in union]
        h = np.array(cert["values"])
        lip, sup = cert["lipschitz"], cert["sup"]
        assert lip >= 0.0 and sup >= 0.0
        assert lip + sup <= 1.0 + 1e-12
        assert np.abs(h).max() <= sup + 1e-12
        assert (np.abs(np.diff(h)) <= lip * np.diff(points) + 1e-12).all()
        diff = np.array([a.mass_at(x) - b.mass_at(x) for x in union])
        assert max(float(diff @ h), 0.0) == res.value
        assert -1e-12 <= cert["upper"] - res.value <= 1e-12
        assert cert["gap"] == max(cert["upper"] - res.value, 0.0)
        # The grid search evaluates feasible functions, so it is a lower bound.
        ref = oracles.bounded_lipschitz(*as_arrays(a), *as_arrays(b))
        assert ref <= cert["upper"] + 1e-12
        assert res.value == pytest.approx(ref, abs=2e-3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_highs_lp(self, data):
        a, b = self._draw_pair(data)
        res = bounded_lipschitz(a, b)
        assert res.value == pytest.approx(oracles.bounded_lipschitz_lp(a, b), abs=1e-12)
        assert -1e-12 <= res.certificate["upper"] - res.value <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_dual_path_matches_the_reference_pass(self, data):
        # Entry by entry and bit for bit, with and without a path, on running
        # sums with signed zeros and repeated values, positive gaps and lam at
        # both ends; the reference there also gives the search's closed forms.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 25))
        pool = np.array([0.0, -0.0, *rng.uniform(-1.0, 1.0, 4)])
        d = np.where(rng.random(n) < 0.7, rng.choice(pool, n), rng.uniform(-1.0, 1.0, n))
        d = (np.cumsum(d) if data.draw(st.booleans()) else d).tolist()
        g = rng.choice([1.0, 0.25, 1 / 7919, *rng.uniform(1e-6, 2.0, 3)], n - 1).tolist() + [0.0]
        lam = data.draw(st.sampled_from([0.0, 1.0, float(rng.random())]))

        def bits(values):
            return np.array(values, dtype=float).tobytes()

        walk = oracles.dual_path_reference(d, g, lam)
        assert bits(metrics._dual_path(d, g, lam)) == bits(walk)
        if lam == 0.0:
            assert bits(walk) == bits([d[-1]] * len(d))
        if lam == 1.0:  # up to the sign of a zero, which TV and W never see
            assert walk == d
        for path in (walk, rng.choice(np.concatenate([pool, d]), n).tolist()):
            want = oracles.dual_path_reference(d, g, lam, path)
            assert bits(metrics._dual_path(d, g, lam, path)) == bits(want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_search_on_the_reference_pass(self, data):
        # Down to lattices of 1/7919, where the HiGHS oracle can fail.
        a, b = self._draw_pair(data, (1, 4, 10, 1000, 7919))
        got = json.dumps(bounded_lipschitz(a, b).to_json_dict())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_dual_path", oracles.dual_path_reference)
            want = json.dumps(bounded_lipschitz(a, b).to_json_dict())
        assert got == want

    def test_a_function_outside_the_ball_is_scaled_back(self, monkeypatch):
        walk = metrics._dual_path

        def overshooting(d, g, lam, path=None):
            values = walk(d, g, lam, path)
            return values if path is None else [1.5 * v for v in values]

        monkeypatch.setattr(metrics, "_dual_path", overshooting)
        res = bounded_lipschitz(dirac(0), dirac(1))
        cert = res.certificate
        assert cert["sup"] + cert["lipschitz"] <= 1.0
        assert res.value == cert["values"][0] - cert["values"][1]
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_a_search_past_its_step_cap_is_a_typed_error(self, monkeypatch):
        # binary(0.75) against binary(0.74) at n = 5 takes five steps.
        a = estimator_law(joint_law(build(FamilySpec.binary(0.75)), 5)).law
        b = estimator_law(joint_law(build(FamilySpec.binary(0.74)), 5)).law
        monkeypatch.setattr(metrics, "_BL_STEPS", 5)
        assert bounded_lipschitz(a, b).value == pytest.approx(self.PINNED[5], abs=1e-9)
        monkeypatch.setattr(metrics, "_BL_STEPS", 4)
        with pytest.raises(SolverDidNotConverge, match="took 4 steps"):
            bounded_lipschitz(a, b)

    # binary(0.75) against binary(0.74); n <= 5 were computed by the former
    # dense simplex, n = 6 is where that solver first gave up.
    PINNED = {
        1: 0.010000000000000009,
        2: 0.014900000000000024,
        3: 0.016761510000000035,
        4: 0.017956702939355147,
        5: 0.019180006054691716,
        6: 0.020053684115615394,
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_binary_ladder_values_are_pinned(self, n):
        a = estimator_law(joint_law(build(FamilySpec.binary(0.75)), n)).law
        b = estimator_law(joint_law(build(FamilySpec.binary(0.74)), n)).law
        assert bounded_lipschitz(a, b).value == pytest.approx(self.PINNED[n], abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_binary_ladder_certificate_closes(self, n):
        a = estimator_law(joint_law(build(FamilySpec.binary(0.75)), n)).law
        b = estimator_law(joint_law(build(FamilySpec.binary(0.74)), n)).law
        res = bounded_lipschitz(a, b)
        assert -1e-12 <= res.certificate["upper"] - res.value <= 1e-12

    def test_the_ladder_loads_no_scipy(self):
        script = (
            "import sys\n"
            "from gwlab import FamilySpec, bounded_lipschitz, build, estimator_law, joint_law\n"
            "laws = [build(FamilySpec.binary(p)) for p in (0.75, 0.74)]\n"
            "for n in range(1, 7):\n"
            "    bounded_lipschitz(*(estimator_law(joint_law(law, n)).law for law in laws))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_degenerate_pivot_regression(self):
        res = bounded_lipschitz(DEGENERATE_LEFT, DEGENERATE_RIGHT)
        ref = oracles.bounded_lipschitz(
            *as_arrays(DEGENERATE_LEFT), *as_arrays(DEGENERATE_RIGHT)
        )
        assert res.value == pytest.approx(ref, abs=2e-3)

    def test_stalled_highs_regression(self):
        res = bounded_lipschitz(STALLED_LEFT, STALLED_RIGHT)
        ref = oracles.bounded_lipschitz(*as_arrays(STALLED_LEFT), *as_arrays(STALLED_RIGHT))
        assert res.value == pytest.approx(ref, abs=2e-3)
        assert -1e-12 <= res.certificate["upper"] - res.value <= 1e-12


class TestJointTv:
    def test_identical_joints(self, b75):
        j = joint_law(b75, 2)
        value, slack = joint_tv(j, j)
        assert value == 0.0
        assert slack <= 1e-12

    def test_first_step_equals_offspring_tv(self):
        laws = [build(FamilySpec.binary(p)) for p in (0.75, 0.7)]
        value, _ = joint_tv(joint_law(laws[0], 1), joint_law(laws[1], 1))
        assert value == pytest.approx(tv_distance(laws[0].measure, laws[1].measure)[0], abs=1e-15)

    def test_growth_bound_on_random_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            law1, law2 = random_offspring_pair(rng)
            d_tv, _ = tv_distance(law1.measure, law2.measure)
            n = int(rng.integers(1, 5))
            value, slack = joint_tv(joint_law(law1, n), joint_law(law2, n))
            c_n = min(
                sum(law1.mean_m**i for i in range(n)),
                sum(law2.mean_m**i for i in range(n)),
            )
            assert value <= c_n * d_tv + slack + 1e-10

    def test_multiple_ancestors_scale_at_most_linearly(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            law1, law2 = random_offspring_pair(rng)
            n = int(rng.integers(1, 4))
            base, base_slack = joint_tv(joint_law(law1, n), joint_law(law2, n))
            for z0 in (2, 3):
                value, slack = joint_tv(
                    joint_law(law1, n, z0=z0), joint_law(law2, n, z0=z0)
                )
                assert value <= z0 * base + z0 * base_slack + slack + 1e-10

    def test_mismatched_shapes_rejected(self, b75):
        with pytest.raises(MismatchedLaws):
            joint_tv(joint_law(b75, 1), joint_law(b75, 2))
        with pytest.raises(MismatchedLaws):
            joint_tv(joint_law(b75, 2), joint_law(b75, 2, z0=2))


class TestTrajectoryTv:
    def test_matches_path_enumeration(self):
        pmf1 = {0: 0.25, 2: 0.75}
        pmf2 = {0: 0.20, 2: 0.50, 3: 0.30}
        law1 = build(FamilySpec.binary(0.75))
        law2 = build(FamilySpec.three_point(0.20, 0.50, 0.30))
        for n in (1, 2, 3):
            for z0 in (1, 2):
                value, slack = trajectory_tv(law1, law2, n, z0=z0)
                ref = oracles.trajectory_tv(pmf1, pmf2, n, z0)
                assert value == pytest.approx(ref, abs=1e-12 + slack)

    def test_first_step_equals_offspring_tv(self):
        laws = [build(FamilySpec.binary(p)) for p in (0.75, 0.6)]
        value, _ = trajectory_tv(laws[0], laws[1], 1)
        assert value == pytest.approx(0.15, abs=1e-15)
