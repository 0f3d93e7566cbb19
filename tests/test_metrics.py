"""Prohorov and bounded-Lipschitz metrics, couplings, joint and path distances."""

import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_arrays, random_measure, random_offspring_pair
from gwlab import (
    CouplingInfeasible,
    DiscreteMeasure,
    FamilySpec,
    InvalidParameter,
    MismatchedLaws,
    SolverDidNotConverge,
    bounded_lipschitz,
    build,
    contamination_sweep_spec,
    estimator_law,
    joint_law,
    joint_tv,
    maxflow,
    metrics,
    prohorov,
    strassen_coupling,
    trajectory_tv,
    tv_distance,
)


def dirac(x) -> DiscreteMeasure:
    return DiscreteMeasure.from_items([(Fraction(x), 1.0)])


def lattice_pair(data, denominators=(4, 10)) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Two measures of up to 8 atoms on one lattice, some with a defect."""
    # Quarter lattices tie many distances; tenths round them.
    denominator = data.draw(st.sampled_from(denominators))

    def side():
        points = data.draw(
            st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True)
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        total = data.draw(st.sampled_from([1.0, 0.9, 0.5]))
        weights = rng.dirichlet(np.ones(len(points))) * total
        return DiscreteMeasure.from_items(
            zip((Fraction(p, denominator) for p in points), weights),
            defect=max(0.0, 1.0 - float(weights.sum())),
        )

    return side(), side()


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
    @given(data=st.data())
    def test_matches_the_full_breakpoint_search(self, data):
        a, b = lattice_pair(data)
        res = prohorov(a, b)
        ref = oracles.prohorov_by_breakpoints(a, b)
        assert res.value == ref.value
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
        xs, aw = a.float_support, a.weights_array
        ys, bw = b.float_support, b.weights_array
        matched = maxflow.BandFlow(xs, aw, ys, bw, 0.0).solve()
        guard = metrics._GUARD + (len(a) + len(b)) * maxflow.FLOW_TERMINATION
        assert res.value <= max(a.total_mass, b.total_mass) - matched + guard

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stepped_edges_match_a_fresh_search(self, data):
        # Quarter lattices tie pair distances across rows.
        a, b = lattice_pair(data, denominators=(4,))
        xs, ys = a.float_support, b.float_support
        split = np.searchsorted(ys, xs, "left")
        n = len(xs)
        for d in np.unique(np.abs(xs[:, None] - ys[None, :])).tolist():
            edges = metrics._pair_edges(xs, ys, split, d)
            below = np.nextafter(d, -np.inf)
            stepped = metrics._settle_edges(xs, ys, split, below, edges[:n], edges[n:])
            assert np.array_equal(stepped, metrics._pair_edges(xs, ys, split, below))

    def test_stepped_edges_pass_pairs_that_round_to_one_distance(self):
        # Near 1e16 the float spacing is 2: x - y rounds to 1e16 for three
        # adjacent y below x, and y - x does for the one above.
        xs, ys = np.array([1e16]), np.array([0.1, 0.2, 0.3, 2e16])
        split = np.searchsorted(ys, xs, "left")
        edges = metrics._pair_edges(xs, ys, split, 1e16)
        assert edges.tolist() == [0, 4]
        below = np.nextafter(1e16, -np.inf)
        assert metrics._settle_edges(xs, ys, split, below, edges[:1], edges[1:]).tolist() == [3, 3]
        assert metrics._pair_edges(xs, ys, split, below).tolist() == [3, 3]

    def test_horizon_ten_is_exact_with_a_valid_certificate(self):
        a, b = (
            estimator_law(joint_law(build(FamilySpec.binary(p)), 10)).law
            for p in (0.75, 0.74)
        )
        assert len(a) * len(b) > 200_000_000
        res = prohorov(a, b)
        assert res.defect_slack == a.defect + b.defect
        oracles.validate_coupling(res.certificate)
        assert oracles.band_mass(res.certificate) >= 1.0 - res.value - 1e-10

    def test_guard_redo_leaves_the_value_unchanged(self, monkeypatch):
        a, b = (
            estimator_law(joint_law(build(FamilySpec.binary(p)), 4)).law
            for p in (0.75, 0.74)
        )
        plain = prohorov(a, b)
        solves = []
        solve = maxflow.BandFlow.solve

        def counted(flow):
            solves.append(flow.eps)
            return solve(flow)

        monkeypatch.setattr(maxflow.BandFlow, "solve", counted)
        monkeypatch.setattr(metrics, "_GUARD", 10.0)
        redone = prohorov(a, b)
        assert len(solves) > 1  # every probe plus the final flow
        assert redone.value == plain.value
        assert same_entries(redone.certificate, plain.certificate)

    def test_defects_reported_as_slack_not_value(self):
        a = DiscreteMeasure.from_items([(Fraction(0), 0.95)], defect=0.05)
        b = DiscreteMeasure.from_items([(Fraction(0), 0.99)], defect=0.01)
        res = prohorov(a, b)
        assert res.defect_slack >= 0.06
        assert res.value <= 0.05


class TestProhorovAtMost:
    @staticmethod
    def check(a, b):
        value = prohorov(a, b).value
        distances = np.unique(np.abs(a.float_support[:, None] - b.float_support[None, :]))
        bounds = [value, value - 1e-6, value + 1e-6]
        for d in distances.tolist():
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

    def test_nan_and_negative_eps_are_rejected(self):
        m = dirac(1)
        for eps in (float("nan"), -0.5):
            with pytest.raises(InvalidParameter, match="eps"):
                strassen_coupling(m, m, eps)
            with pytest.raises(InvalidParameter, match="eps"):
                maxflow.BandFlow(
                    np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([1.0]), eps
                )

    def test_band_mass_counts_the_pairs_the_flow_used(self):
        # 2.8 - 2 rounds above eps + BAND_TOL, while 2 + (eps + BAND_TOL)
        # rounds to 2.8: the flow's band holds the pair, so band_mass must too.
        coup = strassen_coupling(dirac(2), dirac(Fraction(14, 5)), 0.7999999999989996)
        assert oracles.band_mass(coup) == 1.0
        oracles.validate_coupling(coup)

    def test_slack_counts_only_the_pairs_off_the_flow_band(self):
        # The same rounding case: the pair is on the band, so nothing is slack.
        coup = strassen_coupling(dirac(2), dirac(Fraction(14, 5)), 0.7999999999989996)
        assert coup.slack == 0

    def test_widest_band_couples_everything(self):
        rng = np.random.default_rng(38)
        a, b = random_measure(rng), random_measure(rng)
        xs, _ = as_arrays(a)
        ys, _ = as_arrays(b)
        eps = float(np.abs(xs[:, None] - ys[None, :]).max())
        for width in (eps, float("inf")):  # inf is valid: the widest band
            coup = strassen_coupling(a, b, width)
            oracles.validate_coupling(coup)
            assert coup.slack == 0
            assert oracles.band_mass(coup) == pytest.approx(1.0, abs=1e-10)


class TestCouplingCompletion:
    """The array completion against the dict walk of ``oracles``, bit for bit."""

    @staticmethod
    def check(a, b):
        xs, aw = a.float_support, a.weights_array
        ys, bw = b.float_support, b.weights_array
        t_goal = max(a.total_mass, b.total_mass)
        d = metrics._least_feasible_distance(xs, aw, ys, bw, t_goal)
        flow = maxflow.BandFlow(xs, aw, ys, bw, d)
        value = max(d, t_goal - flow.solve())
        got = metrics._complete_coupling(a, b, value, flow)
        entries, slack = oracles.complete_coupling(a, b, value, flow)
        keys = sorted(entries)
        assert got.rows.tolist() == [i for i, _ in keys]
        assert got.cols.tolist() == [j for _, j in keys]
        assert got.mass.tolist() == [entries[key] for key in keys]
        # Same bits, and an int 0 where nothing is off the band.
        assert json.dumps(got.slack) == json.dumps(slack)
        assert np.array_equal(got.strassen, oracles.strassen_set(flow))
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
        for a, b in ((center, member), (member, center)):
            assert self.check(a, b).slack > 0.0


class TestBandFlow:
    def test_full_band_flow_value_is_min_total_mass(self):
        rng = np.random.default_rng(39)
        xs, a = as_arrays(random_measure(rng))
        ys, b = as_arrays(random_measure(rng))
        a = a * 0.7  # sub-probability on the left
        eps = float(np.abs(xs[:, None] - ys[None, :]).max())
        flow = maxflow.BandFlow(xs, a, ys, b, eps)
        value = flow.solve()
        assert value == pytest.approx(min(a.sum(), b.sum()), abs=1e-12)
        assert flow.matched == value
        assert flow.mass.sum() == pytest.approx(value, abs=1e-12)

    def test_disconnected_band_moves_nothing(self):
        flow = maxflow.BandFlow(
            np.array([0.0]), np.array([1.0]), np.array([9.0]), np.array([1.0]), 1.0
        )
        assert flow.solve() == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flow_matches_hall_deficit_and_strassen_cut(self, data):
        # Quarter lattices give exact, often repeated distances; tenths give
        # distances that differ from eps by rounding, which BAND_TOL absorbs.
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
            total = data.draw(st.floats(0.3, 1.0))
            return np.sort(points) / denominator, np.array(raw) / sum(raw) * total

        xs, a = side()
        ys, b = side()
        eps = abs(
            xs[data.draw(st.integers(0, len(xs) - 1))]
            - ys[data.draw(st.integers(0, len(ys) - 1))]
        )
        flow = maxflow.BandFlow(xs, a, ys, b, eps)
        value = flow.solve()
        deficit = oracles._one_sided_deficit(xs, a, ys, b, eps)
        assert value == pytest.approx(a.sum() - max(0.0, deficit), abs=1e-12)
        inside = flow.strassen
        near = (
            np.abs(xs[inside][:, None] - ys[None, :]) <= eps + maxflow.BAND_TOL
        ).any(axis=0)
        assert value == pytest.approx(a[~inside].sum() + b[near].sum(), abs=1e-12)


    def test_an_augmenting_path_is_a_typed_error(self, monkeypatch):
        def idle(flow):  # ships nothing: supply and room face each other
            flow.rows = flow.cols = np.zeros(0, dtype=np.int64)
            flow.mass, flow.matched = np.zeros(0), 0.0

        monkeypatch.setattr(maxflow.BandFlow, "_greedy", idle)
        flow = maxflow.BandFlow(
            np.array([0.0, 2.0]), np.array([0.5, 0.5]), np.array([2.0]), np.array([1.0]), 0.0
        )
        with pytest.raises(SolverDidNotConverge, match="augmenting path"):
            flow.solve()


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

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_certificate_is_feasible_and_brackets_the_value(self, data):
        denominator = data.draw(st.sampled_from([1, 4, 10]))

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

        a, b = side(), side()
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
        assert -1e-12 <= cert["upper"] - res.value <= 1e-9
        assert cert["gap"] == max(cert["upper"] - res.value, 0.0)
        # The grid search evaluates feasible functions, so it is a lower bound.
        ref = oracles.bounded_lipschitz(*as_arrays(a), *as_arrays(b))
        assert ref <= cert["upper"] + 1e-12
        assert res.value == pytest.approx(ref, abs=2e-3)

    def test_solver_output_outside_the_ball_is_scaled_back(self, monkeypatch):
        solve = scipy.optimize.linprog

        def overshooting(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.x = 1.5 * res.x
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", overshooting)
        res = bounded_lipschitz(dirac(0), dirac(1))
        cert = res.certificate
        assert cert["sup"] + cert["lipschitz"] <= 1.0
        assert res.value == cert["values"][0] - cert["values"][1]
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_solver_failure_is_a_typed_error(self, monkeypatch):
        def failing(*args, **kwargs):
            return SimpleNamespace(status=4, message="Numerical difficulties")

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        with pytest.raises(SolverDidNotConverge, match="Numerical difficulties"):
            bounded_lipschitz(dirac(0), dirac(1))

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

    def test_degenerate_pivot_regression(self):
        res = bounded_lipschitz(DEGENERATE_LEFT, DEGENERATE_RIGHT)
        ref = oracles.bounded_lipschitz(
            *as_arrays(DEGENERATE_LEFT), *as_arrays(DEGENERATE_RIGHT)
        )
        assert res.value == pytest.approx(ref, abs=2e-3)


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
