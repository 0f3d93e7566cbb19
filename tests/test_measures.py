"""Measure construction, total variation, the dense lattice convolution, mean."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_dict, random_measure
from gwlab import (
    DiscreteMeasure,
    FamilySpec,
    InvalidParameter,
    Propagator,
    build,
    mean,
    prohorov,
    tv_distance,
)
from gwlab.measures import MASS_TOL, _convolve_dense, _span, merge_atoms


def integer_measure(rng, max_atoms=6):
    return random_measure(rng, max_atoms=max_atoms, integer=True)


class TestConstruction:
    def test_equal_reduced_fractions_merge(self):
        m = DiscreteMeasure.from_items([(Fraction(2, 6), 0.5), (Fraction(1, 3), 0.5)])
        assert m.support == (Fraction(1, 3),)
        assert m.weights == (1.0,)

    def test_zero_weights_dropped_and_equality_is_structural(self):
        a = DiscreteMeasure.from_items([(Fraction(0), 1.0), (Fraction(7), 0.0)])
        b = DiscreteMeasure.from_items([(Fraction(0), 1.0)])
        assert a == b

    def test_float_points_rejected(self):
        with pytest.raises(InvalidParameter):
            DiscreteMeasure.from_items([(0.5, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter):
            DiscreteMeasure.from_items([])

    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_measure(rng)
            back = DiscreteMeasure.from_json_dict(m.to_json_dict())
            assert back.support == m.support
            assert back.weights == m.weights
            assert back.defect == m.defect

    def test_dense_round_trip(self):
        m = DiscreteMeasure.from_dense(np.array([0.25, 0.0, 0.75]))
        assert m.support == (Fraction(0), Fraction(2))
        assert list(m.dense_weights()) == [0.25, 0.0, 0.75]
        assert m.mass_at(2) == 0.75
        assert m.mass_at(Fraction(1, 2)) == 0.0

    @pytest.mark.parametrize(
        "make, words",
        [
            (lambda: DiscreteMeasure.from_dense([0.5, 0.5], start=-1), "nonnegative"),
            (lambda: DiscreteMeasure.from_sorted_arrays([0, 1], [1, 1], [0.0, 0.0], 1.0),
             "at least one atom"),
            (lambda: DiscreteMeasure.from_sorted_arrays([1], [1], [0.3]), "sum"),
            (lambda: DiscreteMeasure.from_sorted_arrays([0, 1], [1, 1], [0.7, 0.7]), "sum"),
            (lambda: DiscreteMeasure.from_items([(0, 0.7), (1, 0.7)]), "sum"),
            (lambda: DiscreteMeasure.from_sorted_arrays([0, 1], [1, 1], [1.0]), "equal-length"),
        ],
        ids=["negative-start", "no-nonzero-weight", "missing-mass", "excess-mass",
             "items-excess-mass", "length-mismatch"],
    )
    def test_every_constructor_checks_the_invariant(self, make, words):
        with pytest.raises(InvalidParameter, match=words):
            make()

    def test_an_overstated_defect_passes_every_constructor(self):
        # The engine adds the defects of convolved powers, a union bound, so
        # the generations of a truncated law carry more defect than lost mass.
        law = build(FamilySpec.poisson(2.0, truncation=8))
        gen = Propagator(law, n_max=2, budget=0.01).generation(2)
        assert gen.total_mass < 1.0 < gen.total_mass + gen.defect - MASS_TOL
        assert DiscreteMeasure.from_json_dict(gen.to_json_dict()) == gen

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_and_defects_rejected(self, bad):
        builds = [
            lambda: DiscreteMeasure.from_items([(0, bad), (1, 1.0)]),
            lambda: DiscreteMeasure.from_items([(0, 1.0)], defect=bad),
            lambda: DiscreteMeasure.from_dense(np.array([0.5, bad])),
            lambda: DiscreteMeasure.from_dense(np.array([1.0]), defect=bad),
            lambda: DiscreteMeasure.from_sorted_arrays(
                np.array([0, 1]), np.array([1, 1]), np.array([bad, 1.0])
            ),
            lambda: DiscreteMeasure.from_json_dict(
                {"support": [[0, 1], [1, 1]], "weights": [bad, 1.0], "defect": 0.0}
            ),
        ]
        for make in builds:
            with pytest.raises(InvalidParameter, match="finite"):
                make()

    @pytest.mark.parametrize(
        "support", [["0", "1"], [[0, 1], [1]], [[0, 1], [1, 0]], [[0, 1], None]]
    )
    def test_malformed_json_support_is_a_typed_error(self, support):
        data = {"support": support, "weights": [0.5, 0.5], "defect": 0.0}
        with pytest.raises(InvalidParameter, match="support entry"):
            DiscreteMeasure.from_json_dict(data)


class TestArrayStorage:
    @settings(max_examples=100, deadline=None)
    @given(
        atoms=st.dictionaries(
            st.builds(Fraction, st.integers(0, 2**70), st.integers(1, 2**40)),
            st.floats(0.01, 1.0), min_size=1, max_size=12,
        )
    )
    def test_equality_hash_and_pickle_round_trip(self, atoms):
        import pickle

        total = sum(atoms.values())
        m = DiscreteMeasure.from_items((x, w / total) for x, w in atoms.items())
        twin = DiscreteMeasure.from_json_dict(m.to_json_dict())
        assert twin == m and hash(twin) == hash(m)
        assert m.float_support.tolist() == [float(x) for x in m.support]
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == hash(m)
        assert "support" not in back.__dict__
        assert back.support == m.support and back.weights == m.weights
        assert DiscreteMeasure.from_sorted_arrays(m.nums, m.dens, m.weights_array) == m
        heavier = DiscreteMeasure.from_items(m.items(), defect=1e-10)
        assert heavier != m

    def test_order_check_does_not_wrap_in_int64(self):
        # 845087558022/764513224103 > 293970699566/883567286527, but the int64
        # cross products wrap and compare the other way.
        nums = np.array([845087558022, 293970699566])
        dens = np.array([764513224103, 883567286527])
        with pytest.raises(InvalidParameter, match="increasing"):
            DiscreteMeasure.from_sorted_arrays(nums, dens, np.array([0.5, 0.5]))
        m = DiscreteMeasure.from_sorted_arrays(nums[::-1], dens[::-1], np.array([0.5, 0.5]))
        assert m.support == tuple(sorted(map(Fraction, nums.tolist(), dens.tolist())))

    def test_sorted_arrays_past_int64_are_kept_as_object_arrays(self):
        m = DiscreteMeasure.from_sorted_arrays(
            np.array([2**70], dtype=object), np.array([1], dtype=object), np.array([1.0])
        )
        assert m == DiscreteMeasure([2**70], [1.0])
        assert m.nums.dtype == object and m.support == (Fraction(2**70),)
        mixed = DiscreteMeasure.from_sorted_arrays([3, 2**70], [1, 3], np.array([0.5, 0.5]))
        assert mixed.support == (Fraction(3), Fraction(2**70, 3))

    def test_array_and_fraction_routes_build_equal_measures(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_measure(rng)
            arrays = DiscreteMeasure.from_sorted_arrays(m.nums, m.dens, m.weights_array)
            assert arrays == m and hash(arrays) == hash(m)
            assert "support" not in arrays.__dict__
        dense = DiscreteMeasure.from_dense(np.array([0.25, 0.0, 0.75]))
        assert dense == DiscreteMeasure.from_items([(0, 0.25), (2, 0.75)])
        assert dense.nums.dtype == np.int64 and dense.is_integer_supported
        assert {dense: 1}[DiscreteMeasure.from_items([(2, 0.75), (0, 0.25)])] == 1

# Reduced fractions to draw repeats from: big, small, and 1 + 1/j for three
# neighbouring j past 2**26, where neighbours often share a double.
atom_pool = st.tuples(
    st.lists(
        st.one_of(
            st.builds(Fraction, st.integers(0, 2**62), st.integers(1, 2**62)),
            st.builds(Fraction, st.integers(0, 40), st.integers(1, 6)),
        ),
        max_size=4,
    ),
    st.integers(2**26, 2**27),
).map(lambda drawn: drawn[0] + [Fraction(j + 1, j) for j in range(drawn[1], drawn[1] + 3)])


class TestMergeAtoms:
    @settings(max_examples=150, deadline=None)
    @given(pool=atom_pool, data=st.data())
    def test_matches_a_fraction_dict_bit_for_bit(self, pool, data):
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
        weights = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=len(picks), max_size=len(picks)
        )))
        nums = np.array([x.numerator for x in picks], dtype=np.int64)
        dens = np.array([x.denominator for x in picks], dtype=np.int64)
        unums, udens, summed, index = merge_atoms(nums, dens, weights)
        acc: dict[Fraction, float] = {}
        for x, w in zip(picks, weights.tolist()):
            acc[x] = acc.get(x, 0.0) + w
        atoms = sorted(acc)
        assert list(map(Fraction, unums.tolist(), udens.tolist())) == atoms
        assert summed.tolist() == [acc[x] for x in atoms]
        assert [atoms[i] for i in index.tolist()] == picks

    def test_distinct_atoms_sharing_a_double_fall_back_to_exact_order(self):
        j = 2**27
        nums = np.array([j + 1, j + 2, j + 1, j + 3])
        dens = np.array([j, j + 1, j, j + 2])
        unums, udens, summed, index = merge_atoms(nums, dens, np.array([0.25, 0.5, 0.125, 0.125]))
        assert len(set((unums / udens).tolist())) == 1
        assert (unums.tolist(), udens.tolist()) == ([j + 3, j + 2, j + 1], [j + 2, j + 1, j])
        assert summed.tolist() == [0.125, 0.5, 0.375]
        assert index.tolist() == [2, 1, 2, 0]


class TestTvDistance:
    def test_identical_measures(self):
        d0 = DiscreteMeasure.from_items([(Fraction(0), 1.0)])
        assert tv_distance(d0, d0) == (0.0, 0.0)

    def test_binary_pair_gap(self):
        a = build(FamilySpec.binary(0.6)).measure
        b = build(FamilySpec.binary(0.7)).measure
        value, slack = tv_distance(a, b)
        assert value == pytest.approx(0.1, abs=1e-15)
        assert slack == 0.0

    def test_tail_redistribution_moves_exactly_that_mass(self):
        # Mass q sitting at 3 is pushed down onto {0, 2}; the distance is q
        # no matter how the redistribution splits.
        q = 0.3
        src = DiscreteMeasure.from_items(
            [(Fraction(0), 0.3), (Fraction(2), 0.4), (Fraction(3), q)]
        )
        dst = DiscreteMeasure.from_items([(Fraction(0), 0.4), (Fraction(2), 0.6)])
        value, _ = tv_distance(src, dst)
        assert value == pytest.approx(q, abs=1e-15)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a, b, c = (random_measure(rng) for _ in range(3))
            ab, _ = tv_distance(a, b)
            ba, _ = tv_distance(b, a)
            assert ab == ba
            assert tv_distance(a, a)[0] <= 1e-12
            ac, _ = tv_distance(a, c)
            bc, _ = tv_distance(b, c)
            assert ac <= ab + bc + 1e-12

    def test_slack_is_half_the_defect_sum(self):
        a = DiscreteMeasure.from_items([(Fraction(0), 0.9)], defect=0.1)
        b = DiscreteMeasure.from_items([(Fraction(0), 0.96)], defect=0.04)
        _, slack = tv_distance(a, b)
        assert slack == pytest.approx(0.07, abs=1e-15)

    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b = integer_measure(rng), integer_measure(rng)
            value, _ = tv_distance(a, b)
            ref = oracles.tv(as_dict(a), as_dict(b))
            assert value == pytest.approx(ref, abs=1e-14)

    def test_equals_prohorov_on_integer_supports(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a, b = integer_measure(rng), integer_measure(rng)
            value, _ = tv_distance(a, b)
            assert prohorov(a, b).value == pytest.approx(value, abs=1e-9)


@st.composite
def lattice_array(draw):
    """Nonnegative weights on ``gZ`` for g in {1, 2, 3, 5}, some trailing zeros.

    Lattice points may carry zero, so the array's own span can be a
    multiple of g, or 0 when only index 0 carries mass.
    """
    g = draw(st.sampled_from([1, 2, 3, 5]))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    atoms = draw(st.lists(weight, min_size=1, max_size=40))
    out = np.zeros((len(atoms) - 1) * g + 1 + draw(st.integers(0, g - 1)))
    out[: len(atoms) * g : g] = atoms
    return out


class TestSpanConvolution:
    @settings(max_examples=300, deadline=None)
    @given(a=lattice_array(), b=lattice_array())
    def test_matches_dense_convolution(self, a, b):
        got = _convolve_dense(a, b, _span(a), _span(b))
        want = np.convolve(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got != 0.0, want != 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_single_atoms_on_different_lattices(self):
        # Atoms at 4 and 9: the spans 4 and 9 share no factor.
        a = np.zeros(5)
        a[4] = 0.5
        b = np.zeros(10)
        b[9] = 0.25
        out = _convolve_dense(a, b, _span(a), _span(b))
        assert out.size == 14
        assert np.flatnonzero(out).tolist() == [13]
        assert out[13] == 0.125


class TestMean:
    def test_point_mass(self):
        assert mean(DiscreteMeasure.from_items([(Fraction(7, 2), 1.0)])) == 3.5

    def test_binary(self):
        for p in (0.2, 0.5, 0.75):
            assert mean(build(FamilySpec.binary(p)).measure) == pytest.approx(
                2 * p, abs=1e-15
            )

    def test_truncated_poisson_mean_sits_below_lambda(self):
        lam = 2.0
        m = build(FamilySpec.poisson(lam)).measure
        assert lam - 1e-9 <= mean(m) <= lam
