"""Measure construction, union supports, total variation, mean."""

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
    estimator_law,
    joint_law,
    mean,
    prohorov,
    tv_distance,
)
from gwlab.measures import MASS_TOL, difference, left_sum, merge_atoms


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
            (lambda: DiscreteMeasure.from_items([(-1, 0.5), (0, 0.5)]), "nonnegative"),
            (lambda: DiscreteMeasure([0, 1], [1, 1], [0.0, 0.0], 1.0), "at least one atom"),
            (lambda: DiscreteMeasure([1], [1], [0.3]), "sum"),
            (lambda: DiscreteMeasure([0, 1], [1, 1], [0.7, 0.7]), "sum"),
            (lambda: DiscreteMeasure.from_items([(0, 0.7), (1, 0.7)]), "sum"),
            (lambda: DiscreteMeasure([0, 1], [1, 1], [1.0]), "equal-length"),
        ],
        ids=["negative-point", "no-nonzero-weight", "missing-mass", "excess-mass",
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
            lambda: DiscreteMeasure(np.array([0, 1]), np.array([1, 1]), np.array([bad, 1.0])),
            lambda: DiscreteMeasure.from_json_dict(
                {"support": [[0, 1], [1, 1]], "weights": [bad, 1.0], "defect": 0.0}
            ),
        ]
        for make in builds:
            with pytest.raises(InvalidParameter, match="finite"):
                make()

    @pytest.mark.parametrize(
        "support",
        [["0", "1"], [[0, 1], [1]], [[0, 1], [1, 0]], [[0, 1], None],
         # Entries are read as JSON integers: no truncation to 1/2 or to 1.
         [[1.5, 2], [3, 1]], [[True, 1], [3, 1]], [[0, 1], [3, "1"]]],
    )
    def test_malformed_json_support_is_a_typed_error(self, support):
        data = {"support": support, "weights": [0.5, 0.5], "defect": 0.0}
        with pytest.raises(InvalidParameter, match="support entry"):
            DiscreteMeasure.from_json_dict(data)

    @pytest.mark.parametrize(
        "support, weights, words",
        [([[0, 1], [1, 1]], [0.0, 1.0], "positive"),
         ([[1, 1], [0, 1]], [0.5, 0.5], "increasing"),
         ([[1, 2], [2, 4]], [0.5, 0.5], "increasing")],
        ids=["zero-weight", "unsorted", "repeated"],
    )
    def test_json_measure_must_already_be_canonical(self, support, weights, words):
        data = {"support": support, "weights": weights, "defect": 0.0}
        with pytest.raises(InvalidParameter, match=words):
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
        assert DiscreteMeasure(m.nums, m.dens, m.weights_array) == m
        heavier = DiscreteMeasure.from_items(m.items(), defect=1e-10)
        assert heavier != m

    def test_unpickling_runs_the_checked_constructor(self):
        import pickle

        m = DiscreteMeasure.from_items([(0, 0.25), (Fraction(2**70, 3), 0.75)])
        make, args = m.__reduce__()
        assert make is DiscreteMeasure and make(*args) == m
        back = pickle.loads(pickle.dumps(m))
        assert back == m and back.nums.dtype == object
        assert eval(repr(m), {"DiscreteMeasure": DiscreteMeasure}) == m
        with pytest.raises(InvalidParameter, match="increasing"):
            make(*(a[::-1] for a in args[:3]), args[3])

    def test_order_check_does_not_wrap_in_int64(self):
        # 845087558022/764513224103 > 293970699566/883567286527, but the int64
        # cross products wrap and compare the other way.
        nums = np.array([845087558022, 293970699566])
        dens = np.array([764513224103, 883567286527])
        with pytest.raises(InvalidParameter, match="increasing"):
            DiscreteMeasure(nums, dens, np.array([0.5, 0.5]))
        m = DiscreteMeasure(nums[::-1], dens[::-1], np.array([0.5, 0.5]))
        assert m.support == tuple(sorted(map(Fraction, nums.tolist(), dens.tolist())))

    def test_sorted_arrays_past_int64_are_kept_as_object_arrays(self):
        m = DiscreteMeasure(
            np.array([2**70], dtype=object), np.array([1], dtype=object), np.array([1.0])
        )
        assert m == DiscreteMeasure.from_items([(2**70, 1.0)])
        assert m.nums.dtype == object and m.support == (Fraction(2**70),)
        mixed = DiscreteMeasure([3, 2**70], [1, 3], np.array([0.5, 0.5]))
        assert mixed.support == (Fraction(3), Fraction(2**70, 3))

    def test_array_and_fraction_routes_build_equal_measures(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_measure(rng)
            arrays = DiscreteMeasure(m.nums, m.dens, m.weights_array)
            assert arrays == m and hash(arrays) == hash(m)
            assert "support" not in arrays.__dict__
        dense = DiscreteMeasure.from_dense(np.array([0.25, 0.0, 0.75]))
        assert dense == DiscreteMeasure.from_items([(0, 0.25), (2, 0.75)])
        assert dense.nums.dtype == np.int64 and dense.is_integer_supported
        assert {dense: 1}[DiscreteMeasure.from_items([(2, 0.75), (0, 0.25)])] == 1

# Reduced fractions to draw repeats from: big, small, past int64, and 1 + 1/j
# for three neighbouring j past 2**26, where neighbours often share a double.
atom_pool = st.tuples(
    st.lists(
        st.one_of(
            st.builds(Fraction, st.integers(0, 2**62), st.integers(1, 2**62)),
            st.builds(Fraction, st.integers(0, 40), st.integers(1, 6)),
            st.builds(Fraction, st.integers(2**63, 2**70), st.integers(1, 2**70)),
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
        weights = data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=len(picks), max_size=len(picks)
        ))
        # One more weight that brings the first atom's sum to exactly zero.
        picks.append(picks[0])
        weights.append(-oracles.merge_by_dict(picks, weights)[picks[0]])
        # Each atom comes in lowest terms or scaled by 3 or 2**40, so equal
        # atoms arrive as different pairs, in int64 or past it.
        scales = data.draw(st.lists(
            st.sampled_from([1, 3, 2**40]), min_size=len(picks), max_size=len(picks)
        ))
        ints = [x.numerator * s for x, s in zip(picks, scales)]
        ints += [x.denominator * s for x, s in zip(picks, scales)]
        ints = np.array(ints, dtype=np.int64 if max(ints) < 2**63 else object)
        nums, dens = ints[: len(picks)], ints[len(picks):]
        unums, udens, summed, index = merge_atoms(nums, dens, np.array(weights))
        acc = oracles.merge_by_dict(picks, weights)
        atoms = list(acc)
        assert list(map(Fraction, unums.tolist(), udens.tolist())) == atoms
        assert summed.tolist() == list(acc.values())
        assert [atoms[i] for i in index.tolist()] == picks

        # from_items merges the same points.  Masses under 1/32 keep every
        # sum below 1, so a defect of 1 passes the mass check.
        masses = [abs(w) / 32 for w in weights[:-1]]
        masses.append(-oracles.merge_by_dict(picks[:-1], masses)[picks[0]])
        kept = [(x, w) for x, w in oracles.merge_by_dict(picks, masses).items() if w != 0.0]
        if not kept:
            with pytest.raises(InvalidParameter, match="at least one atom"):
                DiscreteMeasure.from_items(zip(picks, masses), defect=1.0)
            return
        m = DiscreteMeasure.from_items(zip(picks, masses), defect=1.0)
        assert list(m.items()) == kept
        # Typed before zero sums drop, as the merged arrays come in.
        top = max(max(x.numerator, x.denominator) for x in picks)
        assert m.nums.dtype == (np.int64 if top < 2**63 else object)

    @pytest.mark.parametrize("scale", [1, 3])
    def test_distinct_atoms_sharing_a_double_fall_back_to_exact_order(self, scale):
        # Scaled by 3 the atoms are not in lowest terms; they merge alike.
        j = 2**27
        nums = scale * np.array([j + 1, j + 2, j + 1, j + 3])
        dens = scale * np.array([j, j + 1, j, j + 2])
        unums, udens, summed, index = merge_atoms(nums, dens, np.array([0.25, 0.5, 0.125, 0.125]))
        assert len(set((unums / udens).tolist())) == 1
        assert (unums.tolist(), udens.tolist()) == (
            [scale * (j + 3), scale * (j + 2), scale * (j + 1)], [scale * (j + 2), scale * (j + 1), scale * j]
        )
        assert summed.tolist() == [0.125, 0.5, 0.375]
        assert index.tolist() == [2, 1, 2, 0]


def assert_same_merge_bits(got, ref):
    assert len(got) == len(ref) == 4
    assert_same_bits(got, ref)


def assert_same_bits(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()


class TestMergeAtomsBitForBit:
    """``merge_atoms`` against ``oracles.merge_atoms_by_sorted_copies``: the
    same atoms, weights and index, bit for bit and by dtype."""

    @settings(max_examples=150, deadline=None)
    @given(pool=atom_pool, data=st.data())
    def test_matches_the_sorted_copies(self, pool, data):
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
        weights = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=len(picks), max_size=len(picks)
        )))
        scales = data.draw(st.lists(
            st.sampled_from([1, 3, 2**40]), min_size=len(picks), max_size=len(picks)
        ))
        ints = [x.numerator * s for x, s in zip(picks, scales)]
        ints += [x.denominator * s for x, s in zip(picks, scales)]
        ints = np.array(ints, dtype=np.int64 if max(ints) < 2**63 else object)
        nums, dens = ints[: len(picks)], ints[len(picks):]
        assert_same_merge_bits(
            merge_atoms(nums, dens, weights),
            oracles.merge_atoms_by_sorted_copies(nums, dens, weights),
        )

    @pytest.mark.parametrize("case", ["unreduced", "float-ties", "past-int64"])
    def test_matches_the_sorted_copies_on_each_route(self, case):
        rng = np.random.default_rng(7)
        if case == "unreduced":
            # 2,000 rows on 40 x 12 pairs: each atom arrives as many pairs.
            nums, dens = rng.integers(0, 40, 2000), rng.integers(1, 13, 2000)
        elif case == "float-ties":
            # (j + 1)/j for neighbouring j past 2**26 share doubles: the Fraction order.
            j = rng.integers(2**27, 2**27 + 8, 500)
            nums, dens = 3 * (j + 1), 3 * j
        else:
            nums = np.array([2**64 + 3 * k for k in rng.integers(0, 20, 300).tolist()], dtype=object)
            dens = np.array([2**63 + k for k in rng.integers(0, 5, 300).tolist()], dtype=object)
        weights = rng.random(len(nums))
        got = merge_atoms(nums, dens, weights)
        assert len(got[0]) < len(nums)
        assert_same_merge_bits(got, oracles.merge_atoms_by_sorted_copies(nums, dens, weights))


class TestDifference:
    """``difference``, the merge of the concatenated supports, against
    ``oracles.difference_by_placement``, which places ``b``'s atoms among
    ``a``'s: the same atoms and weights, bit for bit and by dtype."""

    @settings(max_examples=200, deadline=None)
    @given(pool=atom_pool, data=st.data())
    def test_matches_the_placement_on_random_supports(self, pool, data):
        pool = sorted(set(pool))
        a, b = (
            DiscreteMeasure.from_items(zip(points, np.full(len(points), 1.0 / len(points))))
            for points in (
                data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
                for _ in range(2)
            )
        )
        assert_same_bits(difference(a, b), oracles.difference_by_placement(a, b))

    @pytest.mark.parametrize("case", ["float-tie-across", "float-tie-within", "sweep-n6"])
    def test_matches_the_placement_on_each_route(self, case):
        j = 2**27
        if case == "float-tie-across":
            # Distinct atoms of a and b share a double: the placement falls back.
            a = DiscreteMeasure.from_items([(Fraction(j + 1, j), 0.5), (Fraction(3), 0.5)])
            b = DiscreteMeasure.from_items([(Fraction(j + 2, j + 1), 0.5), (Fraction(3), 0.5)])
            assert a.float_support[0] == b.float_support[0]
        elif case == "float-tie-within":
            # Two of a's atoms share a double that no atom of b has.
            ties = [Fraction(j + 2, j + 1), Fraction(j + 1, j)]
            a = DiscreteMeasure.from_items([(ties[0], 0.25), (ties[1], 0.25), (Fraction(2), 0.5)])
            b = DiscreteMeasure.from_items([(Fraction(1), 0.5), (Fraction(2), 0.5)])
        else:
            a, b = (
                estimator_law(joint_law(build(FamilySpec.binary(p)), 6)).law for p in (0.75, 0.74)
            )
        assert_same_bits(difference(a, b), oracles.difference_by_placement(a, b))
        assert_same_bits(difference(b, a), oracles.difference_by_placement(b, a))


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


class TestLeftSum:
    """Sums that feed pinned bytes add one term at a time, left to right from
    the int 0, as CPython 3.11's builtin ``sum`` does on floats."""

    @staticmethod
    def plain(terms):
        total = 0
        for x in terms:
            total += x
        return total

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 2.0**-60]),
            ),
            max_size=30,
        )
    )
    def test_matches_an_explicit_loop_bit_for_bit(self, terms):
        want = self.plain(terms)
        for got in (left_sum(terms), left_sum(iter(terms))):
            assert type(got) is type(want)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_does_not_compensate(self):
        # A compensated sum (the builtin on CPython 3.12) gives 1.0 here.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum([-0.0]) == 0.0 and str(left_sum([-0.0])) == "0.0"

    def test_an_empty_sum_is_the_int_zero(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int
        assert type(left_sum(x for x in ())) is int


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
