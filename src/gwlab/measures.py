"""Finite discrete measures on the nonnegative rationals.

A measure stores its atoms as two parallel arrays, reduced numerators
``nums`` and positive denominators ``dens``, sorted by value, next to the
float array ``weights_array``.  The integer arrays are ``int64``, or object
arrays of Python ints when a value does not fit.  ``2/6`` and ``1/3`` are
the same atom, so equality of two canonical measures is meaningful.  The
``Fraction`` tuple ``support``, the tuple ``weights``, ``items()`` and the
JSON form are views for callers, built on first use; ``merge_atoms`` merges
atoms on the arrays alone.  Mass that is deliberately dropped from the
upper tail during a computation is never renormalized away; it accumulates
in ``defect`` so that every downstream quantity can report a rigorous slack.

Measures do not convolve or truncate themselves: the generation engine
does both on dense arrays with the helpers here.  Truncation removes the
largest support points first and moves their mass to the defect; nothing
is ever redistributed over the remaining atoms.  Convolutions run on the
lattice ``gZ`` that both operands live on (``g`` the gcd of their nonzero
indices), so a law on the even numbers pays a quarter of the
multiplications; the skipped terms are exact zeros.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidParameter, NonIntegerSupport, json_field

__all__ = [
    "DiscreteMeasure", "merge_atoms", "group_pairs", "difference", "tv_distance", "mean",
]

# Tolerance of the mass check: sum(weights) <= 1 <= sum(weights) + defect.
MASS_TOL = 1e-9


def _as_fraction(x: object) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    raise InvalidParameter(
        f"support points must be ints or Fractions, got {type(x).__name__}"
    )


def _parse_point(entry: object) -> Fraction:
    try:
        num, den = entry
        return Fraction(int(num), int(den))
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidParameter(
            f"support entry {entry!r} is not a [numerator, denominator] pair of ints"
        ) from None


def _float_values(nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """``float(Fraction(n, d))`` per atom: numpy's quotient is correctly rounded
    while both operands are exact doubles, Python's int division past that."""
    if max(int(np.abs(nums).max(initial=0)), int(dens.max(initial=0))) < 2**53:
        return nums.astype(float) / dens.astype(float)
    return np.array([n / d for n, d in zip(nums.tolist(), dens.tolist())], dtype=float)


def _check_order(nums: np.ndarray, dens: np.ndarray) -> None:
    """Strict increase of ``nums / dens`` (``dens`` positive) by exact cross-
    multiplication, on Python ints where an int64 product could wrap."""
    if len(nums) > 1:
        big = int(np.abs(nums).max()) * int(dens.max()) >= 2**63
        a, b = (nums.astype(object), dens.astype(object)) if big else (nums, dens)
        if not np.all(a[:-1] * b[1:] < a[1:] * b[:-1]):
            raise InvalidParameter("support must be strictly increasing")


def _check_mass(nums: np.ndarray, w: np.ndarray, defect: float) -> None:
    """The rest of the class invariant on increasing atoms, in one vectorized pass."""
    if not (np.isfinite(w).all() and math.isfinite(defect)):
        raise InvalidParameter("weights and defect must be finite")
    if np.any(w <= 0.0) or defect < 0.0:
        raise InvalidParameter("weights must be positive and the defect nonnegative")
    if len(nums) != len(w):
        raise InvalidParameter("support and weights must have equal length")
    if not len(nums):
        raise InvalidParameter("a measure needs at least one atom")
    if nums[0] < 0:
        raise InvalidParameter("support points must be nonnegative")
    total = float(w.sum())
    if not total - MASS_TOL <= 1.0 <= total + defect + MASS_TOL:
        raise InvalidParameter(f"need weight sum {total} <= 1 <= sum + defect {defect}")


class DiscreteMeasure:
    """A canonical finite measure: sorted rational atoms, positive weights.

    Atom ``i`` is ``nums[i] / dens[i]`` in lowest terms with mass
    ``weights_array[i] > 0``; the atoms are nonnegative and strictly
    increase.  Up to ``MASS_TOL``, ``sum(weights) <= 1 <= sum(weights) +
    defect``: the defect bounds the mass the atoms do not carry, and may
    overstate it (the engine adds the defects of convolved powers).  Every
    constructor checks this, and all but ``__init__`` drop zero weights,
    so equality of two instances is equality of measures (up to the float
    weights).  ``support`` and ``weights`` are tuple views cached on first
    access.
    """

    def __init__(
        self, support: Iterable[object], weights: Iterable[float], defect: float = 0.0
    ) -> None:
        pts = [_as_fraction(x) for x in support]
        ints = [x.numerator for x in pts] + [x.denominator for x in pts]
        small = max(map(abs, ints), default=0) < 2**63
        ints = np.array(ints, dtype=np.int64 if small else object)
        nums, dens = ints[: len(pts)], ints[len(pts):]
        w, defect = np.array([float(v) for v in weights], dtype=float), float(defect)
        _check_order(nums, dens)
        _check_mass(nums, w, defect)
        self.nums, self.dens, self.weights_array, self.defect = nums, dens, w, defect

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_items(
        cls, items: Iterable[tuple[object, float]], defect: float = 0.0
    ) -> "DiscreteMeasure":
        """Build from (point, weight) pairs; equal points merge, zeros drop."""
        acc: dict[Fraction, float] = {}
        for x, w in items:
            key = _as_fraction(x)
            acc[key] = acc.get(key, 0.0) + float(w)
        pts = sorted(k for k, w in acc.items() if w != 0.0)
        return cls(pts, [acc[k] for k in pts], defect)

    @classmethod
    def from_dense(
        cls, weights: np.ndarray, start: int = 0, defect: float = 0.0
    ) -> "DiscreteMeasure":
        """Integer-supported measure from a dense weight array at start, start+1, ..."""
        w = np.asarray(weights, dtype=float)
        idx = np.flatnonzero(w)
        return cls.from_sorted_arrays(idx + start, np.ones_like(idx), w[idx], defect)

    @classmethod
    def _trusted(
        cls, nums: np.ndarray, dens: np.ndarray, weights: np.ndarray, defect: float
    ) -> "DiscreteMeasure":
        # Fast path for internally produced, already-canonical arrays.
        self = object.__new__(cls)
        self.nums, self.dens = nums, dens
        self.weights_array, self.defect = weights, float(defect)
        return self

    @classmethod
    def from_sorted_arrays(
        cls,
        numerators: np.ndarray,
        denominators: np.ndarray,
        weights: np.ndarray,
        defect: float = 0.0,
    ) -> "DiscreteMeasure":
        """Build from parallel arrays of reduced fractions sorted by value.

        The arrays must strictly increase; zero weights are then dropped, and
        the rest of the class invariant is checked.  Lowest terms are the
        caller's promise.  As in ``__init__``, integers past int64 are kept
        in object arrays.
        """
        try:
            nums, dens = (np.asarray(a, dtype=np.int64) for a in (numerators, denominators))
        except OverflowError:
            nums, dens = (np.asarray(a, dtype=object) for a in (numerators, denominators))
        w = np.asarray(weights, dtype=float)
        if not len(nums) == len(dens) == len(w) or np.any(dens <= 0):
            raise InvalidParameter("need equal-length arrays and positive denominators")
        _check_order(nums, dens)
        keep = w != 0.0
        nums, dens, w = nums[keep], dens[keep], w[keep]
        _check_mass(nums, w, float(defect))
        return cls._trusted(nums, dens, w, defect)

    # -- views -------------------------------------------------------------

    @cached_property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.nums.tolist(), self.dens.tolist()))

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.weights_array.tolist())

    @cached_property
    def float_support(self) -> np.ndarray:
        return _float_values(self.nums, self.dens)

    @cached_property
    def total_mass(self) -> float:
        return float(self.weights_array.sum())

    @cached_property
    def is_integer_supported(self) -> bool:
        return bool(np.all(self.dens == 1))

    @cached_property
    def integer_values(self) -> np.ndarray:
        if not self.is_integer_supported:
            raise NonIntegerSupport("measure has fractional atoms")
        return self.nums.astype(np.int64)

    def mass_at(self, point: object) -> float:
        x = _as_fraction(point)
        hit = np.flatnonzero((self.nums == x.numerator) & (self.dens == x.denominator))
        return float(self.weights_array[hit[0]]) if hit.size else 0.0

    def dense_weights(self) -> np.ndarray:
        """Dense weight array over 0..max for an integer-supported measure."""
        vals = self.integer_values
        out = np.zeros(int(vals[-1]) + 1, dtype=float)
        out[vals] = self.weights_array
        return out

    def items(self) -> Iterator[tuple[Fraction, float]]:
        return zip(self.support, self.weights)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.defect == other.defect and all(
            np.array_equal(x, y) for x, y in zip(self._arrays(), other._arrays())
        )

    def __hash__(self) -> int:
        return hash((self.defect, *(tuple(a.tolist()) for a in self._arrays())))

    def __reduce__(self):
        # Pickle the arrays only, not the cached views.
        return type(self)._trusted, (*self._arrays(), self.defect)

    def __repr__(self) -> str:
        return f"DiscreteMeasure({self.support!r}, {self.weights!r}, {self.defect!r})"

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.nums, self.dens, self.weights_array

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "support": [[n, d] for n, d in zip(self.nums.tolist(), self.dens.tolist())],
            "weights": self.weights_array.tolist(),
            "defect": self.defect,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteMeasure":
        weights = json_field(data, "weights", lambda ws: [float(w) for w in ws])
        defect = json_field(data, "defect", float, 0.0)
        support = json_field(data, "support", lambda xs: [_parse_point(x) for x in xs])
        return cls(support, weights, defect)


# -- dense helpers of the generation engine ---------------------------------


def _truncate_dense(w: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Drop mass from the top of a dense array, at most ``budget`` in total."""
    dropped = 0.0
    if budget > 0.0 and w.size:
        tail = np.cumsum(w[::-1])
        k = int(np.searchsorted(tail, budget, side="right"))
        if k:
            dropped = float(tail[k - 1])
            w = w[:-k]
    return _trim_back(w), dropped


def _trim_back(w: np.ndarray) -> np.ndarray:
    """``w`` without its trailing zeros; empty when ``w`` is all zeros.

    Same view as ``np.trim_zeros(w, "b")``, found by one ``argmax`` from
    the end rather than by listing every nonzero index.
    """
    nonzero = w[::-1] != 0
    if not nonzero.any():
        return w[:0]
    return w[: w.size - int(nonzero.argmax())]


def _span(w: np.ndarray) -> int:
    """gcd of the nonzero indices of ``w``; 0 when only index 0 carries mass."""
    return int(np.gcd.reduce(np.flatnonzero(w)))


def _convolve_dense(a: np.ndarray, b: np.ndarray, ga: int, gb: int) -> np.ndarray:
    """``np.convolve(a, b)`` computed as ``a[::g] * b[::g]`` at stride ``g``.

    ``ga`` and ``gb`` are the operands' ``_span`` values, and ``g`` is their
    gcd.  Lengths and zero patterns match ``np.convolve``; values may differ
    in the last bits, since the sums skip the zero terms.
    """
    if a.size == 0 or b.size == 0:
        return np.zeros(0, dtype=float)
    g = math.gcd(ga, gb)
    if g <= 1:
        return np.convolve(a, b)
    out = np.zeros(a.size + b.size - 1, dtype=float)
    sub = np.convolve(a[::g], b[::g])
    out[: sub.size * g : g] = sub
    return out


# -- operations --------------------------------------------------------------


def merge_atoms(
    nums: np.ndarray, dens: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Merge repeated atoms ``nums / dens`` (reduced, ``dens`` positive).

    Returns the distinct atoms' ``nums`` and ``dens`` in increasing order,
    each atom's weight summed in input order (as ``np.bincount`` adds), and
    every input's atom index.  Atoms are ordered by float value; only when
    two distinct atoms share a float are they ordered as ``Fraction``s.
    """
    values = _float_values(nums, dens)
    order = np.argsort(values, kind="stable")
    sn, sd = nums[order], dens[order]
    same = (sn[1:] == sn[:-1]) & (sd[1:] == sd[:-1])
    if (~same & (np.diff(values[order]) == 0.0)).any():
        exact = list(map(Fraction, nums.tolist(), dens.tolist()))
        order = np.array(sorted(range(len(exact)), key=exact.__getitem__), dtype=np.intp)
        sn, sd = nums[order], dens[order]
        same = (sn[1:] == sn[:-1]) & (sd[1:] == sd[:-1])
    first = np.concatenate([[True], ~same])[: len(sn)]
    index = np.empty(len(sn), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return sn[first], sd[first], np.bincount(index, weights=weights), index


def group_pairs(
    prev: np.ndarray, curr: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the ``weights`` (a count of one per row if None) of equal integer
    (prev, curr) pairs, returned in pair order.

    Each pair is packed into one int64 key ``prev * pack + curr`` with
    ``pack > max(curr)``, so sorted keys hold each pair as one run, in pair
    order.  A column whose values would push the key past int64 is replaced
    by its ranks among its distinct values first, which keeps the order and
    bounds the key by the number of rows.
    """
    if prev.size == 0:
        return prev, curr, np.zeros(0, dtype=np.int64)
    prev_vals = curr_vals = None
    if (int(prev.max()) + 1) * (int(curr.max()) + 1) > 2**63:
        prev_vals, prev = np.unique(prev, return_inverse=True)
    if (int(prev.max()) + 1) * (int(curr.max()) + 1) > 2**63:
        curr_vals, curr = np.unique(curr, return_inverse=True)
    pack = np.int64(curr.max()) + 1
    keys = prev * pack + curr
    order = None if weights is None else np.argsort(keys)
    keys = np.sort(keys) if order is None else keys[order]
    cut = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
    sums = np.diff(cut) if order is None else np.add.reduceat(weights[order], cut[:-1])
    prev, curr = np.divmod(keys[cut[:-1]], pack)
    if prev_vals is not None:
        prev = prev_vals[prev]
    if curr_vals is not None:
        curr = curr_vals[curr]
    return prev, curr, sums


def difference(a: DiscreteMeasure, b: DiscreteMeasure) -> tuple[np.ndarray, ...]:
    """The union support of ``a`` and ``b`` as ``nums``, ``dens``, with ``a{x} - b{x}``."""
    negated = (b.nums, b.dens, -b.weights_array)
    return merge_atoms(*map(np.concatenate, zip(a._arrays(), negated)))[:3]


def tv_distance(a: DiscreteMeasure, b: DiscreteMeasure) -> tuple[float, float]:
    """Total variation distance between the retained parts, with slack.

    Returns ``(value, slack)`` where ``value = (1/2) * sum_x |a{x} - b{x}|``
    over the union support and ``slack = (defect_a + defect_b) / 2`` bounds
    the contribution the truncated tails could make.
    """
    # Summing in support order makes the result independent of the
    # argument order, so symmetry holds exactly rather than within an ulp.
    value = 0.5 * sum(np.abs(difference(a, b)[2]).tolist())
    return value, 0.5 * (a.defect + b.defect)


def mean(a: DiscreteMeasure) -> float:
    """First moment of the retained mass."""
    return float(np.dot(a.float_support, a.weights_array))
