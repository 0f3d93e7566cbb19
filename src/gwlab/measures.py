"""Finite discrete measures on the nonnegative rationals.

Atoms sit at exact rational points stored as reduced fractions, so ``2/6``
and ``1/3`` name the same atom and structural equality of two canonical
measures is meaningful.  Mass that is deliberately dropped from the upper
tail during a computation is never renormalized away; it accumulates in
``defect`` so that every downstream quantity can report a rigorous slack.

Truncation policy: when a budget is spent, the largest support points are
removed first and their mass is moved to ``defect``.  Nothing is ever
redistributed over the remaining atoms.

Dense convolutions run on the lattice ``gZ`` that both operands live on
(``g`` the gcd of their nonzero indices), so a law on the even numbers
pays a quarter of the multiplications; the skipped terms are exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidParameter, NonIntegerSupport

__all__ = [
    "DiscreteMeasure",
    "tv_distance",
    "convolve",
    "convolution_power",
    "truncate_tail",
    "coarsen",
    "mean",
]

# Total retained mass plus defect must stay within this window of 1.
MASS_TOL = 1e-9


def _as_fraction(x: object) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    raise InvalidParameter(
        f"support points must be ints or Fractions, got {type(x).__name__}"
    )


@dataclass(frozen=True)
class DiscreteMeasure:
    """A canonical finite measure: sorted rational atoms, positive weights.

    ``sum(weights) + defect`` is within ``MASS_TOL`` of one.  Zero-weight
    atoms are dropped by the constructors, so equality of two instances is
    equality of measures (up to the float weights).
    """

    support: tuple[Fraction, ...]
    weights: tuple[float, ...]
    defect: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(_as_fraction(x) for x in self.support))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "defect", float(self.defect))
        if len(self.support) != len(self.weights):
            raise InvalidParameter("support and weights must have equal length")
        if not self.support:
            raise InvalidParameter("a measure needs at least one atom")
        for x in self.support:
            if x < 0:
                raise InvalidParameter(f"support point {x} is negative")
        for a, b in zip(self.support, self.support[1:]):
            if not a < b:
                raise InvalidParameter("support must be strictly increasing")
        for w in self.weights:
            if w <= 0.0:
                raise InvalidParameter("weights must be strictly positive")
        if self.defect < 0.0:
            raise InvalidParameter("defect must be nonnegative")
        total = float(sum(self.weights)) + self.defect
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidParameter(f"mass {total} is not within {MASS_TOL} of 1")

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
        return cls(tuple(pts), tuple(acc[k] for k in pts), defect)

    @classmethod
    def delta(cls, point: object) -> "DiscreteMeasure":
        return cls((_as_fraction(point),), (1.0,), 0.0)

    @classmethod
    def from_dense(
        cls, weights: np.ndarray, start: int = 0, defect: float = 0.0
    ) -> "DiscreteMeasure":
        """Integer-supported measure from a dense weight array at start, start+1, ..."""
        w = np.asarray(weights, dtype=float)
        idx = np.nonzero(w)[0]
        if idx.size == 0:
            raise InvalidParameter("dense weight array has no mass")
        support = tuple(Fraction(int(i) + start) for i in idx)
        return cls._trusted(support, tuple(float(v) for v in w[idx]), float(defect))

    @classmethod
    def _trusted(
        cls,
        support: tuple[Fraction, ...],
        weights: tuple[float, ...],
        defect: float,
    ) -> "DiscreteMeasure":
        # Fast path for internally produced, already-canonical data.  Skips
        # the O(n) Fraction comparisons of __post_init__ on large supports.
        self = object.__new__(cls)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "defect", defect)
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

        The fractions must already be reduced and strictly increasing; this is
        checked with exact integer cross-multiplication.
        """
        nums = np.asarray(numerators, dtype=np.int64)
        dens = np.asarray(denominators, dtype=np.int64)
        w = np.asarray(weights, dtype=float)
        if np.any(dens <= 0):
            raise InvalidParameter("denominators must be positive")
        if len(nums) > 1:
            left = nums[:-1] * dens[1:]
            right = nums[1:] * dens[:-1]
            if not np.all(left < right):
                raise InvalidParameter("fractions must be strictly increasing")
        keep = w != 0.0
        support = tuple(
            Fraction(int(n), int(d)) for n, d in zip(nums[keep], dens[keep])
        )
        return cls._trusted(support, tuple(float(v) for v in w[keep]), float(defect))

    # -- views -------------------------------------------------------------

    @cached_property
    def weights_array(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)

    @cached_property
    def float_support(self) -> np.ndarray:
        return np.array([float(x) for x in self.support], dtype=float)

    @cached_property
    def total_mass(self) -> float:
        return float(self.weights_array.sum())

    @cached_property
    def is_integer_supported(self) -> bool:
        return all(x.denominator == 1 for x in self.support)

    @cached_property
    def integer_values(self) -> np.ndarray:
        if not self.is_integer_supported:
            raise NonIntegerSupport("measure has fractional atoms")
        return np.array([x.numerator for x in self.support], dtype=np.int64)

    @cached_property
    def _index(self) -> dict[Fraction, int]:
        return {x: i for i, x in enumerate(self.support)}

    def mass_at(self, point: object) -> float:
        i = self._index.get(_as_fraction(point))
        return self.weights[i] if i is not None else 0.0

    def dense_weights(self) -> np.ndarray:
        """Dense weight array over 0..max for an integer-supported measure."""
        vals = self.integer_values
        out = np.zeros(int(vals[-1]) + 1, dtype=float)
        out[vals] = self.weights_array
        return out

    def items(self) -> Iterator[tuple[Fraction, float]]:
        return zip(self.support, self.weights)

    def __len__(self) -> int:
        return len(self.support)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "support": [[x.numerator, x.denominator] for x in self.support],
            "weights": list(self.weights),
            "defect": self.defect,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteMeasure":
        support = tuple(Fraction(int(n), int(d)) for n, d in data["support"])
        return cls(support, tuple(float(w) for w in data["weights"]), float(data.get("defect", 0.0)))


# -- dense helpers shared with the generation engine ------------------------


def _truncate_dense(w: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Drop mass from the top of a dense array, at most ``budget`` in total."""
    dropped = 0.0
    if budget > 0.0 and w.size:
        tail = np.cumsum(w[::-1])
        k = int(np.searchsorted(tail, budget, side="right"))
        if k:
            dropped = float(tail[k - 1])
            w = w[:-k]
    nz = np.nonzero(w)[0]
    if nz.size == 0:
        return w[:0], dropped
    return w[: int(nz[-1]) + 1], dropped


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


def tv_distance(a: DiscreteMeasure, b: DiscreteMeasure) -> tuple[float, float]:
    """Total variation distance between the retained parts, with slack.

    Returns ``(value, slack)`` where ``value = (1/2) * sum_x |a{x} - b{x}|``
    over the union support and ``slack = (defect_a + defect_b) / 2`` bounds
    the contribution the truncated tails could make.
    """
    diff = dict(a.items())
    for x, w in b.items():
        diff[x] = diff.get(x, 0.0) - w
    # Summing in sorted support order makes the result independent of the
    # argument order, so symmetry holds exactly rather than within an ulp.
    value = 0.5 * sum(abs(diff[x]) for x in sorted(diff))
    return value, 0.5 * (a.defect + b.defect)


def convolve(
    a: DiscreteMeasure, b: DiscreteMeasure, budget: float = 0.0
) -> DiscreteMeasure:
    """Distribution of the sum of independent draws from ``a`` and ``b``.

    Both measures must be integer-supported.  The convolution itself is
    exact; afterwards the largest points are truncated so that the mass
    moved to the defect is at most ``budget``.  Input defects add.
    """
    wa = a.dense_weights()
    wb = b.dense_weights()
    out = _convolve_dense(wa, wb, _span(wa), _span(wb))
    out, dropped = _truncate_dense(out, budget)
    return DiscreteMeasure.from_dense(out, defect=a.defect + b.defect + dropped)


def convolution_power(
    a: DiscreteMeasure, k: int, budget: float = 0.0
) -> DiscreteMeasure:
    """k-fold convolution of ``a`` with itself via repeated squaring.

    ``k = 0`` gives the unit mass at zero.  The truncation budget is split
    evenly over the individual convolutions performed.
    """
    if k < 0:
        raise InvalidParameter("convolution power needs k >= 0")
    if k == 0:
        return DiscreteMeasure.delta(0)
    ops = max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)
    per = budget / ops if ops else 0.0
    result: DiscreteMeasure | None = None
    square = a
    while k:
        if k & 1:
            result = square if result is None else convolve(result, square, per)
        k >>= 1
        if k:
            square = convolve(square, square, per)
    assert result is not None
    return result


def truncate_tail(m: DiscreteMeasure, budget: float) -> DiscreteMeasure:
    """Remove the largest atoms whose combined mass fits in ``budget``."""
    if budget <= 0.0:
        return m
    tail = np.cumsum(m.weights_array[::-1])
    k = int(np.searchsorted(tail, budget, side="right"))
    if k == 0:
        return m
    if k == len(m.support):
        raise InvalidParameter("truncation budget would remove every atom")
    dropped = float(tail[k - 1])
    return DiscreteMeasure._trusted(
        m.support[:-k], m.weights[:-k], m.defect + dropped
    )


def coarsen(m: DiscreteMeasure, resolution: Fraction) -> tuple[DiscreteMeasure, float]:
    """Snap atoms to the nearest multiple of ``resolution``, merging mass.

    Returns the coarsened measure and the worst-case displacement of any
    atom (half the resolution), which callers should add to metric slack.
    """
    resolution = _as_fraction(resolution) if not isinstance(resolution, Fraction) else resolution
    if resolution <= 0:
        raise InvalidParameter("resolution must be positive")
    acc: dict[Fraction, float] = {}
    for x, w in m.items():
        snapped = Fraction(round(x / resolution)) * resolution
        acc[snapped] = acc.get(snapped, 0.0) + w
    pts = sorted(acc)
    out = DiscreteMeasure._trusted(
        tuple(pts), tuple(acc[p] for p in pts), m.defect
    )
    return out, float(resolution) / 2.0


def mean(a: DiscreteMeasure) -> float:
    """First moment of the retained mass."""
    return float(np.dot(a.float_support, a.weights_array))
