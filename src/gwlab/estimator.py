"""Exact law of the offspring-mean ratio estimator Z_n / Z_{n-1}.

The estimator takes the value 0 when the previous generation is empty, so
its law is the pushforward of the consecutive-pair law under
``(j, k) -> k/j`` for ``j > 0`` together with the extinction atom at 0.
Ratios are reduced exactly with integer arithmetic before merging, so
``2/6`` and ``1/3`` land on the same atom.  ``deviation_mask`` decides
``|ratio - m| >= eta`` on those atoms exactly, reading a float 0.4 as 2/5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import JointLaw, condition_on_survival
from .errors import InvalidParameter
from .measures import DiscreteMeasure, merge_atoms

__all__ = [
    "EstimatorLaw", "estimator_law", "ratio_law", "exact_fraction", "deviation_mask",
    "consistency_probability",
]


@dataclass(frozen=True)
class EstimatorLaw:
    """Law of Z_n / Z_{n-1}, optionally conditioned on Z_{n-1} > 0."""

    n: int
    z0: int
    conditioned: bool
    law: DiscreteMeasure

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "z0": self.z0,
            "conditioned": self.conditioned,
            "law": self.law.to_json_dict(),
        }


def ratio_law(
    prev: np.ndarray, curr: np.ndarray, probs: np.ndarray, defect: float
) -> DiscreteMeasure:
    """Law of ``curr / prev`` (0 where ``prev`` is 0) with exactly reduced atoms.

    ``probs[i]`` is the mass of the pair ``(prev[i], curr[i])``; pairs whose
    reduced ratios coincide merge into one atom.
    """
    if prev.size == 0:
        raise InvalidParameter("no rows to build an estimator law from")
    alive = prev > 0
    g = np.gcd(curr[alive], prev[alive])
    nums = np.zeros(prev.size, dtype=np.int64)
    dens = np.ones(prev.size, dtype=np.int64)
    nums[alive] = curr[alive] // g
    dens[alive] = prev[alive] // g
    unums, udens, weights, _ = merge_atoms(nums, dens, probs)
    return DiscreteMeasure.from_sorted_arrays(unums, udens, weights, defect)


def estimator_law(joint: JointLaw, conditioned: bool = False) -> EstimatorLaw:
    """Pushforward of a consecutive-pair law under the ratio map."""
    if conditioned:
        joint = condition_on_survival(joint)
    law = ratio_law(joint.prev, joint.curr, joint.probs, joint.defect)
    return EstimatorLaw(n=joint.n, z0=joint.z0, conditioned=conditioned, law=law)


def exact_fraction(value: object) -> Fraction:
    """Ints and Fractions as they are, other numbers as the decimal their float prints as."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if not math.isfinite(float(value)):
        raise InvalidParameter(f"the deviation test needs finite m and eta, got {value}")
    return Fraction(repr(float(value)))


def deviation_mask(
    nums: np.ndarray, dens: np.ndarray, m: object, eta: object
) -> np.ndarray:
    """Exact ``|nums/dens - m| >= eta`` per entry, for positive ``dens``.

    With ``m = a/b`` and ``eta = c/e``, both read by ``exact_fraction``, the
    test is the integer inequality ``|n*b - a*d| * e >= c * d * b``.  It runs
    in int64 when Python-int bounds on the largest entries show no product
    can overflow, and on object arrays of Python ints otherwise.
    """
    m, eta = exact_fraction(m), exact_fraction(eta)
    if eta <= 0:
        raise InvalidParameter("deviation threshold eta must be positive")
    a, b, c, e = m.numerator, m.denominator, eta.numerator, eta.denominator
    top_n = int(np.abs(nums).max(initial=0))
    top_d = int(dens.max(initial=0))
    if max(((top_n + 1) * b + abs(a) * (top_d + 1)) * e, c * (top_d + 1) * b) >= 2**63:
        nums, dens = nums.astype(object), dens.astype(object)
    return np.abs(nums * b - a * dens) * e >= c * dens * b


def consistency_probability(
    e: EstimatorLaw, m: object, eta: object
) -> tuple[float, float]:
    """Mass the estimator law puts at distance >= eta from m, with slack.

    Atoms are classified exactly by ``deviation_mask`` on the law's integer
    arrays, so boundary atoms (deviation exactly eta) count as deviating;
    the selected weights are added one by one in support order.
    """
    law = e.law
    far = law.weights_array[deviation_mask(law.nums, law.dens, m, eta)]
    return (float(np.cumsum(far)[-1]) if far.size else 0.0), law.defect
