"""Offspring laws for branching processes.

An offspring law wraps an integer-supported :class:`DiscreteMeasure` together
with its mean and, for truncated families, an analytic bound on the first
moment carried by the discarded tail.  On top of it live the generating
function, the extinction probability solver, and the two conditional
transforms (conditioning the whole process on survival or on extinction).

Special functions come from ``math`` alone: ``log k!`` and ``k log y`` bit for
bit as ``scipy.special``'s ``gammaln`` and ``xlogy``, and the polynomial family's
normalizer ``1 / zeta(p)`` from an Euler-Maclaurin sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from . import measures
from .errors import (
    BudgetExceeded,
    InvalidParameter,
    SolverDidNotConverge,
    SupercriticalRequired,
    json_field,
    json_float,
    json_int,
)
from .measures import DiscreteMeasure

__all__ = [
    "FamilySpec",
    "OffspringLaw",
    "TailBound",
    "ExtinctionResult",
    "build",
    "pgf",
    "pgf_derivative",
    "criticality",
    "extinction_probability",
    "iterate_pgf_at_zero",
    "survival_transform",
    "extinction_transform",
    "psi1_tail",
]

DEFAULT_TAIL_BUDGET = 1e-12

# Mean within this distance of 1 cannot be classified reliably in floats.
CRITICAL_DEAD_ZONE = 1e-9

# Refuse to materialize truncated families beyond this many atoms, whether
# the truncation is derived or given.
MAX_DERIVED_TRUNCATION = 2_000_000

# Most binomial terms (the sum of the atoms) one survival transform may sum:
# polynomial(2.4) cut at 8,944 sums 40,002,040 in 0.75-0.91 s (2-core Xeon).
_SURVIVAL_WORK_CAP = 4 * 10**7

# Each family's parameters, as ``FamilySpec`` fields, and its label format.
# A parameter's CLI flag and JSON key carry its field name, except that
# ``lam`` is ``"lambda"`` in JSON.  ``truncation`` applies to the families
# in ``TRUNCATED`` only; ``raw`` labels show their largest count, ``top``.
FAMILIES = {
    "binary": (("p",), "binary(p={p:g})"),
    "three_point": (("p0", "p2", "p3"), "three_point({p0:g},{p2:g},{p3:g})"),
    "poisson": (("lam",), "poisson(lam={lam:g})"),
    "polynomial": (("p",), "polynomial(p={p:g})"),
    "raw": (("weights",), "raw(top={top})"),
}
TRUNCATED = ("poisson", "polynomial")
JSON_NAMES = {"lam": "lambda"}


@dataclass(frozen=True)
class FamilySpec:
    """Parametric description of an offspring law.

    Exactly one of the five families; unused parameters stay ``None``.
    ``truncation`` fixes the largest retained offspring count for the two
    infinite families, and only for them; when omitted it is derived from
    the build budget.
    """

    family: str
    p: float | None = None
    p0: float | None = None
    p2: float | None = None
    p3: float | None = None
    lam: float | None = None
    truncation: int | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}")
        # Each given field is converted as from JSON, as ``ExperimentSpec``'s are.
        convert = {"weights": lambda ws: tuple(map(json_float, ws)), "truncation": json_int}
        for name in (f.name for f in fields(self)[1:] if getattr(self, f.name) is not None):
            value = json_field(vars(self), name, convert.get(name, json_float))
            object.__setattr__(self, name, value)
        params = (self.p, self.p0, self.p2, self.p3, self.lam, *(self.weights or ()))
        if not all(math.isfinite(v) for v in params if v is not None):
            raise InvalidParameter(f"{self.family} family parameters must be finite")
        if self.family == "binary":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise InvalidParameter("binary family needs p in [0, 1]")
        elif self.family == "three_point":
            probs = (self.p0, self.p2, self.p3)
            if any(q is None or q < 0.0 for q in probs):
                raise InvalidParameter("three_point family needs p0, p2, p3 >= 0")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise InvalidParameter("three_point probabilities must sum to 1")
        elif self.family == "poisson":
            if self.lam is None or self.lam <= 0.0:
                raise InvalidParameter("poisson family needs lam > 0")
        elif self.family == "polynomial":
            if self.p is None or self.p <= 2.0:
                raise InvalidParameter(
                    "polynomial exponent must exceed 2 (mean does not exist)"
                )
        elif self.family == "raw":
            if not self.weights:
                raise InvalidParameter("raw family needs a weight list")
            if any(w < 0.0 for w in self.weights):
                raise InvalidParameter("raw weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise InvalidParameter("raw weights must sum to 1")
        if self.truncation is not None and (self.truncation < 1 or self.family not in TRUNCATED):
            raise InvalidParameter("truncation is a positive integer for poisson or polynomial")
        if (self.truncation or 0) > MAX_DERIVED_TRUNCATION:
            raise InvalidParameter(f"truncation {self.truncation} is past "
                                   f"MAX_DERIVED_TRUNCATION = {MAX_DERIVED_TRUNCATION}")

    # Convenience constructors -------------------------------------------

    @classmethod
    def binary(cls, p: float) -> "FamilySpec":
        return cls("binary", p=p)

    @classmethod
    def three_point(cls, p0: float, p2: float, p3: float) -> "FamilySpec":
        return cls("three_point", p0=p0, p2=p2, p3=p3)

    @classmethod
    def poisson(cls, lam: float, truncation: int | None = None) -> "FamilySpec":
        return cls("poisson", lam=lam, truncation=truncation)

    @classmethod
    def polynomial(cls, p: float, truncation: int | None = None) -> "FamilySpec":
        return cls("polynomial", p=p, truncation=truncation)

    @classmethod
    def raw(cls, weights: Sequence[float]) -> "FamilySpec":
        return cls("raw", weights=weights)

    @property
    def params(self) -> dict:
        """The family's parameters by field name, in ``FAMILIES`` order."""
        return {name: getattr(self, name) for name in FAMILIES[self.family][0]}

    @property
    def label(self) -> str:
        """Short table name, e.g. ``binary(p=0.75)`` or ``raw(top=2)``."""
        top = len(self.weights or ()) - 1
        return FAMILIES[self.family][1].format(**self.params, top=top)

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family}
        for name, value in self.params.items():
            out[JSON_NAMES.get(name, name)] = list(value) if name == "weights" else value
        if self.truncation is not None:
            out["truncation"] = self.truncation
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "FamilySpec":
        # Fields pass as read; ``__post_init__`` converts and checks them.
        read, same = partial(json_field, data), (lambda value: value)
        family = read("family", str)
        if family not in FAMILIES:
            raise InvalidParameter(f"unknown family {family!r}")
        params = {"truncation": read("truncation", same, None)} if family in TRUNCATED else {}
        for name in FAMILIES[family][0]:
            params[name] = read(JSON_NAMES.get(name, name), same)
        return cls(family, **params)


@dataclass(frozen=True)
class TailBound:
    """Analytic upper bound on ``sum_{k >= ell} k * mu{k}`` beyond a truncation.

    The retained part of the first-moment tail is always computed exactly
    from the atoms; this object only accounts for offspring counts above the
    truncation point ``cutoff`` that the finite measure cannot see.
    """

    kind: str  # "poisson" or "polynomial"
    cutoff: int
    lam: float | None = None
    exponent: float | None = None
    normalizer: float | None = None

    def __call__(self, ell: int) -> float:
        j = max(int(ell), self.cutoff + 1)
        if self.kind == "poisson":
            return self.lam * _poisson_upper_tail(self.lam, j - 1)
        if self.kind == "polynomial":
            # sum_{k >= j} k (k+1)^-p  <=  integral bound j^(2-p) / (p-2)
            return self.normalizer * j ** (2.0 - self.exponent) / (self.exponent - 2.0)
        raise InvalidParameter(f"unknown tail bound kind {self.kind!r}")

    def approx(self, ells: np.ndarray) -> np.ndarray:
        """``self(ell)`` for each of ``ells`` up to rounding, from numpy's
        ``exp``, ``log`` and power in place of ``math``'s."""
        j = np.maximum(ells, self.cutoff + 1).astype(float)
        if self.kind == "poisson":
            # The Chernoff exponent is 0 at ``lam``, where the scalar bound is 1.
            k = np.maximum(j - 1.0, self.lam)
            return self.lam * np.exp(k - self.lam - k * np.log(k / self.lam))
        if self.kind == "polynomial":
            return self.normalizer * j ** (2.0 - self.exponent) / (self.exponent - 2.0)
        raise InvalidParameter(f"unknown tail bound kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "cutoff": self.cutoff}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.exponent is not None:
            out["exponent"] = self.exponent
        if self.normalizer is not None:
            out["normalizer"] = self.normalizer
        return out


def _poisson_upper_tail(lam: float, j: int) -> float:
    """Chernoff bound on P[Poisson(lam) >= j], valid and < 1 for j > lam."""
    if j <= lam:
        return 1.0
    return math.exp(j - lam - j * math.log(j / lam))


@dataclass(frozen=True)
class OffspringLaw:
    """An integer offspring distribution with bookkeeping for truncation."""

    measure: DiscreteMeasure
    mean_m: float
    tail_bound: TailBound | None = None
    family: FamilySpec | None = None

    def __post_init__(self) -> None:
        if not self.measure.is_integer_supported:
            raise InvalidParameter("offspring laws need integer support")

    @cached_property
    def counts(self) -> np.ndarray:
        return self.measure.integer_values

    @cached_property
    def probs(self) -> np.ndarray:
        return self.measure.weights_array


def check_budget(budget: float) -> None:
    if not (math.isfinite(budget) and budget >= 0.0):
        raise InvalidParameter("tail budget must be finite and nonnegative")


def build(spec: FamilySpec, budget: float = DEFAULT_TAIL_BUDGET) -> OffspringLaw:
    """Materialize a family member.

    For the two infinite families the truncation point is taken from the
    spec when given; otherwise the smallest cutoff whose first-moment tail
    bound is at most ``budget`` is derived.  The mass beyond the cutoff goes
    into the measure defect.
    """
    check_budget(budget)
    if spec.family == "poisson":
        return _build_poisson(spec, budget)
    if spec.family == "polynomial":
        return _build_polynomial(spec, budget)
    if spec.family == "binary":
        w = [1.0 - spec.p, 0.0, spec.p]
    elif spec.family == "three_point":
        w = [spec.p0, 0.0, spec.p2, spec.p3]
    else:
        w = spec.weights
    m = DiscreteMeasure.from_dense(w)
    return OffspringLaw(m, measures.mean(m), family=spec)


def _truncated_law(spec: FamilySpec, w: np.ndarray, bound: TailBound) -> OffspringLaw:
    """The law of dense weights ``w``, the mass they miss as its defect."""
    m = DiscreteMeasure.from_dense(w, defect=max(0.0, 1.0 - float(w.sum())))
    return OffspringLaw(m, measures.mean(m), tail_bound=bound, family=spec)


def _log_factorial(ks: np.ndarray) -> np.ndarray:
    """``scipy.special.gammaln(ks + 1)`` for integers ``ks >= 0``, bit for bit:
    Cephes ``lgam`` (Moshier 1989) at ``x = k + 1``, the log of ``k!`` (exact in
    a double) below 13 and Stirling's series with Cephes' ``A`` from 13 on.  The
    logarithms are libm's, as in Cephes: numpy's ``log`` may differ in the last bit.
    """
    x = np.asarray(ks, dtype=float) + 1.0
    log_x = np.fromiter(map(math.log, x.tolist()), float, x.size)
    r, series = 1.0 / (x * x), 0.0
    for a in (8.11614167470508450300e-4, -5.95061904284301438324e-4,
              7.93650340457716943945e-4, -2.77777777730099687205e-3, 8.33333333333331927722e-2):
        series = series * r + a
    stirling = (x - 0.5) * log_x - x + 0.91893853320467274178 + series / x
    exact = np.array([math.log(math.factorial(k)) for k in range(12)])
    return np.where(x < 13, exact[np.minimum(ks, 11)], stirling)


def _build_poisson(spec: FamilySpec, budget: float) -> OffspringLaw:
    lam = float(spec.lam)
    if spec.truncation is not None:
        cutoff = spec.truncation
    else:
        cutoff = max(int(math.ceil(lam)) + 1, 2)
        while cutoff <= MAX_DERIVED_TRUNCATION and lam * _poisson_upper_tail(lam, cutoff) > budget:
            cutoff += 1
        if cutoff > MAX_DERIVED_TRUNCATION:
            raise InvalidParameter("poisson tail budget unattainable")
    ks = np.arange(cutoff + 1)
    w = np.exp(np.where(ks == 0, 0.0, ks * math.log(lam)) - _log_factorial(ks) - lam)
    return _truncated_law(spec, w, TailBound("poisson", cutoff, lam=lam))


def _zeta(p: float) -> float:
    """Riemann zeta at ``p > 2``: Euler-Maclaurin at N = 10 with ``B_2 .. B_24``."""
    n, t = 10, 10.0 ** (1.0 - p) / (p - 1.0)  # the integral term, the first t
    terms = [k ** -p for k in range(1, n)] + [t, n ** -p / 2.0]
    for j, (b, d) in enumerate(((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
            (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730)), 1):
        # t = p (p+1) ... (p+2j-2) N^(-p-2j+1) grows one factor at a time, so at a
        # huge p it stays 0 rather than 0 * inf, and zeta is 1.
        t = t * ((p + 2 * j - 3) / n) * ((p + 2 * j - 2) / n)
        terms.append(b / (d * math.factorial(2 * j)) * t)  # B_2j = b / d
    return math.fsum(terms)


def _build_polynomial(spec: FamilySpec, budget: float) -> OffspringLaw:
    p = float(spec.p)
    c = 1.0 / _zeta(p)
    if spec.truncation is not None:
        cutoff = spec.truncation
    else:
        # Need c * (K+1)^(2-p) / (p-2) <= budget.
        try:
            k_real = (budget * (p - 2.0) / c) ** (1.0 / (2.0 - p))
        except (ZeroDivisionError, OverflowError):  # a zero or tiny budget, or p near 2
            k_real = math.inf
        if not math.isfinite(k_real) or k_real > MAX_DERIVED_TRUNCATION:
            raise InvalidParameter(
                "polynomial tail budget needs about "
                f"{k_real:.3g} atoms; pass an explicit truncation instead"
            )
        cutoff = max(int(math.ceil(k_real)), 2)
    ks = np.arange(cutoff + 1, dtype=float)
    w = c * (ks + 1.0) ** (-p)
    return _truncated_law(spec, w, TailBound("polynomial", cutoff, exponent=p, normalizer=c))


# -- generating function ------------------------------------------------------


def pgf(law: OffspringLaw, s: float) -> float:
    """Probability generating function of the retained mass at ``s``."""
    if not 0.0 <= s <= 1.0:
        raise InvalidParameter("pgf argument must lie in [0, 1]")
    return float(np.dot(law.probs, np.power(s, law.counts)))


def pgf_derivative(law: OffspringLaw, s: float) -> float:
    if not 0.0 <= s <= 1.0:
        raise InvalidParameter("pgf argument must lie in [0, 1]")
    ks = law.counts
    pos = ks >= 1
    return float(np.dot(ks[pos] * law.probs[pos], np.power(s, ks[pos] - 1)))


def criticality(law: OffspringLaw) -> str:
    """Classify the law as supercritical, subcritical, or numerically critical.

    Means within ``CRITICAL_DEAD_ZONE`` of one cannot be told apart from the
    critical case in double precision, so they are reported as critical and
    rejected by operations that need a strict side.
    """
    if abs(law.mean_m - 1.0) <= CRITICAL_DEAD_ZONE:
        return "critical"
    return "supercritical" if law.mean_m > 1.0 else "subcritical"


@dataclass(frozen=True)
class ExtinctionResult:
    """Extinction probability together with solver diagnostics."""

    value: float
    supercritical: bool
    residual: float
    iterations: int


def extinction_probability(law: OffspringLaw) -> ExtinctionResult:
    """Smallest fixed point of the generating function on [0, 1].

    Supercritical laws get the unique root in [0, 1) via bisection to a
    coarse bracket followed by Newton refinement; the residual |f(q) - q|
    is verified to be at most 1e-13.  Non-supercritical laws extinguish
    almost surely and return 1 with the flag cleared.
    """
    if criticality(law) != "supercritical":
        return ExtinctionResult(1.0, False, 0.0, 0)
    if law.measure.mass_at(0) == 0.0:
        return ExtinctionResult(0.0, True, 0.0, 0)

    def g(s: float) -> float:
        return pgf(law, s) - s

    def bisect(lo: float, hi: float, width: float) -> tuple[float, float]:
        nonlocal iterations
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            iterations += 1
            if mid in (lo, hi):  # adjacent doubles: nothing lies between
                break
            lo, hi = (mid, hi) if g(mid) >= 0.0 else (lo, mid)
        return lo, hi

    # Find an upper bracket strictly above the root: g < 0 between q and 1.
    eta = 1e-3
    hi = 1.0 - eta
    while g(hi) >= 0.0:
        eta /= 8.0
        hi = 1.0 - eta
        if eta < 1e-12:
            raise SolverDidNotConverge(
                "could not bracket the extinction probability below 1"
            )
    iterations = 0
    lo, hi = bisect(0.0, hi, 1e-6)
    q = 0.5 * (lo + hi)
    for _ in range(50):
        iterations += 1
        slope = pgf_derivative(law, q) - 1.0
        if slope == 0.0:
            break
        step = g(q) / slope
        candidate = q - step
        if not lo - 1e-9 <= candidate <= hi + 1e-9:
            break
        q = min(max(candidate, 0.0), 1.0)
        if abs(step) < 1e-16:
            break
    residual = abs(g(q))
    if residual > 1e-13:
        # Newton stalled; fall back to bisection at full precision.
        lo, hi = bisect(lo, hi, 5e-17)
        q = 0.5 * (lo + hi)
        residual = abs(g(q))
        if residual > 1e-13:
            raise SolverDidNotConverge(
                f"extinction residual {residual:.3e} above 1e-13"
            )
    return ExtinctionResult(float(q), True, float(residual), iterations)


def iterate_pgf_at_zero(law: OffspringLaw, n: int) -> float:
    """n-fold iterate of the generating function at 0.

    This is the probability of extinction by generation ``n`` for a single
    ancestor, and converges to the extinction probability from below; it
    serves as an independent cross-check on the fixed-point solver.
    """
    if n < 0:
        raise InvalidParameter("iteration count must be nonnegative")
    s = 0.0
    for _ in range(n):
        s = pgf(law, s)
    return s


# -- conditional transforms ---------------------------------------------------


def survival_transform(law: OffspringLaw) -> OffspringLaw:
    """Offspring law of the process conditioned to survive forever.

    Realized by binomial thinning: each child survives independently with
    probability ``1 - q``, and the surviving count is conditioned to be
    positive at the root.  The result has no mass at zero, mass ``f'(q)``
    at one, and extinction probability zero.
    """
    if criticality(law) != "supercritical":
        raise SupercriticalRequired("survival transform needs a supercritical law")
    q = extinction_probability(law).value
    if q == 0.0:
        return OffspringLaw(law.measure, law.mean_m, tail_bound=law.tail_bound)
    ks, ws = law.counts, law.probs
    if (work := int(ks.sum())) > _SURVIVAL_WORK_CAP:
        raise BudgetExceeded(f"{work} survival transform terms exceed _SURVIVAL_WORK_CAP", step=0)
    out = np.zeros(int(ks[-1]) + 1, dtype=float)
    log_fact = _log_factorial(np.arange(len(out)))
    for k, w in zip(ks.tolist(), ws.tolist()):
        js = np.arange(1, k + 1)
        # Binomial(k, 1 - q) pmf at js, in log space.
        log_pmf = (
            log_fact[k] - log_fact[js] - log_fact[k - js]
            + js * math.log(1.0 - q) + np.where(js == k, 0.0, (k - js) * math.log(q))
        )
        out[1 : k + 1] += w * np.exp(log_pmf)
    out /= 1.0 - q
    m = DiscreteMeasure.from_dense(out, defect=law.measure.defect / (1.0 - q))
    return OffspringLaw(m, measures.mean(m))


def extinction_transform(law: OffspringLaw) -> OffspringLaw:
    """Offspring law of the process conditioned to die out.

    Atom ``k`` is reweighted by ``q**(k-1)``, giving mean ``f'(q)``.  A
    supercritical law becomes strictly subcritical; when extinction is
    already sure the conditioning changes nothing.  Undefined when
    extinction has probability zero.
    """
    q = extinction_probability(law).value
    if q == 0.0:
        raise InvalidParameter(
            "extinction transform undefined when extinction has probability 0"
        )
    ks = law.counts
    tilted = law.probs * np.power(q, ks - 1, dtype=float)
    w = np.zeros(int(ks[-1]) + 1)
    w[ks] = tilted
    m = DiscreteMeasure.from_dense(w, defect=max(0.0, 1.0 - float(tilted.sum())))
    return OffspringLaw(m, measures.mean(m))


def psi1_tail(law: OffspringLaw, ell: int) -> float:
    """Upper bound on ``sum_{k >= ell} k * mu{k}`` including the unseen tail."""
    if ell < 0:
        raise InvalidParameter("tail threshold must be nonnegative")
    ks = law.counts
    mask = ks >= ell
    exact = float(np.dot(ks[mask], law.probs[mask]))
    extra = law.tail_bound(ell) if law.tail_bound is not None else 0.0
    return exact + extra
