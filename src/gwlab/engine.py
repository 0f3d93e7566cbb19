"""Exact finite-horizon laws of a branching process.

The population starts at ``z0`` individuals and each generation every
individual independently draws its offspring count from a common law.  The
law of the population size is propagated exactly: the next generation's law
is the mixture, over the current support, of convolution powers of the
offspring law.  All inner arithmetic runs on dense float arrays indexed by
population size; measures are materialized only at the API boundary.
Convolution powers are taken on the offspring law's lattice (see
``measures``), since every power of a law on ``gZ`` lives on ``gZ``.  A
power is a dense product of two smaller ones or, where that costs fewer
multiply-adds, stepped up from a cached power by the law's atoms.

Truncation discipline: a propagation with horizon ``n`` and budget ``b``
may move at most ``b / n`` of mass per step into the defect, always from the
largest population sizes.  Defect inherited from a truncated offspring law
is tracked as well, and crossing the total budget raises ``BudgetExceeded``
at the offending step.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import offspring as offspring_mod
from .errors import (
    BudgetExceeded,
    DegenerateConditioning,
    InvalidParameter,
)
from .measures import DiscreteMeasure, _convolve_dense, _span, _trim_back, _truncate_dense
from .offspring import OffspringLaw

__all__ = [
    "GenerationLaw",
    "JointLaw",
    "SurvivalConditioned",
    "PowerCache",
    "Propagator",
    "propagate",
    "extinction_by_n",
    "joint_law",
    "condition_on_survival",
    "wlln_probability",
]

DEFAULT_BUDGET = 1e-12

MIN_SURVIVAL = 1e-12


def check_start_size(z0: int) -> None:
    """Refuse start sizes below 1, or too large for the int64 population arrays."""
    if z0 < 1:
        raise InvalidParameter("start size z0 must be at least 1")
    if z0 >= 2**63:
        raise InvalidParameter("start size z0 must be below 2**63, the int64 limit")


@dataclass(frozen=True)
class GenerationLaw:
    """Law of the population size after ``n`` generations from ``z0`` ancestors."""

    n: int
    z0: int
    law: DiscreteMeasure


@dataclass(eq=False)
class JointLaw:
    """Sparse joint law of two consecutive population sizes.

    Entry arrays are parallel: ``probs[i]`` is the probability that the
    sizes at generations ``n - 1`` and ``n`` equal ``prev[i]`` and
    ``curr[i]``.  Rows are sorted by ``(prev, curr)``.
    """

    n: int
    z0: int
    prev: np.ndarray
    curr: np.ndarray
    probs: np.ndarray
    defect: float

    def entries(self) -> dict[tuple[int, int], float]:
        return {
            (int(j), int(k)): float(p)
            for j, k, p in zip(self.prev, self.curr, self.probs)
        }

    def items(self) -> Iterator[tuple[int, int, float]]:
        for j, k, p in zip(self.prev, self.curr, self.probs):
            yield int(j), int(k), float(p)

    @property
    def total_mass(self) -> float:
        return float(self.probs.sum())


class PowerCache:
    """Memoized convolution powers of an offspring law as dense arrays.

    ``get(j)`` returns ``(weights, defect)`` for the law of the sum of ``j``
    independent offspring draws.  Powers combine from cached pieces: a dense
    sweep over consecutive ``j`` costs one convolution each.  An isolated
    ``j`` (largest cached ``anchor <= j // 2``) takes the route with fewer
    multiply-adds on the base lattice, where ``P^i`` has ``L_i = i*ell + 1``
    entries and the base ``K`` atoms: halving, ``L_{j//2} * L_{j-j//2}``, or
    stepping from the anchor, ``K * sum(L_i, i = anchor+1..j)``.  Dense laws
    (``2K`` near ``ell``) always halve.  Each power's lattice span is found
    once, when it is stored, and handed to every convolution using it.
    """

    def __init__(self, law: OffspringLaw):
        base = law.measure.dense_weights()
        self._cache: dict[int, tuple[np.ndarray, float]] = {
            0: (np.ones(1), 0.0),
            1: (base, law.measure.defect),
        }
        self._spans: dict[int, int] = {0: 0, 1: _span(base)}
        self._keys = [0, 1]  # sorted keys of _cache
        self._lattice = base[:: self._spans[1] or 1]
        self._atoms = np.flatnonzero(self._lattice)

    def get(self, j: int) -> tuple[np.ndarray, float]:
        if j < 0:
            raise InvalidParameter("convolution power needs j >= 0")
        hit = self._cache.get(j)
        if hit is not None:
            return hit
        anchor = self._keys[bisect_right(self._keys, j) - 1]
        halving = anchor <= j // 2
        left, right = (j // 2, j - j // 2) if halving else (anchor, j - anchor)
        ell, k = len(self._lattice) - 1, len(self._atoms)
        stepping = k * (ell * (j * (j + 1) - anchor * (anchor + 1)) // 2 + j - anchor)
        spans = self._spans
        if halving and stepping < (left * ell + 1) * (right * ell + 1):
            entry = self._step(anchor, j)
        else:
            wa, da = self.get(left)
            wb, db = self.get(right)
            # Far tails can underflow to 0; trim them so lengths stay honest.
            w = _trim_back(_convolve_dense(wa, wb, spans[left], spans[right]))
            entry = (w, da + db)
        self._cache[j] = entry
        insort(self._keys, j)
        spans[j] = _span(entry[0])
        return entry

    def _step(self, anchor: int, j: int) -> tuple[np.ndarray, float]:
        """``P^j`` from the cached ``P^anchor`` by ``j - anchor`` steps
        ``P^{i+1}[s] = sum_k p_k P^i[s - x_k]`` over the base's lattice atoms."""
        g = self._spans[1] or 1
        wa, da = self._cache[anchor]
        cur = wa[::g]
        for _ in range(j - anchor):
            nxt = np.zeros(cur.size + len(self._lattice) - 1)
            for x in self._atoms:
                nxt[x : x + cur.size] += self._lattice[x] * cur
            cur = _trim_back(nxt)
        w = np.zeros((cur.size - 1) * g + 1)
        w[::g] = cur
        return w, da + (j - anchor) * self._cache[1][1]


class Propagator:
    """Step-by-step propagation of the population-size law.

    Shares one :class:`PowerCache` across all horizons up to ``n_max`` so a
    sweep over generations pays for each convolution power once.
    """

    def __init__(
        self,
        law: OffspringLaw,
        z0: int = 1,
        n_max: int = 1,
        budget: float = DEFAULT_BUDGET,
    ):
        check_start_size(z0)
        if n_max < 0:
            raise InvalidParameter("horizon must be nonnegative")
        self.law = law
        self.z0 = z0
        self.n_max = max(n_max, 1)
        self.budget = budget
        self.powers = PowerCache(law)
        start = np.zeros(z0 + 1)
        start[z0] = 1.0
        self._gen: list[tuple[np.ndarray, float]] = [(start, 0.0)]

    def _advance(self) -> None:
        prev, prev_defect = self._gen[-1]
        step = len(self._gen)
        rows = [(j, *self.powers.get(j)) for j in np.flatnonzero(prev).tolist()]
        out = np.zeros(max([1] + [len(w) for _, w, _ in rows]))
        inherited = prev_defect
        for j, w, d in rows:
            out[: len(w)] += prev[j] * w
            inherited += prev[j] * d
        out, dropped = _truncate_dense(out, self.budget / self.n_max)
        defect = inherited + dropped
        if defect > self.budget * (1.0 + 1e-9):
            raise BudgetExceeded(
                f"defect {defect:.3e} exceeds budget {self.budget:.3e} "
                f"at generation {step}",
                step=step,
            )
        if out.size == 0:
            raise BudgetExceeded("truncation removed all mass", step=step)
        self._gen.append((out, defect))

    def _dense_generation(self, n: int) -> tuple[np.ndarray, float]:
        while len(self._gen) <= n:
            self._advance()
        return self._gen[n]

    def generation(self, n: int) -> GenerationLaw:
        w, defect = self._dense_generation(n)
        return GenerationLaw(n, self.z0, DiscreteMeasure.from_dense(w, defect=defect))

    def support_size(self, n: int) -> int:
        w, _ = self._dense_generation(n)
        return int(np.count_nonzero(w))

    def joint(self, n: int) -> JointLaw:
        """Joint law of the sizes at generations ``n - 1`` and ``n``."""
        if n < 1:
            raise InvalidParameter("a joint law needs n >= 1")
        prev, prev_defect = self._dense_generation(n - 1)
        prev_col: list[np.ndarray] = []
        curr_col: list[np.ndarray] = []
        prob_col: list[np.ndarray] = []
        defect = prev_defect
        for j in np.flatnonzero(prev).tolist():
            w, d = self.powers.get(j)
            ks = np.nonzero(w)[0]
            prev_col.append(np.full(len(ks), j, dtype=np.int64))
            curr_col.append(ks.astype(np.int64))
            prob_col.append(prev[j] * w[ks])
            defect += prev[j] * d
        return JointLaw(
            n=n,
            z0=self.z0,
            prev=np.concatenate(prev_col),
            curr=np.concatenate(curr_col),
            probs=np.concatenate(prob_col),
            defect=float(defect),
        )


def propagate(
    law: OffspringLaw,
    n: int,
    z0: int = 1,
    budget: float = DEFAULT_BUDGET,
) -> GenerationLaw:
    """Law of the population size after ``n`` generations from ``z0`` ancestors."""
    return Propagator(law, z0=z0, n_max=n, budget=budget).generation(n)


def extinction_by_n(law: OffspringLaw, n: int, z0: int = 1) -> float:
    """Probability the population is extinct by generation ``n``.

    Computed by iterating the generating function at zero, which involves no
    truncation at all; it doubles as an oracle for the mass the propagated
    law puts at zero.
    """
    if z0 < 1:
        raise InvalidParameter("start size z0 must be at least 1")
    return offspring_mod.iterate_pgf_at_zero(law, n) ** z0


def joint_law(
    law: OffspringLaw,
    n: int,
    z0: int = 1,
    budget: float = DEFAULT_BUDGET,
) -> JointLaw:
    """Joint law of the sizes at generations ``n - 1`` and ``n``."""
    return Propagator(law, z0=z0, n_max=max(n - 1, 1), budget=budget).joint(n)


class SurvivalConditioned(NamedTuple):
    joint: JointLaw
    survival: float


def condition_on_survival(joint: JointLaw) -> SurvivalConditioned:
    """Condition a joint law on the earlier generation being positive.

    Rows with an extinct earlier generation are removed and the remaining
    mass renormalized; the normalizing constant (the survival probability
    of generation ``n - 1``) is returned alongside.
    """
    alive = joint.prev > 0
    survival = float(joint.probs[alive].sum())
    if survival < MIN_SURVIVAL:
        raise DegenerateConditioning(
            f"survival probability {survival:.3e} below {MIN_SURVIVAL}"
        )
    conditioned = JointLaw(
        n=joint.n,
        z0=joint.z0,
        prev=joint.prev[alive],
        curr=joint.curr[alive],
        probs=joint.probs[alive] / survival,
        defect=joint.defect / survival,
    )
    return SurvivalConditioned(conditioned, survival)


def wlln_probability(
    law: OffspringLaw,
    k: int,
    eta: float,
    _cache: PowerCache | None = None,
) -> tuple[float, float]:
    """Exact P[|S_k / k - m| >= eta] for a sum of k offspring draws.

    Returns ``(probability, slack)`` where the slack is the defect of the
    k-fold convolution power (mass whose deviation is unknown).
    """
    if k < 1:
        raise InvalidParameter("sample count k must be positive")
    if eta <= 0.0:
        raise InvalidParameter("deviation threshold eta must be positive")
    cache = _cache if _cache is not None else PowerCache(law)
    w, defect = cache.get(k)
    values = np.arange(len(w), dtype=float)
    mask = np.abs(values / k - law.mean_m) >= eta
    return float(w[mask].sum()), defect
