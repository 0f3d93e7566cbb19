"""Exact probability metrics between finite discrete measures.

Prohorov distance is computed through its coupling characterization: the
distance is the least ``eps`` such that mass ``>= T - eps`` fits on pairs
within ``eps`` of each other, where ``T`` is the larger retained total.
The matchable mass ``M(eps)`` steps only at pair distances, so the value is
``max(d_k, T - M(d_k))`` at the least pair distance (or 0) ``d_k`` with
``T - M(d_k) < d_{k+1}``.  ``M`` only grows, so a probe's deficit ``T - M``
bounds every smaller candidate's: the search starts at the largest candidate
at or below ``T - M(0)``, and goes on to the largest one whose successor is
above a passing probe's deficit less a guard.  The ``n * m`` distances are
never listed: pairs are counted from per-atom windows (``maxflow.Pairs``),
those just below a passing probe's distance bounding the pairs below it, and
only ``d_k`` gets a full band flow, on its probe's windows, once the
certificate is read.  ``prohorov_at_most`` runs one greedy at a given bound
instead of the search, to prove the value is at most that bound.

The coupling certificate is checkable from both sides.  Its marginals and
slack show that the value is attained.  Its band mass at ``d_k`` reaches
the cut ``a(A^c) + b(A^{d_k})`` of the flow's Strassen set ``A``, an upper
bound on every band flow there, so ``M(d_k)`` is exact.

The bounded-Lipschitz distance is the top of a concave envelope whose lines
are dual paths (the two end ones closed forms, the rest one slope-trick pass
each), with a primal function and a mix of paths as its two sides.  Joint and
trajectory total variation compare generation processes as whole random objects.

Metric values are always computed on retained mass only; truncation
defects surface in ``defect_slack`` and are never folded into the value.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .engine import JointLaw, PowerCache, check_start_size
from .errors import (
    CouplingInfeasible,
    InvalidParameter,
    MismatchedLaws,
    SolverDidNotConverge,
)
from .maxflow import Coupling, Pairs, _greedy_mass, couple
from .measures import DiscreteMeasure, _float_values, _wide, difference, group_pairs, left_sum
from .offspring import OffspringLaw

__all__ = [
    "Coupling",
    "MetricResult",
    "prohorov",
    "prohorov_at_most",
    "bounded_lipschitz",
    "strassen_coupling",
    "joint_tv",
    "trajectory_tv",
]

# Rounding guard on value-only probes.
_GUARD = 1e-9

# Most steps of the bounded-Lipschitz search; pairs of 2,325 atoms at n = 8 took 8.
_BL_STEPS = 64


@dataclass
class MetricResult:
    value: float
    certificate: Any = None
    defect_slack: float = 0.0

    def to_json_dict(self) -> dict:
        cert = self.certificate
        if isinstance(cert, Coupling):
            cert = cert.to_json_dict()
        return {
            "value": self.value,
            "defect_slack": self.defect_slack,
            "certificate": cert,
        }


# -- Prohorov ----------------------------------------------------------------


def _least_feasible_distance(
    pairs: Pairs, aw: np.ndarray, bw: np.ndarray, t_goal: float
) -> tuple[float, np.ndarray, float]:
    """The least ``d`` in ``{0} | {|x_i - y_j|}`` with ``T - M(d) < d'``, its
    windows and the greedy's ``T - M(d)``.

    ``d'`` is the next pair distance (infinite past the last); the test is
    monotone in ``d``.  The first probe is the largest candidate ``d <= r =
    T - M(0)``; it passes, as ``T - M(d) <= r < d'``.  A later pass at ``d``
    fails each smaller candidate whose successor is at most ``r - guard``,
    ``r = T - M(d)``: its own ``T - M`` is at least ``r`` less the greedy's
    rounding, far below the guard, so its test would fail.  The next probe is
    the largest candidate left (``d`` itself if ``r - guard >= d``, as ``r <
    d'``, which ends the search), else the weighted median of the pairs in the
    bracket ``(low, high]``; a passing probe's windows just below ``d`` are its
    new outer edges.  Each probe takes ``M`` from the greedy on its windows.
    """
    n, m = len(pairs.xs), len(pairs.ys)
    cum_b = np.concatenate([[0.0], np.cumsum(bw)])
    a_list = aw.tolist()
    run_i, run_split = np.tile(np.arange(n), 2), np.tile(pairs.split, 2)
    is_lo = np.arange(2 * n) < n

    def farthest(t: float) -> tuple[float, np.ndarray]:  # the pair (or 0), its windows
        inside = (edges := pairs.windows(t)) != run_split
        return pairs.extreme(run_i[inside], (edges + is_lo - 1)[inside], True), edges

    # The bracket's pairs lie between the window edges at ``low`` (inner)
    # and those just below ``high`` (outer): per row, one run on each side.
    low, inner, high, outer = -np.inf, run_split, np.inf, np.repeat([0, m], n)
    # The seed is the farthest pair in the windows at ``r = T - M(0)``, or 0.
    at_zero = _greedy_mass(a_list, cum_b, zero := pairs.windows(0.0))
    d, edges = guess = farthest(max(t_goal - at_zero, 0.0))
    while True:
        beyond = edges - is_lo  # the nearest pair outside each window
        fits = (beyond >= 0) & (beyond < m)
        nxt = pairs.extreme(run_i[fits], beyond[fits], False)
        deficit = t_goal - (_greedy_mass(a_list, cum_b, edges) if d > 0.0 else at_zero)
        if deficit < nxt:
            if deficit - _GUARD >= d:  # the largest candidate left is d
                return d, edges, deficit
            guess = farthest(deficit - _GUARD) if deficit - _GUARD >= max(low, 0.0) else guess
            high, at_high, outer = d, (edges, deficit), pairs.windows(np.nextafter(d, -np.inf), edges)
        else:
            low, inner = d, edges
        if not (live := outer != inner).any():
            break
        if low < guess[0] < high:  # once probed or outside, a guess stays out
            d, edges = guess
            continue
        # Half of every run sits at or below (above) its middle element, so
        # the weighted median of those has a quarter of the pairs either side.
        mids = pairs.distance(run_i[live], (outer + inner)[live] // 2)
        order = np.argsort(mids, kind="stable")
        cum = np.cumsum(np.abs(outer - inner)[live][order])
        d = float(mids[order[np.searchsorted(cum, (cum[-1] + 1) // 2)]])
        edges = pairs.windows(d)
    # No pair distance is left between low and high, but 0 is a candidate.
    if low < 0.0 < high and t_goal - at_zero < high:
        return 0.0, zero, t_goal - at_zero
    return (high, *at_high)


class _Deferred(MetricResult):
    """A result whose certificate ``_build()`` makes when it is first read."""

    certificate = cached_property(lambda self: self._build())

    def __init__(self, value: float, build: Callable[[], Any], defect_slack: float):
        self.value, self._build, self.defect_slack = value, build, defect_slack


def prohorov(a: DiscreteMeasure, b: DiscreteMeasure) -> MetricResult:
    """Exact Prohorov distance with an optimal-coupling certificate, built when first
    read (``SolverDidNotConverge`` surfaces there); ``defect_slack`` adds the float
    error of ``T - M``, at most ``(n + m) 2^-52 T``, to the defects."""
    aw, bw = a.weights_array, b.weights_array
    t_goal = max(a.total_mass, b.total_mass)
    d, edges, deficit = _least_feasible_distance(pairs := Pairs(a, b), aw, bw, t_goal)
    value = max(d, deficit)
    slack = a.defect + b.defect + math.ldexp((len(a) + len(b)) * t_goal, -52)
    return _Deferred(value, lambda: couple(a, b, pairs, edges, d, value)[0], slack)


def prohorov_at_most(a: DiscreteMeasure, b: DiscreteMeasure, bound: float) -> bool:
    """Whether one greedy pass proves ``prohorov(a, b).value <= bound``.

    True when ``T - M <= bound - guard``, with ``M`` the greedy's mass on
    the windows of pairs within ``bound`` and the search's own guard.  Then
    the largest candidate ``c <= bound`` passes the search's test, as
    ``T - M(c) <= T - M < c'``, so the search stops at some ``d <= c``, and
    ``T - M(d)`` is below ``d' <= bound`` if ``d < c`` and at most ``T - M``
    if ``d = c``: the value ``max(d, T - M(d))`` is at most ``bound``.
    False proves nothing; a NaN ``bound`` is refused.
    """
    if math.isnan(bound):
        raise InvalidParameter(f"bound must be a number, got {bound!r}")
    t_goal = max(a.total_mass, b.total_mass)
    cum_b = np.concatenate([[0.0], np.cumsum(b.weights_array)])
    matched = _greedy_mass(a.weights_array.tolist(), cum_b, Pairs(a, b).windows(bound))
    return t_goal - matched <= bound - _GUARD


def strassen_coupling(
    a: DiscreteMeasure, b: DiscreteMeasure, eps: float
) -> Coupling:
    """A coupling placing all but ``eps`` of the mass within distance ``eps``.

    ``eps`` must be at least the Prohorov distance (within 1e-12); below
    that the band cannot hold enough mass and the call reports what was
    achievable.
    """
    if not eps >= 0.0:  # before any window is stepped
        raise InvalidParameter(f"eps must be nonnegative, got {eps!r}")
    t_goal = max(a.total_mass, b.total_mass)
    coupling, matched = couple(a, b, pairs := Pairs(a, b), pairs.windows(eps), eps, eps)
    if matched < t_goal - eps - 1e-12:
        raise CouplingInfeasible(
            f"band mass {matched:.12f} at eps={eps} cannot reach "
            f"{t_goal - eps:.12f}",
            achievable=matched,
        )
    return coupling


# -- bounded-Lipschitz --------------------------------------------------------


def _dual_path(d: list[float], g: list[float], lam: float, path: list | None = None) -> list:
    """One slope-trick pass of ``min (1 - lam) TV(R) + lam W(R)`` over paths.

    ``F_i``, the cost of reaching ``R_i``, is sorted breakpoints whose weights
    step its slope from ``-c`` to ``c = 1 - lam``.  Each ``D_i`` enters with
    weight ``2 lam g_i``, and ``lam g_i`` is trimmed off each end; the last
    points trimmed (or +-inf) bound ``R_i = clip(R_{i+1}, lo_i, hi_i)``.
    Given the path, the pass returns ``h_i = h_{i+1} - lam g_i sign(R_i -
    D_i)`` clipped into the slopes of ``F_i`` at ``R_i``.  A last gap of 0
    ends the path at ``D_{n-1}``.  The paths at ``lam`` 0 and 1 are closed
    forms, derived in ``bounded_lipschitz``, which runs no pass for them.
    """
    c = 1.0 - lam
    pos, wt, out = [0.0], [2.0 * c], []
    for i, (x, t) in enumerate(zip(d, [lam * gap for gap in g])):
        if path is not None:  # the slopes below and above R_i, summed left to right
            below = sum(wt[: (k := bisect_left(pos, r := path[i]))])
            out.append((below - c, sum(wt[k : bisect_right(pos, r)], below) - c))
        k = bisect_right(pos, x)
        pos.insert(k, x)
        wt.insert(k, 2.0 * t)
        lo, hi, left = -math.inf, math.inf, t
        while left > 0.0 and wt and wt[0] <= left:
            left, lo = left - wt.pop(0), pos.pop(0)
        if left > 0.0 and wt:
            wt[0], lo = wt[0] - left, pos[0]
        left = t
        while left > 0.0 and wt and wt[-1] <= left:
            left, hi = left - wt.pop(), pos.pop()
        if left > 0.0 and wt:
            wt[-1], hi = wt[-1] - left, pos[-1]
        if path is None:
            out.append((lo, hi))
    # Backtracking clips as ``min(max(v, lo), hi)`` would, ties included.  With no
    # path ``D`` stands in for it: each shift is +0.0, which leaves ``v`` as it is.
    v, walk, shifts = d[-1] if path is None else 0.0, [], [0.0] * len(d)
    if path is not None:
        shifts = [lam * t * ((r > x) - (r < x)) for t, r, x in zip(g, path, d)]
    for (lo, hi), shift in zip(out[::-1], shifts[::-1]):
        v -= shift
        v = lo if lo > v else v
        v = hi if hi < v else v
        walk.append(v)
    return walk[::-1]


def bounded_lipschitz(a: DiscreteMeasure, b: DiscreteMeasure) -> MetricResult:
    """Exact bounded-Lipschitz distance by a search over dual paths.

    Maximizes ``sum diff_i h_i`` over ``h`` on the union support with
    ``|h| <= c``, adjacent slopes ``<= L`` and ``c + L <= 1``.  With ``D`` the
    running sums of ``diff`` and ``g`` the gaps, summation by parts bounds that
    by ``c TV(R) + L W(R)``, ``W(R) = sum g_i |R_i - D_i|``, on every path from
    0 to ``D_{n-1}``, with equality at the best.  So the value tops the concave
    ``phi(L) = min_R (1 - L) TV(R) + L W(R)``: the path at the crossing of two
    bracketing lines replaces the end its slope ``W - TV`` faces away from,
    until it meets the crossing (to rounding).  The end lines need no pass: at
    ``L = 0`` nothing is trimmed, every window is unbounded and ``R`` is the
    constant ``D_{n-1}``; at ``L = 1``, ``c = 0`` and each step with a positive
    gap trims ``F_i`` down to its new point, the window ``[D_i, D_i]``: ``R = D``.

    ``values`` is the function a second pass reads off the final path, scaled
    into the feasible set.  ``upper = max(TV(R*), W(R*))`` bounds every feasible
    function, with ``R*`` the mix of the bracketing paths where the two agree.
    The difference ``gap`` is added to ``defect_slack``.
    """
    nums, dens, diff = difference(a, b)
    # Exact gaps, rounded once as float(Fraction) rounds.
    wn, wd = _wide(nums, dens)
    gaps = _float_values(wn[1:] * wd[:-1] - wn[:-1] * wd[1:], wd[1:] * wd[:-1])
    d = np.cumsum(diff)
    dl, gl = d.tolist(), gaps.tolist() + [0.0]

    def line(lam: float, r: np.ndarray | None = None) -> tuple[float, np.ndarray, float, float]:
        """``(lam, R, TV(R), W(R))`` for the path ``R`` at ``lam``, or for ``r``."""
        r = np.array(_dual_path(dl, gl, lam)) if r is None else r
        tv = float(np.abs(r - np.concatenate(([0.0], r[:-1]))).sum())
        return lam, r, tv, float(gaps @ abs(r - d)[:-1])

    lo, hi = line(0.0, np.full(len(d), d[-1])), line(1.0, d)
    best, mix = lo, 1.0
    for _ in range(_BL_STEPS):
        rise, fall = lo[3] - lo[2], hi[3] - hi[2]
        if rise <= 0.0:  # phi is largest at 0
            break
        lam, mix = (hi[2] - lo[2]) / (rise - fall), -fall / (rise - fall)
        best = line(lam)
        tv, w = best[2], lam * best[3]
        if (1.0 - lam) * tv + w >= lo[2] + lam * rise - 1e-15 * max(1.0, tv, w):
            break
        lo, hi = (best, hi) if best[3] > best[2] else (lo, best)
    else:
        raise SolverDidNotConverge(f"bounded-Lipschitz search took {_BL_STEPS} steps")
    upper = max(line(0.0, mix * lo[1] + (1.0 - mix) * hi[1])[2:])

    # Primal side: the tightest sup and slope of h, scaled into L + c <= 1.
    h = np.array(_dual_path(dl, gl, best[0], best[1].tolist()))
    sup = float(np.abs(h).max())
    lipschitz = float(np.max(np.abs(np.diff(h)) / gaps, initial=0.0))
    scale = max(1.0, sup + lipschitz)
    h, sup, lipschitz = h / scale, sup / scale, lipschitz / scale
    value = max(float(diff @ h), 0.0)
    gap = max(upper - value, 0.0)
    cert = {"points": _float_values(nums, dens).tolist(), "values": h.tolist(),
            "lipschitz": lipschitz, "sup": sup, "upper": upper, "gap": gap}
    return MetricResult(value, cert, a.defect + b.defect + gap)


# -- total variation between processes ----------------------------------------


def joint_tv(j1: JointLaw, j2: JointLaw) -> tuple[float, float]:
    """TV distance between two consecutive-pair laws, with defect slack."""
    if j1.n != j2.n or j1.z0 != j2.z0:
        raise MismatchedLaws(
            f"joint laws disagree on n or z0: ({j1.n},{j1.z0}) vs ({j2.n},{j2.z0})"
        )
    negated = (j2.prev, j2.curr, -j2.probs)
    diff = group_pairs(*map(np.concatenate, zip((j1.prev, j1.curr, j1.probs), negated)))[2]
    value = 0.5 * left_sum(np.abs(diff).tolist())
    return value, 0.5 * (j1.defect + j2.defect)


def trajectory_tv(
    law1: OffspringLaw, law2: OffspringLaw, n: int, z0: int = 1
) -> tuple[float, float]:
    """TV distance between the laws of the whole path (Z_1, ..., Z_n).

    Enumerates population-size paths depth-first under both offspring laws
    at once; paths absorbed at zero contribute at the moment they die, and
    the last level is folded in vectorized form.  The slack is the average
    path mass unaccounted for due to truncation of either law.
    """
    if n < 1:
        raise InvalidParameter("trajectory TV needs n >= 1")
    check_start_size(z0)
    cache1, cache2 = PowerCache(law1), PowerCache(law2)
    total = seen1 = seen2 = 0.0

    def padded(z: int) -> list[np.ndarray]:
        ws = [cache1.dense(z)[0], cache2.dense(z)[0]]
        length = max(map(len, ws))
        return [np.pad(w, (0, length - len(w))) if len(w) < length else w for w in ws]

    def walk(z: int, p1: float, p2: float, depth: int) -> None:
        nonlocal total, seen1, seen2
        if z == 0:
            total += abs(p1 - p2)
            seen1 += p1
            seen2 += p2
            return
        w1, w2 = padded(z)
        if depth == n - 1:
            total += float(np.abs(p1 * w1 - p2 * w2).sum())
            seen1 += p1 * float(w1.sum())
            seen2 += p2 * float(w2.sum())
            return
        for k in range(len(w1)):
            q1 = p1 * float(w1[k])
            q2 = p2 * float(w2[k])
            if q1 == 0.0 and q2 == 0.0:
                continue
            walk(k, q1, q2, depth + 1)

    walk(z0, 1.0, 1.0, 0)
    slack = 0.5 * ((1.0 - seen1) + (1.0 - seen2))
    return 0.5 * total, max(slack, 0.0)
