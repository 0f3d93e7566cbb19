"""Exact probability metrics between finite discrete measures.

Prohorov distance is computed through its coupling characterization: the
distance is the least ``eps`` such that mass ``>= T - eps`` fits on pairs
within ``eps`` of each other, where ``T`` is the larger retained total.
The matchable mass ``M(eps)`` steps only at pair distances, so the value is
``max(d_k, T - M(d_k))`` at the least pair distance (or 0) ``d_k`` with
``T - M(d_k) < d_{k+1}``.  The search starts from the bracket the
total-variation bound ``T - M(0)`` gives: ``M`` only grows, so the largest
candidate at or below it passes.  The ``n * m`` distances are never listed:
pairs are counted from per-atom windows, stepped past a passing probe's
distance for the pairs below it, and only ``d_k`` gets a full band flow.
``prohorov_at_most`` runs one greedy at a given bound instead of the
search, to prove the value is at most that bound.

The coupling certificate is checkable from both sides.  Its marginals and
slack show that the value is attained.  Its band mass at ``d_k`` reaches
the cut ``a(A^c) + b(A^{d_k})`` of the flow's Strassen set ``A``, an upper
bound on every band flow there, so ``M(d_k)`` is exact.

The bounded-Lipschitz distance is the optimum of a sparse LP on HiGHS over
the function values at the union support, with a primal function and a dual
bound, and joint/trajectory total variation compare generation processes as
whole random objects.

Metric values are always computed on retained mass only; truncation
defects surface in ``defect_slack`` and are never folded into the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .engine import JointLaw, PowerCache, check_start_size
from .errors import (
    CouplingInfeasible,
    InvalidParameter,
    MismatchedLaws,
    SolverDidNotConverge,
)
from .maxflow import FLOW_TERMINATION, BandFlow, band_windows
from .measures import DiscreteMeasure, difference, group_pairs
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

# Rounding guard on value-only probes; widened by the flow's termination.
_GUARD = 1e-9

# HiGHS primal and dual feasibility tolerances for the bounded-Lipschitz LP.
# At the defaults the duality gap reached 1.6e-7 on 161-atom estimator laws.
LP_FEASIBILITY_TOL = 1e-10


@dataclass
class Coupling:
    """A joint measure on support-index pairs of two measures.

    Entry ``k`` puts ``mass[k]`` on left atom ``rows[k]`` and right atom
    ``cols[k]``; the pairs are distinct and sorted by ``(rows, cols)``.
    ``slack`` is the mass sitting on pairs farther apart than ``eps``; a
    Strassen coupling at level ``eps`` keeps ``slack <= eps``.

    ``strassen`` masks a set ``A`` of left atoms, the Strassen set of the
    band flow solved at ``strassen_eps <= eps``.  No coupling puts
    more than the cut ``a(A^c) + b(A^r)`` within ``r = strassen_eps``, so a
    band mass at ``r`` that reaches the cut is maximal there.
    """

    left: DiscreteMeasure
    right: DiscreteMeasure
    eps: float
    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    slack: float
    strassen: np.ndarray
    strassen_eps: float

    def to_json_dict(self) -> dict:
        entries = zip(self.rows.tolist(), self.cols.tolist(), self.mass.tolist())
        return {
            "eps": self.eps,
            "slack": self.slack,
            "entries": [[i, j, v] for i, j, v in entries],
        }


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


def _complete_coupling(
    a: DiscreteMeasure, b: DiscreteMeasure, eps: float, flow: BandFlow
) -> Coupling:
    """Turn a solved band flow into a full coupling.

    Leftover supply is paired with leftover capacity in support order.  A
    flow edge left one of its atoms at exactly zero, so each pair is a new
    entry.  Flow edges lie on the band at ``eps >= flow.eps``, so the slack
    is the paired mass off it, summed in pairing order.
    """
    left, right = np.flatnonzero(flow.excess > 0.0), np.flatnonzero(flow.resid > 0.0)
    # Pairs by positions ``p``, ``q``; a trailing 0 ends the walk on a side.
    needs, rooms = flow.excess[left].tolist() + [0.0], flow.resid[right].tolist() + [0.0]
    need, room, p, q, pp, pq, pv = needs[0], rooms[0], 0, 0, [], [], []
    while need > 0.0 and room > 0.0:
        take = need if need <= room else room  # as min(need, room) picks
        pp.append(p)
        pq.append(q)
        pv.append(take)
        need -= take
        room -= take
        if need <= 0.0:
            p += 1
            need = needs[p]
        if room <= 0.0:
            q += 1
            room = rooms[q]
    lo, hi = band_windows(a.float_support, b.float_support, eps)
    pi, pj = left[np.array(pp, dtype=np.int64)], right[np.array(pq, dtype=np.int64)]
    slack = sum(np.array(pv)[(pj < lo[pi]) | (pj >= hi[pi])].tolist())
    rows = np.concatenate([flow.rows, pi])
    cols = np.concatenate([flow.cols, pj])
    mass = np.concatenate([flow.mass, pv])
    order = np.lexsort((cols, rows))
    return Coupling(
        a, b, eps, rows[order], cols[order], mass[order], slack, flow.strassen, flow.eps
    )


def _greedy_mass(a: list[float], low: list[float], high: list[float]) -> float:
    """Mass the northwest-corner greedy ships, tracked by its position alone.

    In cumulative right mass, with ``low_i``/``high_i`` at the ends of its
    window, atom ``i`` moves the position ``P`` to ``min(max(P, low_i) + a_i,
    high_i)`` and ships what it passed over after ``max(P, low_i)``.
    """
    pos = total = 0.0
    for mass, start, stop in zip(a, low, high):
        start = pos if pos > start else start
        pos = start + mass
        pos = stop if pos > stop else pos
        total += pos - start
    return total


def _pair_edges(xs: np.ndarray, ys: np.ndarray, split: np.ndarray, t: float) -> np.ndarray:
    """``lo`` then ``hi``: windows ``[lo_i, hi_i)`` of pairs ``|x_i - y_j| <= t``.

    Row ``i`` is a falling run ``x_i - y_j`` (``j < split_i``), then a rising
    run ``y_j - x_i``; rounding keeps both monotone, so each searchsorted
    guess (made at the rounded ``x_i -+ t``) steps onto the exact edge.
    """
    lo = np.minimum(np.searchsorted(ys, xs - t, "left"), split)
    hi = np.maximum(np.searchsorted(ys, xs + t, "right"), split)
    return _settle_edges(xs, ys, split, t, lo, hi)


def _settle_edges(
    xs: np.ndarray, ys: np.ndarray, split: np.ndarray, t: float, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Step guessed window edges ``lo``, ``hi`` one pair at a time onto the
    exact ones at ``t``, from a searchsorted guess or a probe's own windows."""
    top = len(ys) - 1
    while True:
        lo_in = (lo > 0) & (xs - ys[np.maximum(lo - 1, 0)] <= t)
        lo_out = (lo < split) & (xs - ys[np.minimum(lo, top)] > t)
        hi_in = (hi <= top) & (ys[np.minimum(hi, top)] - xs <= t)
        hi_out = (hi > split) & (ys[np.maximum(hi - 1, 0)] - xs > t)
        if not (lo_in | lo_out | hi_in | hi_out).any():
            return np.concatenate([lo, hi])
        lo = lo - lo_in + lo_out
        hi = hi + hi_in - hi_out


def _least_feasible_distance(
    xs: np.ndarray, aw: np.ndarray, ys: np.ndarray, bw: np.ndarray, t_goal: float
) -> float:
    """The least ``d`` in ``{0} | {|x_i - y_j|}`` with ``T - M(d) < d'``.

    ``d'`` is the next pair distance (infinite past the last); the test is
    monotone in ``d``.  The first probe is the largest candidate ``d <= r =
    T - M(0)``; it passes, as ``T - M(d) <= r < d'``.  Then weighted medians
    of the pairs in the bracket ``(low, high]`` cut it until none is left; a
    passing probe's windows, stepped past ``d``, are its new outer edges.
    Each probe takes ``M`` from the greedy's value alone; one within the
    guard band of ``d'`` is redone with a BandFlow.
    """
    n, m = len(xs), len(ys)
    split = np.searchsorted(ys, xs, "left")
    cum_b = np.concatenate([[0.0], np.cumsum(bw)])
    a_list = aw.tolist()
    guard = _GUARD + (n + m) * FLOW_TERMINATION
    run_x, run_split = np.tile(xs, 2), np.tile(split, 2)
    is_lo = np.arange(2 * n) < n

    def greedy(d: float) -> float:
        lo, hi = band_windows(xs, ys, d)
        return _greedy_mass(a_list, cum_b[lo].tolist(), cum_b[hi].tolist())

    def feasible(d: float, nxt: float) -> bool:
        matched = greedy(d) if d > 0.0 else at_zero
        if abs(t_goal - matched - nxt) <= guard:
            matched = BandFlow(xs, aw, ys, bw, d).solve()
        return t_goal - matched < nxt

    # The bracket's pairs lie between the window edges at ``low`` (inner)
    # and those just below ``high`` (outer): per row, one run on each side.
    low, inner, high, outer = -np.inf, run_split, np.inf, np.repeat([0, m], n)
    # The seed is the farthest pair in the windows at ``r = T - M(0)``, or 0.
    at_zero = greedy(0.0)
    edges = _pair_edges(xs, ys, split, max(t_goal - at_zero, 0.0))
    far = np.abs(run_x - ys[np.clip(edges + is_lo - 1, 0, m - 1)])
    d = float(far[edges != run_split].max(initial=0.0))
    while True:
        beyond = edges - is_lo  # the nearest pair outside each window
        fits = (beyond >= 0) & (beyond < m)
        nxt = np.abs(run_x - ys[np.clip(beyond, 0, m - 1)])[fits].min(initial=np.inf)
        if feasible(d, float(nxt)):
            below = np.nextafter(d, -np.inf)  # these windows, past the pairs at ``d``
            high, outer = d, _settle_edges(xs, ys, split, below, edges[:n], edges[n:])
        else:
            low, inner = d, edges
        if not (live := outer != inner).any():
            break
        # Half of every run sits at or below (above) its middle element, so
        # the weighted median of those has a quarter of the pairs either side.
        mids = np.abs(run_x[live] - ys[(outer + inner)[live] // 2])
        order = np.argsort(mids, kind="stable")
        cum = np.cumsum(np.abs(outer - inner)[live][order])
        d = float(mids[order[np.searchsorted(cum, (cum[-1] + 1) // 2)]])
        edges = _pair_edges(xs, ys, split, d)
    # No pair distance is left between low and high, but 0 is a candidate.
    if low < 0.0 < high and feasible(0.0, high):
        return 0.0
    return high


def prohorov(a: DiscreteMeasure, b: DiscreteMeasure) -> MetricResult:
    """Exact Prohorov distance with an optimal-coupling certificate."""
    xs, aw = a.float_support, a.weights_array
    ys, bw = b.float_support, b.weights_array
    t_goal = max(a.total_mass, b.total_mass)
    d = _least_feasible_distance(xs, aw, ys, bw, t_goal)
    flow = BandFlow(xs, aw, ys, bw, d)
    value = max(d, t_goal - flow.solve())
    coupling = _complete_coupling(a, b, value, flow)
    return MetricResult(value, coupling, a.defect + b.defect)


def prohorov_at_most(a: DiscreteMeasure, b: DiscreteMeasure, bound: float) -> bool:
    """Whether one greedy pass proves ``prohorov(a, b).value <= bound``.

    True when ``T - M <= bound - guard``, with ``M`` the greedy's mass on
    the exact windows of pairs within ``bound`` (not ``band_windows``, whose
    tolerance admits pairs just past it) and the search's own guard.  Then
    the largest candidate ``c <= bound`` passes the search's test, as
    ``T - M(c) <= T - M < c'``, so the search stops at some ``d <= c``, and
    ``T - M(d)`` is below ``d' <= bound`` if ``d < c`` and at most ``T - M``
    if ``d = c``: the value ``max(d, T - M(d))`` is at most ``bound``.
    False proves nothing.
    """
    xs, ys = a.float_support, b.float_support
    n = len(xs)
    t_goal = max(a.total_mass, b.total_mass)
    guard = _GUARD + (n + len(ys)) * FLOW_TERMINATION
    edges = _pair_edges(xs, ys, np.searchsorted(ys, xs, "left"), bound)
    cum_b = np.concatenate([[0.0], np.cumsum(b.weights_array)])
    matched = _greedy_mass(
        a.weights_array.tolist(), cum_b[edges[:n]].tolist(), cum_b[edges[n:]].tolist()
    )
    return t_goal - matched <= bound - guard


def strassen_coupling(
    a: DiscreteMeasure, b: DiscreteMeasure, eps: float
) -> Coupling:
    """A coupling placing all but ``eps`` of the mass within distance ``eps``.

    ``eps`` must be at least the Prohorov distance (within 1e-12); below
    that the band cannot hold enough mass and the call reports what was
    achievable.
    """
    xs, aw = a.float_support, a.weights_array
    ys, bw = b.float_support, b.weights_array
    t_goal = max(a.total_mass, b.total_mass)
    flow = BandFlow(xs, aw, ys, bw, eps)
    matched = flow.solve()
    if matched < t_goal - eps - 1e-12:
        raise CouplingInfeasible(
            f"band mass {matched:.12f} at eps={eps} cannot reach "
            f"{t_goal - eps:.12f}",
            achievable=matched,
        )
    return _complete_coupling(a, b, eps, flow)


# -- bounded-Lipschitz --------------------------------------------------------


def bounded_lipschitz(a: DiscreteMeasure, b: DiscreteMeasure) -> MetricResult:
    """Exact bounded-Lipschitz distance via a sparse LP on HiGHS.

    Maximizes ``sum (a_i - b_i) h_i`` over functions ``h`` on the union
    support with ``max|h| <= c``, Lipschitz constant ``<= L`` and
    ``L + c <= 1``.  Adjacent-point slope constraints suffice because any
    such values extend piecewise linearly to the whole line.

    The certificate is two-sided.  ``values`` is a primal function, rescaled
    into the feasible set so that ``sum (a_i - b_i) h_i`` is the value;
    ``upper`` is a dual bound that no feasible function exceeds, built from
    the solver's row duals with their residuals charged against it.  The
    difference ``gap`` is added to ``defect_slack``.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    nums, dens, diff = difference(a, b)
    n, p, q = len(diff), nums.tolist(), dens.tolist()
    # Exact gaps on Python ints, rounded once as float(Fraction) rounds.
    gaps = np.array([(p1 * q0 - p0 * q1) / (q0 * q1) for p0, q0, p1, q1 in zip(p, q, p[1:], q[1:])])

    # Columns: h (n, free), L, c.  Rows: +-h_i <= c, then
    # +-(h_{i+1} - h_i) <= gap_i L, then L + c <= 1.
    col_l, col_c = n, n + 1
    i, g = np.arange(n), np.arange(n - 1)
    k = 2 * n - 1  # rows of the difference operator D = [I; forward diff]
    d_row = np.concatenate([i, n + g, n + g])
    d_col = np.concatenate([i, g + 1, g])
    d_val = np.concatenate([np.ones(n), np.ones(n - 1), -np.ones(n - 1)])
    b_row = np.arange(k)
    b_col = np.where(b_row < n, col_c, col_l)
    b_val = -np.concatenate([np.ones(n), gaps])
    amat = sparse.csr_array(
        (
            np.concatenate([d_val, -d_val, b_val, b_val, [1.0, 1.0]]),
            (
                np.concatenate([d_row, d_row + k, b_row, b_row + k, [2 * k, 2 * k]]),
                np.concatenate([d_col, d_col, b_col, b_col, [col_l, col_c]]),
            ),
        ),
        shape=(2 * k + 1, n + 2),
    )
    bvec = np.zeros(2 * k + 1)
    bvec[-1] = 1.0
    res = linprog(
        np.concatenate([-diff, [0.0, 0.0]]),
        A_ub=amat,
        b_ub=bvec,
        bounds=[(None, None)] * n + [(0.0, None)] * 2,
        method="highs",
        options={
            "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
            "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
        },
    )
    if res.status != 0:
        raise SolverDidNotConverge(f"bounded-Lipschitz LP: {res.message}")

    # Primal side: the tightest sup and slope of h, scaled into L + c <= 1.
    h = res.x[:n]
    sup = float(np.abs(h).max())
    lipschitz = float(np.max(np.abs(np.diff(h)) / gaps, initial=0.0))
    scale = max(1.0, sup + lipschitz)
    h, sup, lipschitz = h / scale, sup / scale, lipschitz / scale
    value = max(float(diff @ h), 0.0)

    # Dual side: for y >= 0 and any feasible x, diff.h <= y.b plus the
    # residuals of A^T y = (diff, >= 0, >= 0), since |h_i| <= 1 and L, c <= 1.
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    aty = amat.T @ y
    upper = float(
        y[-1] + np.abs(aty[:n] - diff).sum() + np.maximum(-aty[n:], 0.0).sum()
    )
    gap = max(upper - value, 0.0)
    cert = {
        "points": [p0 / q0 for p0, q0 in zip(p, q)],
        "values": [float(v) for v in h],
        "lipschitz": lipschitz,
        "sup": sup,
        "upper": upper,
        "gap": gap,
    }
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
    value = 0.5 * sum(np.abs(diff).tolist())
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
        ws = [cache1.get(z)[0], cache2.get(z)[0]]
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
