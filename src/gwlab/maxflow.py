"""Maximum matchable mass between two atom lists under a distance band.

It certifies the final coupling of each Prohorov call, and Strassen
couplings at a given ``eps``: for atoms ``x_i`` with masses ``a_i`` and
atoms ``y_j`` with masses ``b_j``, find the largest total mass that can be
shipped along pairs with ``|x_i - y_j| <= eps``.  Because both supports are
sorted, left atom ``i`` sees a window ``[lo_i, hi_i)`` of right atoms and
both ends never decrease: the bipartite graph is a staircase.  On a
staircase the northwest-corner greedy, which fills each left atom from the
first right atom with room, is already a maximum flow (Hoffman 1963, "On
simple linear programming problems"; Glover 1967, "Maximum matching in a
convex bipartite graph").  The greedy has two forms.  ``staircase`` records
its edges, which come out sorted by both ends as its right index never
decreases.  ``_greedy_mass`` tracks only its position in cumulative right
mass, which gives the shipped mass that the Prohorov search's probes need.

One residual search then certifies the recorded flow.  Starting from every
left atom with supply left over, it follows band edges to right atoms and
flow edges back to left atoms.  The left atoms it reaches form the Strassen
set ``A``: every right atom within ``eps`` of ``A`` is saturated by flow
from ``A``, so the matched mass equals the cut ``a(A^c) + b(A^eps)``, an
upper bound on every band flow.  On the greedy's flow the search only moves
down, through an interval of edges.  A right atom with room reached by the
search would be an augmenting path, which the staircase argument rules out;
it is reported as ``SolverDidNotConverge`` rather than repaired.

Capacities are real-valued probabilities.  Residuals at or below
``FLOW_TERMINATION`` are treated as exhausted, which guarantees termination
at the cost of up to ``(n + m) * FLOW_TERMINATION`` of unreported flow,
far below every tolerance used by the callers.

The flow's windows reach ``BAND_TOL`` past ``eps``, while the Prohorov
search lists its candidate distances on exact windows.  The flow keeps the
tolerance: pair distances that are equal as rationals round to different
doubles, and only ``BAND_TOL`` merges them.  On exact windows, row 3 of the
binary sweep moved from 0.01851851851851838 to 0.01913252069195337 and the
pinned Prohorov certificate changed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, SolverDidNotConverge

__all__ = ["FLOW_TERMINATION", "BAND_TOL", "band_windows", "staircase", "BandFlow"]

FLOW_TERMINATION = 1e-14

BAND_TOL = 1e-12


def band_windows(
    xs: np.ndarray, ys: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index windows [lo_i, hi_i) of right atoms within ``eps`` of each x_i.

    The band test is inclusive with an absolute tolerance so that an ``eps``
    taken from the list of pairwise distances admits the pair that produced
    it despite float rounding.
    """
    reach = eps + BAND_TOL
    lo = np.searchsorted(ys, xs - reach, side="left")
    hi = np.searchsorted(ys, xs + reach, side="right")
    return lo.astype(np.int64), hi.astype(np.int64)


def staircase(
    supply: list[float], room: list[float], lo: list[int], hi: list[int], floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The northwest-corner greedy on windows ``[lo_i, hi_i)`` of right atoms.

    Each left atom in turn fills from the first right atom of its window with
    room; amounts at or below ``floor`` count as exhausted.  Leaves what is
    unshipped in ``supply`` and ``room``, and returns the edges ``rows``,
    ``cols``, ``mass``, each written once, and the mass summed row by row.
    """
    rows, cols, mass = [], [], []
    matched = 0.0
    j = 0
    for i, (need, start, end) in enumerate(zip(supply, lo, hi)):
        if need <= floor:
            continue
        j = start if start > j else j
        shipped = 0.0
        while need > floor and j < end:
            free = room[j]
            if free <= floor:
                j += 1
                continue
            take = need if need <= free else free  # as min(need, free) picks
            rows.append(i)
            cols.append(j)
            mass.append(take)
            shipped += take
            room[j] = free - take
            need -= take
        supply[i] = need
        matched += shipped
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(mass), matched


def _greedy_mass(supply: list[float], cum: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Mass the northwest-corner greedy ships, tracked by its position alone.

    In cumulative right mass ``cum`` (from 0), with ``low_i``/``high_i`` at
    the ends of its window ``[lo_i, hi_i)``, atom ``i`` moves the position
    ``P`` to ``min(max(P, low_i) + supply_i, high_i)`` and ships what it
    passed over after ``max(P, low_i)``.
    """
    pos = total = 0.0
    for mass, start, stop in zip(supply, cum[lo].tolist(), cum[hi].tolist()):
        start = pos if pos > start else start
        pos = start + mass
        pos = stop if pos > stop else pos
        total += pos - start
    return total


class BandFlow:
    """One max-flow problem at a fixed band width ``eps``.

    After ``solve()``, edge ``k`` ships ``mass[k]`` from ``rows[k]`` to
    ``cols[k]``, ``matched`` is the shipped mass summed row by row, and
    ``strassen`` is the boolean mask of the Strassen set over the left atoms.
    """

    def __init__(self, xs: np.ndarray, a: np.ndarray, ys: np.ndarray, b: np.ndarray, eps: float):
        if not eps >= 0.0:  # NaN too; inf is the widest band
            raise InvalidParameter(f"eps must be nonnegative, got {eps!r}")
        self.eps = eps
        self.lo, self.hi = band_windows(xs, ys, eps)
        self.excess = np.asarray(a, dtype=float).copy()
        self.resid = np.asarray(b, dtype=float).copy()

    def solve(self) -> float:
        """Run the greedy and certify it; returns the matched mass."""
        excess, resid = self.excess.tolist(), self.resid.tolist()
        self.rows, self.cols, self.mass, self.matched = staircase(
            excess, resid, self.lo.tolist(), self.hi.tolist(), FLOW_TERMINATION
        )
        self.excess[:], self.resid[:] = excess, resid
        # The Strassen search.  Edges into left atom u's window are the run
        # [first[u], stop[u]).  A seed u filled its window, so later rows'
        # edges start at hi[u] and a search from u only goes down: it reaches
        # the rows with an edge in [first[low], stop[u]), ``low`` stepping down
        # to the lowest such row, and crosses [lo[low], hi[u]).  A search that
        # reaches the span below joins it.
        rows = self.rows.tolist()
        first = np.searchsorted(self.cols, self.lo).tolist()
        stop = np.searchsorted(self.cols, self.hi).tolist()
        seen = self.excess > FLOW_TERMINATION
        spans: list[tuple[int, int]] = []
        for u in np.flatnonzero(seen).tolist():
            low, end = u, stop[u]
            while first[low] < end and rows[first[low]] < low:
                low = rows[first[low]]
                if spans and low <= spans[-1][1]:
                    low = spans.pop()[0]
                    break
            spans.append((low, u))
        low, high = np.array(spans, dtype=np.int64).reshape(-1, 2).T
        left, right = self.lo[low], self.hi[high]
        room = np.concatenate([[0], np.cumsum(self.resid > FLOW_TERMINATION)])
        if (room[right] > room[left]).any():
            raise SolverDidNotConverge(
                f"band flow at eps={self.eps!r} left an augmenting path; "
                f"the staircase greedy is not maximal"
            )
        cover = np.zeros(len(rows) + 1, dtype=np.int64)
        np.add.at(cover, np.searchsorted(self.cols, left), 1)
        np.add.at(cover, np.searchsorted(self.cols, right), -1)
        seen[self.rows[np.cumsum(cover[:-1]) > 0]] = True
        self.strassen = seen
        return self.matched
