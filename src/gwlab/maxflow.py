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
convex bipartite graph").  Its right index never decreases, so its edges
come out sorted by both ends and are kept as flat arrays.

One residual search then certifies it.  Starting from every left atom with
supply left over, it follows band edges to right atoms and flow edges back
to left atoms.  The left atoms it reaches form the Strassen set ``A``: every
right atom within ``eps`` of ``A`` is saturated by flow from ``A``, so the
matched mass equals the cut ``a(A^c) + b(A^eps)``, an upper bound on every
band flow.  On the greedy's flow the search only moves down, through an
interval of edges.  A right atom with room reached by the search would be an
augmenting path, which the staircase argument rules out; it is reported as
``SolverDidNotConverge`` rather than repaired.

Capacities are real-valued probabilities.  Residuals at or below
``FLOW_TERMINATION`` are treated as exhausted, which guarantees termination
at the cost of up to ``(n + m) * FLOW_TERMINATION`` of unreported flow,
far below every tolerance used by the callers.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, SolverDidNotConverge

__all__ = ["FLOW_TERMINATION", "BAND_TOL", "band_windows", "BandFlow"]

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


class BandFlow:
    """One max-flow problem at a fixed band width ``eps``.

    After ``solve()``, edge ``k`` ships ``mass[k]`` from ``rows[k]`` to
    ``cols[k]``, ``matched`` is the shipped mass summed row by row, and
    ``strassen`` is the boolean mask of the Strassen set over the left atoms.
    """

    def __init__(
        self,
        xs: np.ndarray,
        a: np.ndarray,
        ys: np.ndarray,
        b: np.ndarray,
        eps: float,
    ):
        if not eps >= 0.0:  # NaN too; inf is the widest band
            raise InvalidParameter(f"eps must be nonnegative, got {eps!r}")
        self.eps = eps
        self.lo, self.hi = band_windows(xs, ys, eps)
        self.excess = np.asarray(a, dtype=float).copy()
        self.resid = np.asarray(b, dtype=float).copy()

    # -- greedy staircase ------------------------------------------------------

    def _greedy(self) -> None:
        # Every edge is written once, with more than FLOW_TERMINATION on it.
        lo, hi = self.lo.tolist(), self.hi.tolist()
        excess, resid = self.excess.tolist(), self.resid.tolist()
        rows, cols, mass = [], [], []
        matched = 0.0
        j = 0
        for i, need in enumerate(excess):
            if need <= FLOW_TERMINATION:
                continue
            j = max(j, lo[i])
            end = hi[i]
            shipped = 0.0
            while need > FLOW_TERMINATION and j < end:
                room = resid[j]
                if room <= FLOW_TERMINATION:
                    j += 1
                    continue
                take = min(need, room)
                rows.append(i)
                cols.append(j)
                mass.append(take)
                shipped += take
                resid[j] = room - take
                need -= take
            excess[i] = need
            matched += shipped
        self.rows = np.array(rows, dtype=np.int64)
        self.cols = np.array(cols, dtype=np.int64)
        self.mass = np.array(mass, dtype=float)
        self.matched = matched
        self.excess[:] = excess
        self.resid[:] = resid

    # -- Strassen certificate --------------------------------------------------

    def _strassen_search(self) -> None:
        # Edges into left atom u's window are the run [first[u], stop[u]).
        # A seed u filled its window, so later rows' edges start at hi[u]
        # and a search from u only goes down: it reaches the rows with an
        # edge in [first[low], stop[u]), ``low`` stepping down to the lowest
        # such row, and crosses [lo[low], hi[u]).  A search that reaches the
        # span below joins it.
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

    def solve(self) -> float:
        """Run the greedy and certify it; returns the matched mass."""
        self._greedy()
        self._strassen_search()
        return self.matched
