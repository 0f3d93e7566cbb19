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
convex bipartite graph").

One residual search then certifies it.  Starting from every left atom with
supply left over, it follows band edges to right atoms and flow edges back
to left atoms.  The left atoms it reaches form the Strassen set ``A``: every
right atom within ``eps`` of ``A`` is saturated by flow from ``A``, so the
matched mass equals the cut ``a(A^c) + b(A^eps)``, an upper bound on every
band flow.  A right atom with room reached by the search would be an
augmenting path, which the staircase argument rules out; it is reported as
``SolverDidNotConverge`` rather than repaired.

Capacities are real-valued probabilities.  Residuals at or below
``FLOW_TERMINATION`` are treated as exhausted, which guarantees termination
at the cost of up to ``(n + m) * FLOW_TERMINATION`` of unreported flow,
far below every tolerance used by the callers.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverDidNotConverge

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


class _SkipList:
    """Union-find 'next unvisited index' structure; stores visited indices only."""

    def __init__(self):
        self.next: dict[int, int] = {}

    def find(self, j: int) -> int:
        nxt = self.next
        root = j
        while root in nxt:
            root = nxt[root]
        while j != root:
            nxt[j], j = root, nxt[j]
        return root

    def remove(self, j: int) -> None:
        self.next[j] = j + 1


class BandFlow:
    """One max-flow problem at a fixed band width ``eps``.

    After ``solve()``, ``strassen`` is the boolean mask of the Strassen set
    over the left atoms.
    """

    def __init__(
        self,
        xs: np.ndarray,
        a: np.ndarray,
        ys: np.ndarray,
        b: np.ndarray,
        eps: float,
    ):
        self.eps = eps
        self.lo, self.hi = band_windows(xs, ys, eps)
        self.excess = np.asarray(a, dtype=float).copy()
        self.resid = np.asarray(b, dtype=float).copy()
        self.n = len(self.excess)
        self.m = len(self.resid)
        # flow[i] maps right index -> mass; by_right[j] maps left index -> mass
        self.flow: list[dict[int, float]] = [{} for _ in range(self.n)]
        self.by_right: list[dict[int, float]] = [{} for _ in range(self.m)]

    # -- greedy staircase ------------------------------------------------------

    def _greedy(self) -> None:
        # Every edge is written once, with more than FLOW_TERMINATION on it.
        lo, hi = self.lo.tolist(), self.hi.tolist()
        excess, resid = self.excess.tolist(), self.resid.tolist()
        flow, by_right = self.flow, self.by_right
        j = 0
        for i in range(self.n):
            need = excess[i]
            if need <= FLOW_TERMINATION:
                continue
            j = max(j, lo[i])
            end = hi[i]
            while need > FLOW_TERMINATION and j < end:
                room = resid[j]
                if room <= FLOW_TERMINATION:
                    j += 1
                    continue
                take = min(need, room)
                flow[i][j] = take
                by_right[j][i] = take
                resid[j] = room - take
                need -= take
            excess[i] = need
        self.excess[:] = excess
        self.resid[:] = resid

    # -- Strassen certificate --------------------------------------------------

    def _strassen_search(self) -> None:
        lo, hi = self.lo.tolist(), self.hi.tolist()
        resid = self.resid
        by_right = self.by_right
        seen = (self.excess > FLOW_TERMINATION).tolist()
        stack = [i for i, s in enumerate(seen) if s]
        skip = _SkipList()
        while stack:
            u = stack.pop()
            end = hi[u]
            j = skip.find(lo[u])
            while j < end:
                if resid[j] > FLOW_TERMINATION:
                    raise SolverDidNotConverge(
                        f"band flow at eps={self.eps!r} left an augmenting path "
                        f"to right atom {j}; the staircase greedy is not maximal"
                    )
                for w in by_right[j]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
                skip.remove(j)
                j = skip.find(j + 1)
        self.strassen = np.array(seen, dtype=bool)

    def solve(self) -> float:
        """Run the greedy and certify it; returns the matched mass."""
        self._greedy()
        self._strassen_search()
        return self.matched_mass()

    def matched_mass(self) -> float:
        total = 0.0
        for row in self.flow:
            total += sum(row.values())
        return total

    def edges(self) -> dict[tuple[int, int], float]:
        return {(i, j): v for i, row in enumerate(self.flow) for j, v in row.items()}
