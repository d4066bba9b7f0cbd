"""Bounded-variable dual simplex for small cut-master problems, resumable.

Solves max c.x (or min) subject to G x <= h, A x = b and finite box bounds
lb <= x <= ub on a dense tableau.  Every variable must carry finite bounds;
the callers in this package always optimize inside an explicit box, which
keeps every LP bounded and the tableau well scaled at desk size (tens of
variables, at most a few hundred rows).

Algorithm.  Row i gets a slack s_i = h_i - G_i x in [0, inf), or
s_i = b_i - A_i x fixed to [0, 0] for an equality row.  Variable bounds are
kept implicitly: a nonbasic variable sits at one of its bounds, so the
tableau has one row per constraint and none per bound.  The start basis is
all slacks, with each x_j at the bound its objective coefficient favours.
Since every bound is finite, that basis is dual feasible and no phase 1 is
needed; dual pivots (Chvatal 1983, ch. 10) then move the basic variables
into their bounds while keeping the reduced costs optimal.  The leaving row
is the most violated one (Dantzig's rule, ties to the larger pivot); after a
stall threshold both choices switch to smallest index (Bland's rule), so
cycling cannot run away on degenerate masters.

Infeasibility.  A violated row that no nonbasic variable can move proves the
LP infeasible.  The result's ``residual`` is then the minimum total row
violation over the box, sum (G x - h)+ + sum |A x - b|, taken from an
always-feasible elastic LP.  A residual within 1e-7 of the instance's scale
is a rounding artefact: that row counts as satisfied and the solve goes on.
Crossed bounds are infeasible with residual max(lb - ub).

Resuming.  A ``Master`` owns its tableau between solves.  After an optimal
``solve()``, ``add_rows(G_new, h_new)`` reduces the appended rows against the
final basis (basic columns eliminated) with their slacks basic.  That basis
is still dual feasible, so the next ``solve()`` restores primal feasibility
with dual pivots, typically a few.  This is the cutting-plane pattern (Kelley
1960): each round appends cuts to the last LP, and c, the bounds and the
equality rows never change.  Rows cannot be added after an infeasible or
stalled solve.  Resumed and cold solves reach the same optimal value; when
the optimum is not unique they may return different optimal vertices.
``solve_lp`` is a one-shot master.

State.  At desk size a solve costs numpy calls, not arithmetic, so the state
needs few: the reduced costs are the tableau's last row, and one array holds
every variable's value, bounds and sign.  Float64 inputs are read as given,
never copied or written, so callers may pass shared arrays (template rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-9  # smallest pivot, and the primal feasibility tolerance
_INFEAS_TOL = 1e-7  # residual, relative to the instance scale, that counts as feasible


@dataclass
class LPResult:
    status: str  # optimal | infeasible | stalled
    x: np.ndarray | None
    value: float
    residual: float = 0.0


def solve_lp(c, G, h, A_eq, b_eq, lb, ub, maximize: bool = True) -> LPResult:
    return Master(c, G, h, A_eq, b_eq, lb, ub, maximize).solve()


class Master:
    """An LP that keeps its tableau, so rows appended after an optimal solve
    resume from its final basis."""

    def __init__(self, c, G, h, A_eq, b_eq, lb, ub, maximize: bool = True):
        self.c = c = np.asarray(c, dtype=float).reshape(-1)
        n = c.shape[0]
        self.lb = lb = np.asarray(lb, dtype=float).reshape(-1)
        self.ub = ub = np.asarray(ub, dtype=float).reshape(-1)
        if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
            raise ValueError("solve_lp needs finite variable bounds")
        self.result = None  # of the current rows, once solved
        if (ub < lb - 1e-12).any():
            self.result = LPResult("infeasible", None, 0.0, float(np.max(lb - ub)))
            return
        G, h = _rows(G, h, n)
        self.A, self.b = A, b = _rows(A_eq, b_eq, n)
        self.G, self.h = [G], [h]  # inequality row blocks, stacked only when blocked
        cost = -c if maximize else c  # the tableau minimizes
        if A.shape[0]:
            G, h = np.vstack([G, A]), np.concatenate([h, b])
        self.tab = _Tableau(G, h, A.shape[0], cost, lb, ub)

    def add_rows(self, G_new, h_new) -> None:
        """Append rows G_new x <= h_new, reduced against the current basis."""
        if self.result is not None and self.result.status != "optimal":
            raise ValueError(f"cannot add rows to a {self.result.status} LP")
        G_new, h_new = _rows(G_new, h_new, self.c.shape[0])
        self.tab = self.tab.extended(G_new, h_new)
        self.G.append(G_new)
        self.h.append(h_new)
        self.result = None

    def solve(self) -> LPResult:
        if self.result is None:
            self.result = self._optimize()
        return self.result

    def _optimize(self) -> LPResult:
        tab, lb, ub = self.tab, self.lb, self.ub
        residual = None
        tolerated = []
        while True:
            status, var = tab.optimize(tolerated)
            if status != "blocked":
                break
            if residual is None:
                G, h, A, b = np.vstack(self.G), np.concatenate(self.h), self.A, self.b
                residual = _min_violation(G, h, A, b, lb, ub)
                scale = 1.0 + max(
                    float(np.max(np.abs(h - G @ lb), initial=0.0)),
                    float(np.max(np.abs(b - A @ lb), initial=0.0)),
                    float(np.max(ub - lb, initial=0.0)),
                )
                if residual > _INFEAS_TOL * scale:
                    return LPResult("infeasible", None, 0.0, residual)
            tolerated.append(var)
        if status != "optimal":
            return LPResult("stalled", None, 0.0)
        x = np.minimum(np.maximum(tab.S[0, : lb.shape[0]], lb), ub)
        return LPResult("optimal", x, float(self.c @ x))


def _rows(M, r, n: int) -> tuple[np.ndarray, np.ndarray]:
    """M and r as float arrays, copied only if not already C-ordered float."""
    if M is None or len(M) == 0:
        return np.zeros((0, n)), np.zeros(0)
    m = len(M)
    return np.ascontiguousarray(M, dtype=float).reshape(m, n), np.asarray(r, dtype=float).reshape(m)


class _Tableau:
    """B^-1 [M I] over n structural and m slack columns, with every value.

    ``T`` is that with the reduced costs of the minimization as a last row.
    ``S`` rows are xv, lo, hi and sgn over all n + m variables: the current
    value, the bounds, and +1 for a nonbasic variable at its lower bound, -1
    at its upper bound, 0 for a basic or fixed one, which never enters.
    """

    __slots__ = ("T", "basis", "S")

    def __init__(self, M, rhs, n_eq, cost, lb, ub):
        m, n = M.shape
        N = n + m
        self.T = T = np.zeros((m + 1, N))
        T[:m, :n] = M
        T.flat[n :: N + 1] = 1.0  # slack identity: entry (i, n + i) for each row i < m
        T[m, :n] = cost
        self.basis = np.arange(n, N)
        up = cost < 0.0  # the bound the minimization favours
        x = np.where(up, ub, lb)
        self.S = S = np.zeros((4, N))
        S[0, :n] = x
        S[0, n:] = rhs - M @ x
        S[1, :n] = lb
        S[2, :n] = ub
        S[2, n : N - n_eq] = np.inf
        S[3, :n] = np.where(up, -1.0, 1.0)
        S[3, :n][lb >= ub] = 0.0  # a fixed variable never enters

    def extended(self, G_new: np.ndarray, h_new: np.ndarray) -> _Tableau:
        """A copy with rows G_new x <= h_new appended, their slacks basic."""
        k, n = G_new.shape
        m, N = self.T.shape[0] - 1, self.T.shape[1]
        new = object.__new__(_Tableau)
        new.T = T = np.zeros((m + k + 1, N + k))
        T[:m, :N] = self.T[:m]
        T[m + k, :N] = self.T[m]
        R = T[m : m + k]
        R[:, :n] = G_new
        R.flat[N :: N + k + 1] = 1.0  # entry (i, N + i) of each new row i
        R[:, :N] -= R[:, self.basis] @ self.T[:m]
        new.basis = np.concatenate([self.basis, np.arange(N, N + k)])
        new.S = S = np.empty((4, N + k))
        S[:, :N] = self.S
        S[:, N:] = _NEW_SLACK
        S[0, N:] = h_new - G_new @ self.S[0, :n]
        return new

    def optimize(self, tolerated=()) -> tuple[str, int]:
        """Dual pivots until every basic variable not in ``tolerated`` is
        within its bounds.  Returns ("optimal", -1), ("stalled", -1), or
        ("blocked", j) when basic variable j violates a bound that no
        entering variable can repair."""
        T, basis, S = self.T, self.basis, self.S
        m, N = T.shape[0] - 1, T.shape[1]
        if m == 0:
            return "optimal", -1
        xv, lo, hi, sgn, d = S[0], S[1], S[2], S[3], T[m]
        B = S.take(basis, axis=1)  # the basic variables' columns of S
        xb, lo_b, hi_b = B[0], B[1], B[2]
        for j in tolerated:  # still basic: a tolerated variable never leaves
            lo_b[basis == j] = -np.inf
            hi_b[basis == j] = np.inf
        stall_at = 5 * (m + N) + 50
        status, leave = "stalled", -1
        for it in range(40 * (m + N) + 200):
            below = lo_b - xb
            viol = np.maximum(below, xb - hi_b)
            r = int(viol.argmax())
            if viol[r] <= _EPS:
                status, leave = "optimal", -1
                break
            if it >= stall_at:  # Bland: the violated basic variable of smallest index
                rows = (viol > _EPS).nonzero()[0]
                r = int(rows[basis[rows].argmin()])
            leave = int(basis[r])
            increase = below[r] > 0.0
            alpha = T[r]
            # entering candidates move x_B(r) toward its bound from theirs
            s = sgn * alpha
            cand = (s < -_EPS if increase else s > _EPS).nonzero()[0]
            if cand.size == 0:
                status = "blocked"
                break
            q = int(cand[0])
            if cand.size > 1:  # ratio test, in Python floats: a few candidates
                ratios = np.abs(d.take(cand) / alpha.take(cand)).tolist()
                lim = min(ratios) + 1e-12
                ties = [j for j, t in zip(cand.tolist(), ratios) if t <= lim]
                if len(ties) > 1 and it < stall_at:
                    q = ties[int(np.abs(alpha.take(ties)).argmax())]
                else:
                    q = ties[0]

            target = lo_b[r] if increase else hi_b[r]
            piv = alpha[q]
            step = (xb[r] - target) / piv
            col = T[:, q].copy()  # its last entry is d[q]
            xb -= step * col[:m]
            xb[r] = xv[q] + step
            xv[leave] = target
            T[r] /= piv
            col[r] = 0.0
            T -= col[:, None] * T[r]  # d -= d[q] * T[r] in the last row
            d[q] = 0.0
            basis[r] = q
            lo_b[r], hi_b[r] = lo[q], hi[q]
            sgn[q] = 0.0
            if lo[leave] < hi[leave]:
                sgn[leave] = 1.0 if increase else -1.0
        xv[basis] = xb
        return status, leave


# S column of an appended row's basic slack; its value is set from the row
_NEW_SLACK = np.array([[0.0], [0.0], [np.inf], [0.0]])


def _min_violation(G, h, A, b, lb, ub) -> float:
    """min over lb <= x <= ub of sum (G x - h)+ + sum |A x - b|.

    Elastic LP: G x - p <= h, A x - q + r = b, with p, q, r >= 0 capped at
    the largest violation the box allows, so every bound stays finite and
    the LP is always feasible.
    """
    mG, mE, n = G.shape[0], A.shape[0], lb.shape[0]

    def reach(M, r):  # max over the box of M x - r, floored at 0
        return np.maximum(np.maximum(M, 0.0) @ ub + np.minimum(M, 0.0) @ lb - r, 0.0)

    k = mG + 2 * mE
    M = np.zeros((mG + mE, n + k))
    M[:mG, :n] = G
    M[mG:, :n] = A
    M[:, n : n + mG + mE][np.diag_indices(mG + mE)] = -1.0
    M[mG:, n + mG + mE :][np.diag_indices(mE)] = 1.0
    cost = np.concatenate([np.zeros(n), np.ones(k)])
    tab = _Tableau(
        M,
        np.concatenate([h, b]),
        mE,
        cost,
        np.concatenate([lb, np.zeros(k)]),
        np.concatenate([ub, reach(G, h), reach(A, b), reach(-A, -b)]),
    )
    tolerated = []
    status, var = tab.optimize()
    while status == "blocked":  # rounding only: the elastic LP is feasible
        tolerated.append(var)
        status, var = tab.optimize(tolerated)
    return max(float(cost @ tab.S[0, : n + k]), 0.0)
