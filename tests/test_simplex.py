"""LP kernel checked against brute-force vertex enumeration.

With finite box bounds every feasible region is a polytope, so the optimum
of a bounded LP sits on a vertex obtainable by intersecting n active rows.
Scanning all row subsets gives an oracle that shares no code with the
tableau implementation.
"""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from dfc import sets, simplex

SEED = 20240
CASES = 200
FEAS_TOL = 1e-7


def brute_force(c, G, h, A_eq, b_eq, lb, ub):
    """(status, max value) by scanning all candidate vertices."""
    n = len(c)
    rows = []
    rhs = []
    kinds = []
    if G is not None:
        for a, b in zip(G, h):
            rows.append(np.asarray(a, float))
            rhs.append(float(b))
            kinds.append("le")
    if A_eq is not None:
        for a, b in zip(A_eq, b_eq):
            rows.append(np.asarray(a, float))
            rhs.append(float(b))
            kinds.append("eq")
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(float(ub[j]))
        kinds.append("le")
        rows.append(-e)
        rhs.append(float(-lb[j]))
        kinds.append("le")

    def feasible(x):
        for a, b, k in zip(rows, rhs, kinds):
            v = float(a @ x)
            if k == "eq" and abs(v - b) > FEAS_TOL:
                return False
            if k == "le" and v > b + FEAS_TOL:
                return False
        return True

    eq_idx = [i for i, k in enumerate(kinds) if k == "eq"]
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        if any(i not in combo for i in eq_idx):
            continue
        A = np.array([rows[i] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, np.array([rhs[i] for i in combo]))
        if not feasible(x):
            continue
        v = float(np.dot(c, x))
        if best is None or v > best:
            best = v
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_instance(rng, with_eq=False):
    n = int(rng.integers(2, 4))
    m = int(rng.integers(1, 5))
    G = rng.normal(size=(m, n))
    h = rng.uniform(-0.5, 2.0, m)
    lb = rng.uniform(-3.0, -0.5, n)
    ub = rng.uniform(0.5, 3.0, n)
    c = rng.normal(size=n)
    A_eq = b_eq = None
    if with_eq:
        a = rng.normal(size=n)
        # pass the plane through a box point so the slice is often nonempty
        p = rng.uniform(lb, ub)
        A_eq = a.reshape(1, -1)
        b_eq = np.array([float(a @ p)])
    return c, G, h, A_eq, b_eq, lb, ub


def test_matches_vertex_oracle_on_inequalities():
    rng = np.random.default_rng(SEED)
    infeasible_seen = 0
    for _ in range(CASES):
        c, G, h, A_eq, b_eq, lb, ub = random_instance(rng)
        res = simplex.solve_lp(c, G, h, A_eq, b_eq, lb, ub)
        status, value = brute_force(c, G, h, A_eq, b_eq, lb, ub)
        assert res.status == status
        if status == "optimal":
            assert res.value == pytest.approx(value, abs=1e-7 * (1 + abs(value)))
            assert np.all(G @ res.x <= np.asarray(h) + 1e-7)
            assert np.all(res.x >= lb - 1e-9) and np.all(res.x <= ub + 1e-9)
        else:
            infeasible_seen += 1
    assert infeasible_seen > 0


def test_matches_vertex_oracle_with_equalities():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(CASES):
        c, G, h, A_eq, b_eq, lb, ub = random_instance(rng, with_eq=True)
        res = simplex.solve_lp(c, G, h, A_eq, b_eq, lb, ub)
        status, value = brute_force(c, G, h, A_eq, b_eq, lb, ub)
        assert res.status == status
        if status == "optimal":
            assert res.value == pytest.approx(value, abs=1e-7 * (1 + abs(value)))
            assert abs(float(A_eq[0] @ res.x) - float(b_eq[0])) <= 1e-7


def test_bounds_only_box_corner():
    res = simplex.solve_lp(
        [1.0, -2.0], None, None, None, None, [-1.0, -1.0], [2.0, 3.0]
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([2.0, -1.0])
    assert res.value == pytest.approx(4.0)


def test_degenerate_duplicate_rows_deterministic():
    G = [[1.0, 1.0]] * 6 + [[1.0, 0.0]] * 3
    h = [1.0] * 6 + [0.6] * 3
    a = simplex.solve_lp([1.0, 1.0], G, h, None, None, [0.0, 0.0], [5.0, 5.0])
    b = simplex.solve_lp([1.0, 1.0], G, h, None, None, [0.0, 0.0], [5.0, 5.0])
    assert a.status == "optimal"
    assert a.value == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(a.x, b.x)


def test_infeasible_rows_detected():
    res = simplex.solve_lp(
        [1.0], [[1.0], [-1.0]], [0.0, -1.0], None, None, [-5.0], [5.0]
    )
    assert res.status == "infeasible"


def test_crossed_bounds_infeasible():
    res = simplex.solve_lp([1.0], None, None, None, None, [1.0], [0.0])
    assert res.status == "infeasible"
    assert res.residual > 0


def test_infinite_bounds_rejected():
    with pytest.raises(sets.OutOfDomain):
        simplex.solve_lp([1.0], None, None, None, None, [-math.inf], [1.0])


@pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
def test_non_finite_objective_rejected(cost):
    """A NaN cost would otherwise come back "optimal" with value NaN."""
    with pytest.raises(sets.OutOfDomain, match="solve_lp needs a finite objective"):
        simplex.solve_lp([cost, 1.0], [[1.0, 1.0]], [1.0], None, None, [-5, -5], [5, 5])


def test_zero_objective_returns_feasible_point():
    G = [[1.0, 1.0]]
    h = [1.0]
    res = simplex.solve_lp([0.0, 0.0], G, h, None, None, [0.0, 0.0], [2.0, 2.0])
    assert res.status == "optimal"
    assert float(res.x[0] + res.x[1]) <= 1.0 + 1e-9
    assert res.value == 0.0


# ---------------------------------------------------------------------------
# resumed solves: rows appended to an optimal master
# ---------------------------------------------------------------------------


def min_violation_oracle(G, h, A_eq, b_eq, lb, ub):
    """min over the box of sum (Gx - h)+ + sum |A_eq x - b_eq|.

    The objective is convex and piecewise linear, so its minimum over the box
    sits where n of the breakpoint planes {G_i x = h_i}, {A_i x = b_i} and the
    box faces meet; scanning those intersections needs no LP.
    """
    n = len(lb)
    G = np.zeros((0, n)) if G is None else np.asarray(G, float)
    A = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, float)
    h = np.zeros(0) if h is None else np.asarray(h, float)
    b = np.zeros(0) if b_eq is None else np.asarray(b_eq, float)
    planes = [(r, v) for r, v in zip(G, h)] + [(r, v) for r, v in zip(A, b)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes += [(e, float(lb[j])), (e, float(ub[j]))]

    def total(x):
        return float(np.sum(np.maximum(G @ x - h, 0.0)) + np.sum(np.abs(A @ x - b)))

    best = math.inf
    for combo in itertools.combinations(planes, n):
        M = np.array([p[0] for p in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, np.array([p[1] for p in combo]))
        if np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9):
            best = min(best, total(np.clip(x, lb, ub)))
    return best


def appended(rng, G, h, k):
    n = G.shape[1]
    return np.vstack([G, rng.normal(size=(k, n))]), np.concatenate([h, rng.uniform(-0.5, 2.0, k)])


def test_resumed_solves_match_cold_and_vertex_oracle():
    rng = np.random.default_rng(SEED + 3)
    resumed = infeasible_after_append = kept = 0
    for case in range(CASES):
        c, G, h, A_eq, b_eq, lb, ub = random_instance(rng, with_eq=case % 3 == 0)
        master = simplex.Master(c, G, h, A_eq, b_eq, lb, ub)
        res = master.solve()
        for _ in range(int(rng.integers(1, 4))):
            if res.status != "optimal":
                break
            k = int(rng.integers(1, 4))
            G, h = appended(rng, G, h, k)
            cuts_off = master.add_rows(G[-k:], h[-k:])
            assert cuts_off == bool((G[-k:] @ res.x - h[-k:] > 1e-9).any())
            warm = master.solve()
            if not cuts_off:  # rows that leave the optimum feasible move nothing
                kept += 1
                assert np.array_equal(warm.x, res.x)
            cold = simplex.solve_lp(c, G, h, A_eq, b_eq, lb, ub)
            status, value = brute_force(c, G, h, A_eq, b_eq, lb, ub)
            resumed += 1
            assert warm.status == cold.status == status
            if status == "optimal":
                tol = 1e-7 * (1 + abs(value))
                assert warm.value == pytest.approx(value, abs=tol)
                assert cold.value == pytest.approx(value, abs=tol)
                assert np.all(G @ warm.x <= h + 1e-7)
                assert np.all(warm.x >= lb) and np.all(warm.x <= ub)
                if A_eq is not None:
                    assert abs(float(A_eq[0] @ warm.x) - float(b_eq[0])) <= 1e-7
            else:
                infeasible_after_append += 1
                want = min_violation_oracle(G, h, A_eq, b_eq, lb, ub)
                assert warm.residual > 0
                assert warm.residual == pytest.approx(want, abs=1e-7 * (1 + want))
                assert cold.residual == pytest.approx(warm.residual, abs=1e-9)
            res = warm
    assert resumed > CASES
    assert infeasible_after_append > 0 and kept > 0


def test_resumed_solve_does_not_rebuild_the_tableau(monkeypatch):
    rng = np.random.default_rng(SEED + 4)
    c, G, h, _, _, lb, ub = random_instance(rng)
    G, h = np.vstack([G, -np.eye(len(c))]), np.concatenate([h, np.full(len(c), 0.4)])
    master = simplex.Master(c, G, h, None, None, lb, ub)
    res = master.solve()
    assert res.status == "optimal"
    G2, h2 = appended(rng, G, h, 2)
    cold = simplex.solve_lp(c, G2, h2, None, None, lb, ub)

    def cold_start(*args, **kwargs):
        raise AssertionError("resumed solve started from scratch")

    monkeypatch.setattr(simplex._Tableau, "__init__", cold_start)
    before = res.x.copy()
    master.add_rows(G2[-2:], h2[-2:])
    warm = master.solve()
    assert warm.status == "optimal"
    assert warm.value == pytest.approx(cold.value, abs=1e-9 * (1 + abs(cold.value)))
    assert np.array_equal(res.x, before)  # the earlier result is left intact
    again = master.solve()  # nothing appended: the same result, no pivots
    assert again is warm


def test_master_refuses_rows_after_a_nonoptimal_solve_or_of_the_wrong_width(monkeypatch):
    infeasible = simplex.Master([1.0], [[1.0], [-1.0]], [0.0, -1.0], None, None, [-5.0], [5.0])
    crossed = simplex.Master([1.0], None, None, None, None, [1.0], [0.0])
    for master in (infeasible, crossed):
        assert master.solve().status == "infeasible"
        with pytest.raises(sets.OutOfDomain, match="infeasible"):
            master.add_rows([[1.0]], [0.5])

    monkeypatch.setattr(simplex._Tableau, "optimize", lambda self, tolerated=(): ("stalled", -1))
    stalled = simplex.Master([1.0, 1.0], [[1.0, 1.0]], [1.0], None, None, [0.0, 0.0], [2.0, 2.0])
    assert stalled.solve().status == "stalled"
    with pytest.raises(sets.OutOfDomain, match="stalled"):
        stalled.add_rows([[1.0, 0.0]], [0.5])
    monkeypatch.undo()

    master = simplex.Master([1.0, 1.0], [[1.0, 1.0]], [1.0], None, None, [0.0, 0.0], [2.0, 2.0])
    res = master.solve()
    assert res.value == pytest.approx(1.0)
    for rows, rhs in (
        ([[1.0, 0.0, 0.0]], [0.5]),  # a row too wide
        ([[1.0]], [0.5]),  # a row too narrow
        ([[1.0, 0.0], [0.0, 1.0]], [0.5]),  # one right-hand side for two rows
    ):
        with pytest.raises(sets.DimensionMismatch):
            master.add_rows(rows, rhs)
    assert master.solve() is res  # refused rows leave the LP as it was
    master.add_rows([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.5])
    assert master.solve().value == pytest.approx(0.75)


def test_master_resumes_after_a_tolerated_row(monkeypatch):
    """A row violated at rounding level (5e-9) that no pivot can repair is
    tolerated; a resumed solve after it still matches a cold solve."""
    priced = []
    min_violation = simplex._min_violation
    monkeypatch.setattr(
        simplex, "_min_violation", lambda *a: priced.append(min_violation(*a)) or priced[-1]
    )
    c, lb, ub = np.array([1.0, 1.0]), np.zeros(2), np.ones(2)
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    h = np.array([0.5, -0.5 - 5e-9])
    master = simplex.Master(c, G, h, None, None, lb, ub)
    res = master.solve()
    assert res.status == "optimal"
    assert priced and 0.0 < priced[0] <= 1e-8  # the row was blocked, then tolerated
    assert res.value == pytest.approx(1.5)
    G2, h2 = np.vstack([G, [[0.0, 1.0]]]), np.concatenate([h, [0.3]])
    master.add_rows(G2[-1:], h2[-1:])
    warm = master.solve()
    cold = simplex.solve_lp(c, G2, h2, None, None, lb, ub)
    assert warm.status == cold.status == "optimal"
    assert warm.value == pytest.approx(cold.value, abs=1e-12)
    assert warm.value == pytest.approx(0.8)
    assert np.allclose(warm.x, [0.5, 0.3])
    G3, h3 = np.vstack([G2, [[1.0, 0.0]]]), np.concatenate([h2, [0.4]])
    master.add_rows(G3[-1:], h3[-1:])  # now really infeasible
    warm = master.solve()
    cold = simplex.solve_lp(c, G3, h3, None, None, lb, ub)
    assert warm.status == cold.status == "infeasible"
    assert warm.residual == pytest.approx(cold.residual, abs=1e-12)
    assert warm.residual == pytest.approx(0.1, abs=1e-7)


@pytest.mark.parametrize("row", [0, 1])
def test_nan_data_stalls_instead_of_looping(row):
    """A NaN right-hand side keeps its row's slack blocked after it was
    tolerated: both tolerance loops end, the solve as "stalled" and the
    elastic LP with a NaN residual."""
    G, lb, ub = np.eye(2), np.full(2, -5.0), np.full(2, 5.0)
    h = np.ones(2)
    h[row] = np.nan
    res = simplex.solve_lp(np.ones(2), G, h, None, None, lb, ub)
    assert res.status == "stalled" and res.x is None
    res = simplex.solve_lp(np.ones(2), G[:1], [1.0], [[1.0, -1.0]], [np.nan], lb, ub)
    assert res.status == "stalled"
    assert math.isnan(simplex._min_violation(G, h, np.zeros((0, 2)), np.zeros(0), lb, ub))


def test_master_reads_its_input_arrays_and_never_writes_them():
    """Float64 inputs are used as given, not copied: a solve, an append and a
    resumed solve leave each byte for byte, and no result shares memory
    with any of them."""
    rng = np.random.default_rng(SEED + 8)
    for _ in range(CASES):
        c, G, h, A_eq, b_eq, lb, ub = random_instance(rng, with_eq=True)
        if simplex.solve_lp(c, G, h, A_eq, b_eq, lb, ub).status == "optimal":
            break
    G_new, h_new = rng.normal(size=(2, len(c))), rng.uniform(-0.5, 2.0, 2)
    inputs = (c, G, h, A_eq, b_eq, lb, ub, G_new, h_new)
    before = [a.tobytes() for a in inputs]
    master = simplex.Master(c, G, h, A_eq, b_eq, lb, ub)
    first = master.solve()
    assert first.status == "optimal"
    master.add_rows(G_new, h_new)
    second = master.solve()
    assert [a.tobytes() for a in inputs] == before
    for res in (first, second):
        if res.x is not None:
            assert not any(np.shares_memory(res.x, a) for a in inputs)


def test_infeasible_residual_is_minimum_total_violation():
    rng = np.random.default_rng(SEED + 6)
    seen = 0
    for case in range(CASES):
        c, G, h, A_eq, b_eq, lb, ub = random_instance(rng, with_eq=case % 2 == 0)
        res = simplex.solve_lp(c, G, h, A_eq, b_eq, lb, ub)
        if res.status != "infeasible":
            continue
        seen += 1
        want = min_violation_oracle(G, h, A_eq, b_eq, lb, ub)
        assert res.residual > 0
        assert res.residual == pytest.approx(want, abs=1e-7 * (1 + want))
    assert seen > 0


# ---------------------------------------------------------------------------
# differential check against an independent solver (test-only dependency)
# ---------------------------------------------------------------------------


def test_matches_highs_cold_and_warm():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(SEED + 7)
    statuses = {0: "optimal", 2: "infeasible"}
    seen = set()

    def check(res, c, G, h, A_eq, b_eq, lb, ub):
        ref = linprog(
            -c, A_ub=G, b_ub=h, A_eq=A_eq, b_eq=b_eq,
            bounds=list(zip(lb, ub)), method="highs",
        )
        assert ref.status in statuses
        assert res.status == statuses[ref.status]
        seen.add(res.status)
        if res.status == "optimal":
            assert res.value == pytest.approx(-ref.fun, abs=1e-7 * (1 + abs(ref.fun)))

    for case in range(CASES):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 11))
        c = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        h = rng.uniform(-0.5, 2.0, m)
        lb = rng.uniform(-3.0, -0.5, n)
        ub = rng.uniform(0.5, 3.0, n)
        A_eq = b_eq = None
        if case % 2:
            k = int(rng.integers(1, min(n, 3) + 1))
            A_eq = rng.normal(size=(k, n))
            b_eq = A_eq @ rng.uniform(lb, ub)
        res = simplex.solve_lp(c, G, h, A_eq, b_eq, lb, ub)
        check(res, c, G, h, A_eq, b_eq, lb, ub)
        master = simplex.Master(c, G, h, A_eq, b_eq, lb, ub)
        assert master.solve().value == res.value
        for _ in range(int(rng.integers(1, 4))):
            if res.status != "optimal":
                break
            k = int(rng.integers(1, 4))
            G, h = appended(rng, G, h, k)
            master.add_rows(G[-k:], h[-k:])
            res = master.solve()
            check(res, c, G, h, A_eq, b_eq, lb, ub)
    assert seen == {"optimal", "infeasible"}


def test_duals_slope_the_optimum_in_a_fixed_variable():
    """At an optimum, duals() holds each variable's reduced cost: 0 on a
    basic variable, and on a fixed one a supergradient of the maximum as a
    function of its value, V(a) <= V(a0) + d0 (a - a0), by weak duality."""
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(CASES):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        c, G = rng.normal(size=n), rng.normal(size=(m, n))
        h = rng.uniform(0.0, 2.0, m)
        lb, ub = np.full(n, -1.0), np.full(n, 1.0)

        def pinned(a):
            return simplex.Master(c, G, h, None, None, np.r_[a, lb[1:]], np.r_[a, ub[1:]])

        master = pinned(0.0)
        res = master.solve()
        d = master.duals()
        free = (res.x[1:] > lb[1:] + 1e-7) & (res.x[1:] < ub[1:] - 1e-7)
        assert np.all(np.abs(d[1:][free]) <= 1e-9)
        for a in np.linspace(-1.0, 1.0, 9):
            other = pinned(a).solve()
            if other.status == "optimal":
                assert other.value <= res.value + d[0] * a + 1e-9
                checked += 1
    assert checked > CASES


def test_duals_of_an_infeasible_solve_are_a_farkas_row():
    """After an infeasible solve, duals() is the blocking row rho: rho.x
    stays at most 1 on the row x0 + x1 <= 1, while its least value over the
    bounds [1, 2]^2 exceeds 1."""
    G, h = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 5.0])
    lb, ub = np.ones(2), np.full(2, 2.0)
    master = simplex.Master(np.array([1.0, 0.5]), G, h, None, None, lb, ub)
    assert master.solve().status == "infeasible"
    rho = master.duals()
    least = float(np.where(rho > 0.0, rho * lb, rho * ub).sum())
    wide = np.full(2, 1e3)
    on_rows = simplex.solve_lp(rho, G, h, None, None, -wide, wide)
    assert on_rows.status == "optimal"
    assert on_rows.value < least - 0.5


def test_only_the_one_cut_loop_and_solve_lp_build_masters():
    """Every optimization is one simplex.Master: solve_lp builds one for a
    single LP and maximize_over_atoms one per cut loop.  No other function
    in the package constructs one, so no second cut loop can grow."""
    def sites(node, where):
        for child in ast.iter_child_nodes(node):
            f = getattr(child, "func", None)
            if isinstance(child, ast.Call) and "Master" in (
                getattr(f, "id", None), getattr(f, "attr", None)
            ):
                yield where
            inner = getattr(child, "name", where) if isinstance(child, ast.FunctionDef) else where
            yield from sites(child, inner)

    found = set()
    for path in sorted(Path(simplex.__file__).parent.glob("*.py")):
        found.update((path.stem, fn) for fn in sites(ast.parse(path.read_text()), "<module>"))
    assert found == {("simplex", "solve_lp"), ("analysis", "maximize_over_atoms")}
