"""Optimizer, vertex enumeration, sampling, and verdict checks.

Oracles: brute-force active-row vertex scans for the double description
method, closed-form support values for the cutting-plane optimizer, and two
hand-built one-dimensional formulations whose sharp/ideal verdicts are
derivable on paper (a tight assignment form and a loose big-M form).
"""

import itertools
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from dfc import analysis, builders, cli, fixtures, gauge, model, sets, simplex
from dfc.gauge import Aff, GaugePlus, Linear, Perspective, SOC

SEED = 20240
CASES = 200
INF = math.inf


# ---------------------------------------------------------------------------
# vertex enumeration against a combinatorial oracle
# ---------------------------------------------------------------------------


def vertex_oracle(G, h, tol=1e-7):
    """All vertices of {Gx <= h} by scanning row subsets."""
    G = np.asarray(G, float)
    h = np.asarray(h, float)
    n = G.shape[1]
    out = []
    for combo in itertools.combinations(range(G.shape[0]), n):
        A = G[list(combo)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, h[list(combo)])
        if np.all(G @ x <= h + tol):
            out.append(x)
    if not out:
        return np.zeros((0, n))
    uniq = {}
    for p in out:
        uniq.setdefault(tuple(np.round(p, 7)), p)
    return np.array(sorted(uniq.values(), key=lambda p: tuple(p)))


def sorted_rows(M):
    return np.array(sorted(np.asarray(M).tolist()))


def match_distance(got, want):
    """Largest distance from any wanted row to its nearest produced row."""
    worst = 0.0
    for p in want:
        worst = max(worst, float(np.min(np.abs(got - p).max(axis=1))))
    return worst


def test_enumerate_vertices_matches_oracle_random_polytopes():
    rng = np.random.default_rng(SEED)
    done = 0
    while done < CASES:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 1, 7))
        G = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
        h = np.concatenate([rng.uniform(0.2, 1.5, m), np.full(2 * n, 2.0)])
        want = vertex_oracle(G, h)
        got = analysis.enumerate_vertices(G, h)
        assert got.rays.shape[0] == 0
        assert got.lineality.shape[0] == 0
        assert got.vertices.shape[0] == want.shape[0]
        if want.shape[0]:
            assert match_distance(got.vertices, want) <= 1e-6
        done += 1


def _scipy_vertices(G, h):
    """Vertices of the bounded {G x <= h} from scipy's halfspace intersection
    around the Chebyshev center, deduplicated at 1e-9."""
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection

    n = G.shape[1]
    norms = np.linalg.norm(G, axis=1)
    lp = linprog(
        np.r_[np.zeros(n), -1.0],
        A_ub=np.c_[G, norms],
        b_ub=h,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    assert lp.status == 0 and lp.x[n] > 1e-6
    hs = HalfspaceIntersection(np.c_[G, -h], lp.x[:n])
    uniq = {}
    for p in hs.intersections:
        uniq.setdefault(tuple(np.round(p, 9)), p)
    return np.array(list(uniq.values()))


def test_enumerate_vertices_matches_scipy_halfspace_intersection():
    """Independent cross-check: random bounded polytopes in dimensions 2-4,
    half of them cut by equality rows, against scipy's Qhull.  The equality
    case is solved in coordinates t of the affine subspace, x = x0 + N t."""
    pytest.importorskip("scipy")
    rng = np.random.default_rng(SEED)
    for case in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, 8))
        G = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
        h = np.concatenate([rng.uniform(0.2, 1.5, m), np.full(2 * n, 2.0)])
        k = int(rng.integers(1, n - 1)) if case % 2 and n > 2 else 0
        A = rng.normal(size=(k, n))
        b = A @ rng.uniform(-0.05, 0.05, n)
        got = analysis.enumerate_vertices(G, h, A if k else None, b if k else None)
        assert got.rays.shape[0] == 0 and got.lineality.shape[0] == 0
        if k:
            x0 = np.linalg.lstsq(A, b, rcond=None)[0]
            N = np.linalg.svd(A)[2][k:].T  # orthonormal null-space basis
            want = x0 + _scipy_vertices(G @ N, h - G @ x0) @ N.T
            assert np.abs(got.vertices @ A.T - b).max() <= 1e-9
        else:
            want = _scipy_vertices(G, h)
        assert got.vertices.shape == want.shape
        assert match_distance(got.vertices, want) <= 1e-7
        assert match_distance(want, got.vertices) <= 1e-7


def test_enumerate_vertices_unbounded_quadrant():
    vs = analysis.enumerate_vertices([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    assert vs.vertices.shape[0] == 1
    assert np.allclose(vs.vertices[0], [0.0, 0.0], atol=1e-9)
    assert sorted_rows(np.round(vs.rays, 9)).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_enumerate_vertices_lineality_strip():
    vs = analysis.enumerate_vertices([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
    assert vs.lineality.shape[0] == 1
    assert abs(abs(float(vs.lineality[0, 1])) - 1.0) <= 1e-9
    xs = sorted(float(v[0]) for v in vs.vertices)
    assert xs == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_enumerate_vertices_with_equalities():
    vs = analysis.enumerate_vertices(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [1.0, 0.0, 1.0, 0.0],
        A_eq=[[1.0, -1.0]],
        b_eq=[0.0],
    )
    want = [[0.0, 0.0], [1.0, 1.0]]
    assert sorted_rows(np.round(vs.vertices, 9)).tolist() == want


def test_enumerate_vertices_empty_region():
    vs = analysis.enumerate_vertices([[1.0], [-1.0]], [-1.0, 0.0])
    assert vs.vertices.shape[0] == 0
    assert vs.rays.shape[0] == 0


def test_enumerate_vertices_caps():
    with pytest.raises(analysis.ExactModeUnavailable):
        analysis.enumerate_vertices(np.eye(65), np.ones(65))
    with pytest.raises(analysis.ExactModeUnavailable):
        analysis.enumerate_vertices(np.eye(11), np.ones(11))


# ---------------------------------------------------------------------------
# cutting-plane optimizer against closed forms
# ---------------------------------------------------------------------------


def named_vars(*names, lo=-INF, hi=INF):
    return [(nm, lo, hi) for nm in names]


def test_soc_maximization_matches_ball_support():
    rng = np.random.default_rng(SEED)
    atoms = [SOC((Aff.var("x0"), Aff.var("x1")), Aff.const_of(1.5))]
    compiled = analysis.compile_atoms(atoms, named_vars("x0", "x1"))
    for _ in range(CASES):
        u = rng.normal(size=2)
        res = analysis.maximize_over_atoms(compiled, u)
        assert res.status == "optimal"
        want = 1.5 * float(np.linalg.norm(u))
        assert res.value == pytest.approx(want, abs=1e-6 * (1 + want))


def test_gauge_atom_maximization_matches_polytope_support():
    rng = np.random.default_rng(SEED)
    diamond = sets.vpoly([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    atom = GaugePlus(
        diamond,
        (((1.0, 0.0), Aff.var("x0")), ((0.0, 1.0), Aff.var("x1"))),
        Aff.const_of(1.0),
        positive_part=False,
    )
    compiled = analysis.compile_atoms([atom], named_vars("x0", "x1"))
    for _ in range(CASES):
        u = rng.normal(size=2)
        res = analysis.maximize_over_atoms(compiled, u)
        assert res.status == "optimal"
        want = float(np.max(np.abs(u)))
        assert res.value == pytest.approx(want, abs=1e-6 * (1 + want))


def parabola_cap_max(u, grid=4001):
    # max of u.x over {x0 in [-1, 1], pos(x0)^2 <= x1 <= 1}
    xs = np.linspace(-1.0, 1.0, grid)
    lo = np.maximum(xs, 0.0) ** 2
    best = np.maximum(u[1] * lo, u[1] * 1.0) + u[0] * xs
    return float(np.max(best))


def test_perspective_maximization_matches_grid_oracle():
    rng = np.random.default_rng(SEED)
    fn = sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0))
    atoms = [
        Perspective(fn, (Aff.var("x0"), Aff.var("x1")), Aff.const_of(1.0)),
        Linear(Aff.of({"x0": 1.0}, -1.0)),
        Linear(Aff.of({"x0": -1.0}, -1.0)),
        Linear(Aff.of({"x1": 1.0}, -1.0)),
        Linear(Aff.of({"x1": -1.0})),
    ]
    compiled = analysis.compile_atoms(atoms, named_vars("x0", "x1"))
    for _ in range(60):
        u = rng.normal(size=2)
        res = analysis.maximize_over_atoms(compiled, u)
        assert res.status == "optimal"
        want = parabola_cap_max(u)
        assert res.value == pytest.approx(want, abs=2e-5 * (1 + abs(want)))


def test_infeasible_rows_short_circuit():
    atoms = [Linear(Aff.of({"x0": 1.0}, 1.0)), Linear(Aff.of({"x0": -1.0}, 1.0))]
    compiled = analysis.compile_atoms(atoms, named_vars("x0"))
    res = analysis.maximize_over_atoms(compiled, np.ones(1))
    assert res.status == "infeasible"


def test_trivially_infeasible_constant_row():
    atoms = [Linear(Aff.const_of(1.0))]
    compiled = analysis.compile_atoms(atoms, named_vars("x0"))
    assert compiled.trivially_infeasible
    res = analysis.maximize_over_atoms(compiled, np.ones(1))
    assert res.status == "infeasible"


def test_box_active_reported_for_unbounded_direction():
    compiled = analysis.compile_atoms([], named_vars("x0"))
    res = analysis.maximize_over_atoms(compiled, np.ones(1))
    assert res.status == "optimal"
    assert res.box_active


def test_cut_loop_converges_on_ex1_extended_stall_direction(tmp_path, capsys):
    """A joint direction on which the ex1/extended relaxation's cut loop
    once added one cut per round without converging (over a thousand
    rounds), so `dfc analyze` of that check never finished for some seeds.
    At the optimum the relaxation meets the embedded union support."""
    spec = fixtures.load("ex1", "extended")
    form = builders.build(spec)
    d = np.array([0.7127, -0.1800, 0.6496, 0.1939])
    n = len(form.x_names)
    compiled = analysis.compile_relaxation(form)
    obj = np.zeros(len(compiled.names))
    for nm, v in zip(form.x_names + form.y_names, d):
        obj[compiled.index[nm]] += v
    res = analysis.maximize_over_atoms(compiled, obj)
    assert res.status == "optimal"
    assert res.rounds <= 200
    bound = max(sets.support(S, d[:n]) + d[n + i] for i, S in enumerate(form.sets))
    assert res.value == pytest.approx(bound, abs=1e-6)

    inst = tmp_path / "ex1_extended.json"
    inst.write_bytes(model.canonical_bytes(model.spec_doc(spec)))
    argv = ["analyze", "--instance", str(inst), "--check", "ideal"]
    argv += ["--directions", "64", "--seed", "1525291963"]
    assert cli.main(argv) == 0
    assert "ideal: not-refuted" in capsys.readouterr().out


E1 = Aff.of({"x0": 1.0, "x1": -0.5}, 0.3)
E2 = Aff.of({"x1": 2.0, "x2": 0.25}, -0.1)
BOUND = Aff.of({"x0": 0.2, "x2": 1.5}, 0.7)
GEOMEAN = sets.GeoMeanDeficit(1.0, 0.5, 2)
SEPARATED_ATOMS = {
    "soc": SOC((E1, E2), BOUND),
    "quadratic_plus": Perspective(sets.QuadraticPlus((1.0, -0.5), 0.2, (0.3, 1.0)), (E1, E2), BOUND),
    "geomean": Perspective(GEOMEAN, (E1, E2), BOUND),
    "max_of": Perspective(
        sets.MaxOf((sets.AffineFn((1.0, 1.0), -1.0), GEOMEAN)), (E1, E2), BOUND
    ),
    "gauge_plus": GaugePlus(
        sets.box((-1.0, -1.0), (2.0, 1.0)), (((1.0, 0.0), E1), ((0.0, 1.0), E2)), BOUND
    ),
    "gauge_plain": GaugePlus(
        sets.ball((0.2, 0.0), 1.0),
        (((1.0, 0.5), E1), ((0.0, 1.0), E2)),
        BOUND,
        positive_part=False,
    ),
}


@pytest.mark.parametrize("kind", sorted(SEPARATED_ATOMS))
def test_each_atom_block_separates_in_its_argument_space(kind):
    """The separation contract per atom type, at seeded points z: the
    compiled block's M z + c is the atom's expressions (gauge.atom_exprs),
    its violation is gauge.atom_violation's, and at a violated point that
    meets the compiled rows, as every master optimum does, some cut row
    (g M) z <= off - g.c cuts z off while every compiled row and cut row
    holds at each sampled point where the atom holds."""
    atom = SEPARATED_ATOMS[kind]
    names = ("x0", "x1", "x2")
    compiled = analysis.compile_atoms([atom], named_vars(*names))
    [(block_atom, M, c)] = compiled.nonlinear
    assert block_atom is atom
    rng = np.random.default_rng(SEED)
    points = rng.uniform(-2.0, 2.0, (400, 3))
    envs = [dict(zip(names, z.tolist())) for z in points]
    holds = []
    for z, env in zip(points, envs):
        v = M @ z + c
        assert v == pytest.approx([e.evaluate(env) for e in gauge.atom_exprs(atom)], abs=1e-12)
        viol = analysis._atom_violation_and_cuts(atom, v, want_cut=False)[0]
        assert viol == pytest.approx(gauge.atom_violation(atom, env), rel=1e-9, abs=1e-12)
        if viol <= -1e-9:
            holds.append(z)
    holds = np.array(holds)
    assert 10 <= len(holds) <= 390
    assert np.all(holds @ compiled.rows.T <= compiled.rhs + 1e-9)
    separated = 0
    for z in points:
        v = M @ z + c
        viol, cuts = analysis._atom_violation_and_cuts(atom, v, want_cut=True)
        if viol <= 1e-6 or np.any(compiled.rows @ z > compiled.rhs):
            continue
        rows = [(g @ M, off - g @ c) for g, off in cuts]
        assert max(row @ z - rhs for row, rhs in rows) > 1e-9
        for row, rhs in rows:
            assert np.all(holds @ row <= rhs + 1e-9 * (1.0 + np.abs(holds) @ np.abs(row)))
        separated += 1
    assert separated >= 10


def test_a_violated_atom_without_a_cut_stalls_its_first_round(monkeypatch):
    """A round whose violated atoms give no cut separates nothing, in the
    plain loop and in the feasibility gap's slack mode alike."""
    atoms = [SOC((Aff.var("x0"), Aff.var("x1")), Aff.const_of(1.5))]
    compiled = analysis.compile_atoms(atoms, named_vars("x0", "x1"))
    monkeypatch.setattr(analysis, "_atom_violation_and_cuts", lambda *args, **kwargs: (1.0, []))
    res = analysis.maximize_over_atoms(compiled, np.ones(2))
    assert (res.status, res.rounds) == ("stalled", 1)
    gap, env = analysis.feasibility_gap(compiled)
    assert gap == 1.0 and env is not None


def test_feasibility_loop_stalls_when_its_cut_leaves_the_master_optimum(monkeypatch):
    """The direction (1, 0.3) leaves the recession cone of a parabola's
    epigraph plus the ray (0, 1): its level-set atom stays +inf at tau = 0
    while its cuts close in on a point that they no longer separate (by
    less than half each round, from 0.5).  The loop stalls at the first
    round whose cut leaves the master optimum feasible, round 27, instead
    of adding that cut again until a round cap, and the gap still reads the
    direction out."""
    S = sets.sum_cone(sets.level_set(sets.QuadraticPlus((1, 0), 0, (0, 1))), [[0, 1]])
    results = []

    def recording(*args, _real=analysis.maximize_over_atoms, **kwargs):
        results.append(_real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(analysis, "maximize_over_atoms", recording)
    assert sets.recession_contains(S, [1, 0.3]) is False
    assert [(r.status, r.rounds <= 30) for r in results] == [("stalled", True)]


def test_support_fallbacks_leave_the_shared_template_unwritten():
    """Every cut loop over a set reads its cached template's row arrays
    without copying: 16 exact supports and one floored one leave each byte
    as it was."""
    body = fixtures.ex1_sets()[0]  # no closed form: the template answers
    template = analysis._template(body)

    def snapshot():
        arrays = [template.rows, template.rhs, template.eq_rows, template.eq_rhs]
        return [a.tobytes() for a in arrays]

    before = snapshot()
    for u in analysis.sample_directions(2, 16, SEED):
        assert math.isfinite(sets.support(body, u))
    assert sets.support(body, np.array([1.0, 0.5]), floor=100.0) == -math.inf
    assert analysis._template.cache_info().hits >= 17
    assert snapshot() == before


def test_feasibility_gap_measures_uniform_slack():
    atoms = [Linear(Aff.of({"x": 1.0})), Linear(Aff.of({"x": -1.0}, 1.0))]
    gap, env = analysis.feasibility_gap(analysis.compile_atoms(atoms, [("x", -5.0, 5.0)]))
    assert gap == pytest.approx(0.5, abs=1e-9)
    assert env is not None
    gap0, env0 = analysis.feasibility_gap(
        analysis.compile_atoms([Linear(Aff.of({"x": 1.0}, -1.0))], [("x", -5.0, 5.0)])
    )
    assert gap0 == pytest.approx(0.0, abs=1e-12)
    assert env0["x"] <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# direction sampling
# ---------------------------------------------------------------------------


def test_sample_directions_deterministic_and_unit():
    for dim in (1, 2, 3, 4):
        a = analysis.sample_directions(dim, 64, SEED)
        b = analysis.sample_directions(dim, 64, SEED)
        assert np.array_equal(a, b)
        assert a.shape == (64, dim)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    c = analysis.sample_directions(2, 64, SEED + 1)
    assert not np.array_equal(
        analysis.sample_directions(2, 64, SEED), c
    )


def test_sample_directions_axes_first():
    d = analysis.sample_directions(3, 40, SEED, axes_first=True)
    want = []
    for j in range(3):
        for sgn in (1.0, -1.0):
            e = np.zeros(3)
            e[j] = sgn
            want.append(e)
    assert np.array_equal(d[:6], np.array(want))
    assert d.shape == (40, 3)


def test_sample_directions_pin_the_stream():
    """The rows random.Random(20240) gives in five dimensions (Gaussians),
    the plane (grid offset) and three dimensions (sphere phase).  A change of
    generator or of the order of its draws fails here, by name, before it
    moves every golden report."""
    want = {
        (5, 3): [
            [-0.5317479663856045, -0.5782252063928978, 0.16029103372266676,
             -0.35629197448011124, -0.47985677484625283],
            [-0.48890766732079644, 0.14719926989422666, -0.8323904773399751,
             -0.1998008589952795, 0.08066831940744162],
            [0.06841615608658753, -0.6140579380599431, 0.0672301066207876,
             0.47151899438115813, 0.62562131436952],
        ],
        (2, 4): [[0.5468411620915178, 0.8372363725032486]],
        (3, 4): [[-0.44773082093916994, -0.48686457252621806, 0.75]],
    }
    for (dim, count), rows in want.items():
        got = analysis.sample_directions(dim, count, SEED)
        np.testing.assert_allclose(got[: len(rows)], rows, rtol=0, atol=1e-15)


def test_sample_directions_reject_a_negative_seed():
    """random.Random(-s) seeds the stream of s, so a negative seed is refused."""
    with pytest.raises(sets.OutOfDomain, match="non-negative"):
        analysis.sample_directions(2, 4, -1)
    assert analysis.sample_directions(2, 4, 0).shape == (4, 2)


# ---------------------------------------------------------------------------
# hand-built formulations with paper-derivable verdicts
# ---------------------------------------------------------------------------

POINT_SETS = (sets.box([0.0], [0.0]), sets.box([1.0], [1.0]))


def tight_assignment_form():
    """x = 0*y0 + 1*y1 over the two points 0 and 1: sharp and ideal."""
    variables = (
        builders.Variable("x0", "continuous"),
        builders.Variable("y0", "binary", 0.0, 1.0),
        builders.Variable("y1", "binary", 0.0, 1.0),
    )
    atoms = (
        Linear(Aff.of({"x0": 1.0, "y1": -1.0}), "eq"),
        Linear(Aff.of({"y0": 1.0, "y1": 1.0}, -1.0), "eq"),
    )
    return builders.Formulation(
        "tight",
        variables,
        atoms,
        ("test",) * len(atoms),
        POINT_SETS,
        ("x0",),
        ("y0", "y1"),
    )


def loose_bigm_form():
    """|x - i| <= 2 (1 - y_i) over the two points: valid but weak.

    The relaxation peaks at x = 1.5 (y = (1/4, 3/4)), so the sharp and
    minkowski margins are exactly 0.5 and the worst vertex fractionality
    is exactly 1/4.
    """
    variables = (
        builders.Variable("x0", "continuous"),
        builders.Variable("y0", "binary", 0.0, 1.0),
        builders.Variable("y1", "binary", 0.0, 1.0),
    )
    atoms = (
        Linear(Aff.of({"x0": 1.0, "y0": 2.0}, -2.0)),
        Linear(Aff.of({"x0": -1.0, "y0": 2.0}, -2.0)),
        Linear(Aff.of({"x0": 1.0, "y1": 2.0}, -3.0)),
        Linear(Aff.of({"x0": -1.0, "y1": 2.0}, -1.0)),
        Linear(Aff.of({"y0": 1.0, "y1": 1.0}, -1.0), "eq"),
    )
    return builders.Formulation(
        "loose",
        variables,
        atoms,
        ("test",) * len(atoms),
        POINT_SETS,
        ("x0",),
        ("y0", "y1"),
    )


def test_tight_form_sharp_and_ideal():
    form = tight_assignment_form()
    sharp = analysis.check_sharp(form, count=24, seed=SEED)
    assert sharp.verdict == "not-refuted"
    assert sharp.margin <= 1e-9
    ideal = analysis.check_ideal(form, seed=SEED)
    assert ideal.verdict == "pass"
    assert "exact vertex enumeration" in ideal.notes
    mink = analysis.check_minkowski_ideal(form, count=16, seed=SEED)
    assert mink.verdict == "not-refuted"


def test_loose_form_fails_with_exact_margins():
    form = loose_bigm_form()
    sharp = analysis.check_sharp(form, count=24, seed=SEED)
    assert sharp.verdict == "fail"
    assert sharp.margin == pytest.approx(0.5, abs=1e-6)
    w = sharp.witnesses[0]
    assert w["direction"] == [1.0]
    assert w["relaxation_value"] == pytest.approx(1.5, abs=1e-7)
    assert w["union_support"] == pytest.approx(1.0, abs=1e-12)

    ideal = analysis.check_ideal(form, seed=SEED)
    assert ideal.verdict == "fail"
    assert ideal.notes == ("exact vertex enumeration",)
    assert ideal.margin == pytest.approx(0.25, abs=1e-9)

    sampled = analysis.check_ideal(form, count=40, seed=SEED, mode="sampled")
    assert sampled.verdict == "fail"

    mink = analysis.check_minkowski_ideal(form, count=16, seed=SEED)
    assert mink.verdict == "fail"
    assert mink.margin == pytest.approx(0.5, abs=1e-6)


def one_set_soc_form():
    """One set and no y variable: not a formulation any builder makes."""
    return builders.Formulation(
        "soc",
        (builders.Variable("x0", "continuous", -1.0, 1.0),),
        (SOC((Aff.var("x0"),), Aff.const_of(1.0)),),
        ("test",),
        (sets.box([-1.0], [1.0]),),
        ("x0",),
        (),
    )


def test_check_ideal_mode_validation():
    form = tight_assignment_form()
    with pytest.raises(sets.OutOfDomain):
        analysis.check_ideal(form, mode="quick")
    with pytest.raises(analysis.ExactModeUnavailable):
        analysis.check_ideal(one_set_soc_form(), mode="exact")


@pytest.mark.parametrize(
    "check",
    [
        lambda form: analysis.check_ideal(form, count=8),
        lambda form: analysis.check_ideal(form, count=8, mode="sampled"),
        lambda form: analysis.check_sharp(form, count=8),
        lambda form: analysis.check_minkowski_ideal(form, count=8),
    ],
    ids=["ideal-auto", "ideal-sampled", "sharp", "minkowski"],
)
def test_sampled_relaxation_checks_need_one_y_per_set(check):
    """The bounds pair y_i with set i, so a form with fewer y variables than
    sets is refused up front, not with an IndexError mid-sample."""
    with pytest.raises(analysis.FormulationShapeError, match="one y variable per set") as err:
        check(one_set_soc_form())
    assert isinstance(err.value, sets.DfcError)


def test_auto_ideal_falls_back_only_when_exact_mode_is_unavailable(monkeypatch):
    form = loose_bigm_form()

    def capped(*args):
        raise analysis.ExactModeUnavailable("vertex enumeration capped")

    monkeypatch.setattr(analysis, "enumerate_vertices", capped)
    sampled = analysis.check_ideal(form, count=40, seed=SEED)
    assert "exact vertex enumeration" not in sampled.notes
    assert sampled.verdict == "fail"

    def broken(*args):
        raise ValueError("a defect in the exact path")

    monkeypatch.setattr(analysis, "enumerate_vertices", broken)
    with pytest.raises(ValueError, match="a defect in the exact path"):
        analysis.check_ideal(form, count=40, seed=SEED)


def test_auto_ideal_names_the_cap_that_refused_a_linear_form():
    """Nine translated and scaled unit squares under one homothety make a
    purely linear form in 11 variables, one over the vertex enumeration's
    dimension cap: the sampled fallback says so.  A nonlinear form is not
    for exact mode at all, and its notes stay empty."""
    template = sets.box((-1.0, -1.0), (1.0, 1.0))
    base = [(3.0 * i, 3.0 * j) for i in range(3) for j in range(3)]
    fam = builders.HomothetyData(template, base, [0.5 + 0.1 * k for k in range(9)])
    form = builders.build(builders.ProblemSpec(fam.cover_sets(), None, "homothetic", fam))
    assert all(isinstance(atom, Linear) for atom in form.atoms)
    with pytest.raises(analysis.ExactModeUnavailable, match="capped at dim 10"):
        analysis.check_ideal(form, mode="exact")
    rep = analysis.check_ideal(form, count=16, seed=SEED)
    assert rep.verdict == "not-refuted" and rep.samples == 16
    assert rep.notes == (
        "exact mode unavailable (vertex enumeration capped at dim 10); sampled instead",
    )
    curved = builders.build(fixtures.load("ex1", "bigm"))
    assert analysis.check_ideal(curved, count=4, seed=SEED).notes == ()


def test_parallel_jobs_merge_identically():
    form = loose_bigm_form()
    a = analysis.check_sharp(form, count=24, seed=SEED, jobs=1)
    b = analysis.check_sharp(form, count=24, seed=SEED, jobs=2)
    assert a.verdict == b.verdict
    assert a.margin == b.margin
    assert a.witnesses == b.witnesses
    assert a.samples == b.samples


def _bigm_sharp(**kw):
    return analysis.check_sharp(builders.build(fixtures.load("ex1", "bigm")), seed=3, **kw)


def _bigm_ideal(**kw):
    form = builders.build(fixtures.load("ex1", "bigm"))
    return analysis.check_ideal(form, mode="sampled", seed=3, **kw)


def _ex4_bbj(**kw):
    A, rhs = builders.shared_rows(fixtures.load("ex4", "original").sets)
    return analysis.check_bbj_condition(A, rhs, seed=3, **kw)


def test_witness_values_are_builtin_types():
    """ex1/bigm fails sharp, ideal and minkowski at seed 3, and every value of
    their witnesses is an int, str, list or builtin float: a closed-form
    piece's support used to reach the union and average supports, and the
    excesses from them, as np.float64."""
    form = builders.build(fixtures.load("ex1", "bigm"))
    reports = (
        _bigm_sharp(),
        _bigm_ideal(),
        analysis.check_minkowski_ideal(form, seed=3),
    )
    for rep in reports:
        assert rep.verdict == "fail" and rep.witnesses
        for w in rep.witnesses:
            assert all(type(v) in (int, str, list, float) for v in w.values()), w


@pytest.mark.parametrize(
    "check, count",
    [(_bigm_sharp, 0), (_bigm_sharp, -3), (_bigm_ideal, 0), (_ex4_bbj, 0), (_ex4_bbj, -3)],
)
def test_a_sampled_check_refuses_an_empty_direction_set(check, count):
    """A verdict from zero samples is no verdict: ex1/bigm fails sharp and
    ideal, and ex4 fails bbj, yet with no directions each read
    "not-refuted".  A negative count gives no directions either; bbj used
    to slice its 6 axes to the first 3 at count -3."""
    with pytest.raises(sets.OutOfDomain, match="needs at least one direction"):
        check(count=count)


@pytest.mark.parametrize("jobs", [0, -2])
def test_a_sampled_check_refuses_jobs_below_one_without_forking(jobs, monkeypatch):
    """jobs = 0 divided by zero, and jobs = -2 made chunks of one sample, a
    forked child for every direction after the first.  Both are refused
    before any fork; os.fork is replaced by a counter that never forks."""
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError("fork is replaced in this test")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(sets.OutOfDomain, match="jobs must be at least 1"):
        _bigm_sharp(count=24, jobs=jobs)
    assert forks == []


def test_stalled_samples_are_not_counted_and_leave_the_verdict_open(
    tmp_path, capsys, monkeypatch
):
    """A sample whose relaxation optimizer stalls has no value to compare:
    it must not count as an agreeing sample."""
    spec = builders.ProblemSpec(
        (sets.ball([0.0, 0.0], 1.0), sets.ball([3.0, 0.0], 1.0)),
        base_points=((0.0, 0.0), (3.0, 0.0)),
        method="extended",
    )
    form = builders.build_extended(spec)
    inst = tmp_path / "balls.json"
    inst.write_bytes(model.canonical_bytes(model.spec_doc(spec)))

    def stalled(compiled, objective, *args, **kwargs):
        return analysis.OptResult("stalled", math.nan, None, False, 1)

    monkeypatch.setattr(analysis, "maximize_over_atoms", stalled)
    rep = analysis.check_sharp(form, count=12, seed=SEED, jobs=1)
    assert rep.verdict == "inconclusive"
    assert rep.samples == 0
    assert rep.directions == 12
    assert rep.notes == ("12 of 12 samples not evaluated (optimizer stalled)",)
    rc = cli.main([
        "analyze", "--instance", str(inst), "--check", "sharp", "--directions", "12",
    ])
    assert "sharp: inconclusive (0 samples" in capsys.readouterr().out
    assert rc == cli.EXIT_INCONCLUSIVE == 3


def test_relaxation_max_violation_includes_bounds():
    form = loose_bigm_form()
    env = {"x0": 3.0, "y0": 1.2, "y1": -0.2}
    worst = analysis.relaxation_max_violation(form, env)
    # y0 exceeds its upper bound by 0.2 but row 1 is violated by 3.4
    assert worst == pytest.approx(3.4, abs=1e-12)
    good = {"x0": 1.0, "y0": 0.0, "y1": 1.0}
    assert analysis.relaxation_max_violation(form, good) <= 1e-12


# ---------------------------------------------------------------------------
# cover and shared-basis conditions
# ---------------------------------------------------------------------------


def test_cover_conditions_identity_family_not_refuted():
    disjuncts = (sets.box([-1.0, -1.0], [0.0, 0.0]), sets.box([0.5, 0.5], [1.0, 1.0]))
    rep = analysis.check_par_conditions(disjuncts, (disjuncts,), count=36, seed=SEED)
    assert rep.verdict == "not-refuted"
    assert rep.margin <= 1e-9


def test_cover_conditions_membership_violation():
    disjuncts = (sets.box([0.0, 0.0], [1.0, 1.0]),)
    small = (sets.box([0.0, 0.0], [0.5, 0.5]),)
    rep = analysis.check_par_conditions(disjuncts, (small,), count=12, seed=SEED)
    assert rep.verdict == "fail"
    kinds = {w["condition"] for w in rep.witnesses}
    assert "membership" in kinds


def _cover_witness(sample, direction, point):
    return {
        "condition": "membership",
        "sample": sample,
        "direction": direction,
        "disjunct": 0,
        "family": 0,
        "point": point,
    }


MIXED_COVER_REPORT = {
    "check": "cover-conditions",
    "verdict": "fail",
    "tolerance": 1e-06,
    "seed": SEED,
    "directions": 12,
    "samples": 12,
    "margin": 0.2926046540448931,
    "witnesses": [
        _cover_witness(0, [0.9458034084267064, 0.3247397613604236], [1.0, 1.0]),
        _cover_witness(1, [0.6567198980032249, 0.7541345871703762], [1.0, 1.0]),
        _cover_witness(2, [0.19166882125633014, 0.9814596593636485], [1.0, 1.0]),
        _cover_witness(3, [-0.3247397613604236, 0.9458034084267064], [0.0, 1.0]),
        _cover_witness(4, [-0.7541345871703762, 0.656719898003225], [0.0, 1.0]),
        _cover_witness(5, [-0.9814596593636485, 0.19166882125632997], [0.0, 1.0]),
        _cover_witness(9, [0.3247397613604231, -0.9458034084267065], [1.0, 0.0]),
        _cover_witness(10, [0.7541345871703761, -0.6567198980032252], [1.0, 0.0]),
    ],
    "notes": [],
}


def test_cover_conditions_pinned_report_with_both_witness_kinds():
    """A cover that misses part of its disjunct fails both conditions: the
    membership witnesses of 8 samples come first and fill the cut at 8,
    ahead of every support-match witness; the margin is the largest finite
    best gap."""
    disjuncts = (sets.box([0.0, 0.0], [1.0, 1.0]),)
    small = (sets.box([0.0, 0.0], [0.5, 0.5]),)
    for jobs in (1, 2):
        rep = analysis.check_par_conditions(disjuncts, (small,), count=12, seed=SEED, jobs=jobs)
        doc = rep.to_json_dict()
        doc.pop("elapsed_s")
        assert doc == MIXED_COVER_REPORT


def test_cover_conditions_support_mismatch():
    disjuncts = (sets.box([0.0, 0.0], [1.0, 1.0]),)
    big = (sets.box([0.0, 0.0], [2.0, 2.0]),)
    rep = analysis.check_par_conditions(disjuncts, (big,), count=12, seed=SEED)
    assert rep.verdict == "fail"
    kinds = {w["condition"] for w in rep.witnesses}
    assert "support-match" in kinds


def fallback_polygons():
    """Two polygons in H-form: no closed-form support or exposed point, so
    both oracles run the template cut loop; membership has a closed form."""
    tri = sets.hpoly([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    sq = sets.hpoly([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [3.0, -2.0, 1.0, 0.0])
    return tri, sq


def test_cover_conditions_run_one_cut_loop_per_set_and_direction(monkeypatch):
    """check_par_conditions asks for the exposed point and later the support
    of each disjunct along each direction; both share one optimization."""
    disjuncts = fallback_polygons()
    templates = {id(analysis._template(S).rows) for S in disjuncts}
    loops = []
    maximize = analysis.maximize_over_atoms

    def counted(compiled, objective, *args, **kwargs):
        if id(compiled.rows) in templates:
            loops.append((id(compiled.rows), objective.tobytes()))
        return maximize(compiled, objective, *args, **kwargs)

    monkeypatch.setattr(analysis, "maximize_over_atoms", counted)
    rep = analysis.check_par_conditions(disjuncts, (disjuncts,), count=12, seed=SEED)
    assert rep.verdict == "not-refuted"
    assert rep.samples == 12
    assert len(loops) == len(set(loops)) == 12 * len(disjuncts)


def stall_along_positive_first_axis(monkeypatch):
    """Make the cut loop stall whenever the objective's first entry is
    positive; return the predicate on a direction."""
    maximize = analysis.maximize_over_atoms

    def stalls(u):
        return u[0] > 0.0

    def maybe_stalled(compiled, objective, *args, **kwargs):
        if stalls(objective):
            return analysis.OptResult("stalled", math.nan, None, False, 1)
        return maximize(compiled, objective, *args, **kwargs)

    monkeypatch.setattr(analysis, "maximize_over_atoms", maybe_stalled)
    return stalls


def test_cover_conditions_leave_stalled_samples_out(monkeypatch):
    """A sample whose set oracle stalled is not counted: the verdict is open
    unless an evaluated sample fails."""
    disjuncts = fallback_polygons()
    stalls = stall_along_positive_first_axis(monkeypatch)
    dirs = analysis.sample_directions(2, 12, SEED)
    k = sum(bool(stalls(u)) for u in dirs)
    assert 0 < k < 12
    note = (f"{k} of 12 samples not evaluated (optimizer stalled)",)
    rep = analysis.check_par_conditions(disjuncts, (disjuncts,), count=12, seed=SEED)
    assert (rep.verdict, rep.samples, rep.notes) == ("inconclusive", 12 - k, note)
    assert rep.margin <= 1e-9
    shifted = tuple(sets.translate(S, [0.5, 0.0]) for S in disjuncts)
    rep = analysis.check_par_conditions(disjuncts, (shifted,), count=12, seed=SEED)
    assert (rep.verdict, rep.samples, rep.notes) == ("fail", 12 - k, note)
    assert rep.witnesses
    assert all(not stalls(dirs[w["sample"]]) for w in rep.witnesses)


def test_basis_condition_solves_no_lp(monkeypatch):
    """bbj reads every optimum from one table of row bases: with the one-shot
    LP and the master made to raise, ex4/original still fails and
    ex4/augmented is still not refuted, on every sample."""
    def no_lp(*args, **kwargs):
        raise AssertionError("the basis condition solved an LP")

    monkeypatch.setattr(simplex, "solve_lp", no_lp)
    monkeypatch.setattr(simplex, "Master", no_lp)
    for variant in ("original", "augmented"):
        A, rhs = builders.shared_rows(fixtures.load("ex4", variant).sets)
        rep = analysis.check_bbj_condition(A, rhs, count=100, seed=SEED)
        assert rep.verdict == fixtures.EXPECTED[("ex4", variant)]["bbj"]
        assert rep.samples == 100


def test_basis_condition_two_intervals_not_refuted():
    A = [[1.0], [-1.0]]
    rep = analysis.check_bbj_condition(A, ([0.0, 0.0], [2.0, -1.0]), count=8, seed=SEED)
    assert rep.verdict == "not-refuted"
    assert rep.notes == ("bases considered: 2",)


def test_basis_condition_cap():
    rng = np.random.default_rng(SEED)
    A = rng.normal(size=(42, 3))
    with pytest.raises(sets.OutOfDomain, match="capped"):
        analysis.check_bbj_condition(A, (np.ones(42),), count=2, seed=SEED)


def test_basis_condition_refuses_a_short_right_hand_side():
    """A right-hand side without one entry per row is refused with a
    DimensionMismatch, not with numpy's reshape error."""
    A = fixtures.EX4_LHS
    with pytest.raises(sets.DimensionMismatch, match="one entry per row"):
        analysis.check_bbj_condition(A, ((1.0, 1.0, 2.0, 2.0), (2.0, 2.0, 1.0)), count=8)
    with pytest.raises(sets.DimensionMismatch, match="one entry per row"):
        analysis.check_bbj_condition(A, (((1.0, 1.0), (2.0, 2.0)),), count=8)


@pytest.mark.parametrize("where", ["lhs", "rhs"])
@pytest.mark.parametrize("value", [math.nan, INF, -INF])
def test_basis_condition_refuses_non_finite_data_before_factoring(monkeypatch, where, value):
    """NaN or an infinity in A or b is refused before the basis table."""
    def no_factoring(*args, **kwargs):
        raise AssertionError("factored non-finite data")

    monkeypatch.setattr(analysis, "_basis_table", no_factoring)
    A = np.array(fixtures.EX4_LHS)
    b = np.array(fixtures.EX4_RHS)
    (A if where == "lhs" else b)[1, 2] = value
    with pytest.raises(sets.OutOfDomain, match="finite A and b"):
        analysis.check_bbj_condition(A, b, count=8)


def test_basis_table_keeps_a_degenerate_vertex_feasible_despite_rounding():
    """x = (0.1, 0.2) makes all three rows of A x <= (0.1, 0.2, 0.3) tight.
    From the basis of the first two rows, 0.1 + 0.2 exceeds 0.3 by one
    rounding, which the relative feasibility tolerance forgives."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    table = analysis._basis_table(A, np.array([[0.1, 0.2, 0.3]]))
    assert table[2].tolist() == [[0, 1], [0, 2], [1, 2]]
    assert 0.1 + 0.2 > 0.3
    assert table[-1].all()


def _linprog_max(A, b, c):
    """max c.x over A x <= b from scipy's HiGHS: -inf when empty, +inf when
    unbounded.  HiGHS's presolve reads some unbounded ones as infeasible,
    so it is off."""
    from scipy.optimize import linprog

    kw = {"A_ub": A, "b_ub": b, "bounds": (None, None), "options": {"presolve": False}}
    res = linprog(-c, **kw)
    if res.status == 4:  # unbounded or infeasible
        res.status = 3 if linprog(np.zeros(A.shape[1]), **kw).status == 0 else 2
    assert res.status in (0, 2, 3), res.message
    return -res.fun if res.status == 0 else INF if res.status == 3 else -INF


def _bbj_family(rng, n, m, k, deficient):
    """Small-integer A (m x n) and k right-hand sides.  A deficient A has its
    last column equal to the first minus the second, so rank(A) < n."""
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    if deficient:
        A[:, -1] = A[:, 0] - A[:, 1]
    return A, rng.integers(-2, 5, size=(k, m)).astype(float)


def test_basis_values_match_scipy_linprog():
    """The basis table's bases are the row subsets of full rank by SVD rank,
    and every subsystem optimum max{c.x : A[B] x <= b_i[B]} and every full
    optimum max{c.x : A x <= b_i} read from it equals
    scipy.optimize.linprog's: finite values within 1e-9 relative (absolute
    near 0), +-inf exactly.  Families: n <= 4, m <= 7, k <= 3, two of the
    eight of rank < n.  Directions: the signed axes, sampled ones and, for a rank-deficient A,
    its null vector (1, -1, 0, ..., 0, -1) both ways, which is unbounded on
    every nonempty piece."""
    pytest.importorskip("scipy")
    rng = np.random.default_rng(SEED)
    seen = set()
    for case in range(8):
        n = 2 + case % 3
        m, k = int(rng.integers(n + 1, 8)), int(rng.integers(1, 4))
        deficient = case in (1, 2)  # n = 3, 4
        A, b = _bbj_family(rng, n, m, k, deficient)
        table = analysis._basis_table(A, b)
        rows = table[2]
        rank = np.linalg.matrix_rank(A)
        assert (rank < n) == deficient
        bases = itertools.combinations(range(m), rank)
        assert rows.tolist() == [list(B) for B in bases if np.linalg.matrix_rank(A[list(B)]) == rank]
        dirs = list(analysis.sample_directions(n, 2 * n + 1, case, axes_first=True))
        if deficient:
            null = np.r_[1.0, -1.0, np.zeros(n - 3), -1.0] / math.sqrt(3.0)
            dirs += [null, -null]
        for c in dirs:
            sub, full = analysis._basis_values(table, c)
            for i in range(k):
                want = _linprog_max(A, b[i], c)
                assert full[i] == pytest.approx(want, rel=1e-9, abs=1e-9), (case, c, i)
                seen.add(("full", np.sign(want) if math.isinf(want) else 0))
                for q, B in enumerate(rows):
                    want = _linprog_max(A[B], b[i, B], c)
                    assert sub[q, i] == pytest.approx(want, rel=1e-9, abs=1e-9), (case, c, B, i)
                    seen.add(("sub", np.sign(want) if math.isinf(want) else 0))
    assert seen == {("full", -1), ("full", 0), ("full", 1), ("sub", 0), ("sub", 1)}


@pytest.mark.parametrize("variant", ["original", "augmented"])
@pytest.mark.parametrize("factor", [1e4, 1e-3, 1e12, 1e-9])
def test_basis_condition_does_not_depend_on_the_row_scale(variant, factor):
    """Scaling every row of A and b by 1e4, 1e-3, 1e12 or 1e-9 leaves the ex4
    verdict, its bases and its witness samples as they are: the rank,
    multiplier and feasibility tolerances are relative to the data."""
    A, rhs = builders.shared_rows(fixtures.load("ex4", variant).sets)
    base = analysis.check_bbj_condition(A, rhs, count=100, seed=SEED)
    rep = analysis.check_bbj_condition(factor * A, factor * rhs, count=100, seed=SEED)
    assert rep.verdict == base.verdict == fixtures.EXPECTED[("ex4", variant)]["bbj"]
    assert rep.notes == base.notes
    assert [w["sample"] for w in rep.witnesses] == [w["sample"] for w in base.witnesses]


# ---------------------------------------------------------------------------
# the union support bound: a running max that cuts dominated pieces short
# ---------------------------------------------------------------------------

BOUNDS = {"sharp": analysis._embedded_support, "ideal": analysis._embedded_support}
BOUND_CASES = [
    (name, variant, check)
    for (name, variant), checks in sorted(fixtures.EXPECTED.items())
    for check in sorted(BOUNDS)
    if check in checks
]
BODY = fixtures.ex1_sets()[0]  # curved: its support runs the template cut loop
BRANCH = sets.conic([[-1.0, -1.0], [0.0, 0.0], [1.0, -1.0]], (), [4.0, 2.0, 0.0], [("soc", 3)])
SQUARE = sets.box([-1.25, -1.25], [1.25, 1.25])
SYNTHETIC_UNIONS = {
    "translated": (sets.translate(BODY, [0.3, -0.2]), SQUARE),
    "scaled": (sets.scale(BODY, 0.8), sets.ball([0.2, 0.1], 1.3)),
    "nested": (sets.translate(sets.scale(BODY, 1.5), [-0.4, 0.25]), BODY, SQUARE),
    # one branch of the body: unbounded along every u with a negative entry.
    # The square reaches past the optimizer's box (analysis.BOX_RADIUS), so
    # the branch's LP values at that box stay below the floor it sets.
    "unbounded": (BRANCH, sets.box([-5e3, -5e3], [5e3, 5e3])),
}


def assert_bound_is_exact(form, check, count=256):
    """Along `count` directions, the pruned bound equals the max over the
    pieces' exact supports (each shifted by its y-part for ideal), with ==
    and +inf included; afterwards plain supports are still exact, so no
    floored value was cached.  Returns the bound values."""
    n = len(form.x_names)
    dim = n + (len(form.sets) if check == "ideal" else 0)
    dirs = analysis.sample_directions(dim, count, SEED)
    analysis._set_optimum.cache_clear()
    pruned = [BOUNDS[check](form, d) for d in dirs]
    after = [[sets.support(S, d[:n]) for S in form.sets] for d in dirs]
    analysis._set_optimum.cache_clear()
    exact = [[sets.support(S, d[:n]) for S in form.sets] for d in dirs]
    assert after == exact
    for d, got, sup in zip(dirs, pruned, exact):
        shifts = d[n:] if check == "ideal" else np.zeros(len(sup))
        assert got == max(h + float(c) for h, c in zip(sup, shifts))
    return pruned


@pytest.mark.parametrize("name,variant,check", BOUND_CASES)
def test_pruned_bound_equals_unpruned_max(name, variant, check):
    form = builders.build(fixtures.load(name, variant))
    assert_bound_is_exact(form, check)


@pytest.mark.parametrize("check", sorted(BOUNDS))
@pytest.mark.parametrize("case", sorted(SYNTHETIC_UNIONS))
def test_pruned_bound_is_exact_through_shifts_scalings_and_unbounded_pieces(
    case, check, monkeypatch
):
    """Floors pass through translates and scalings of a curved piece, and a
    piece unbounded along u still gives +inf with a finite floor (the
    closed-form square goes first, whatever the instance order)."""
    form = SimpleNamespace(x_names=("x0", "x1"), sets=SYNTHETIC_UNIONS[case])
    statuses = []
    maximize = analysis.maximize_over_atoms

    def recorded(*args, **kwargs):
        res = maximize(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(analysis, "maximize_over_atoms", recorded)
    bound = assert_bound_is_exact(form, check)
    assert "dominated" in statuses and "optimal" in statuses
    if case == "unbounded":
        assert 0 < bound.count(INF) < len(bound)


def test_pruned_bound_runs_far_fewer_cut_rounds(monkeypatch):
    """On ex1/extended the square beats the curved body along the directions
    near the diagonals; there the body's cut loop stops once its LP value
    falls to the square's support instead of converging."""
    form = builders.build(fixtures.load("ex1", "extended"))
    maximize = analysis.maximize_over_atoms
    state = {"floor": True, "rounds": 0}

    def counted(*args, **kwargs):
        if not state["floor"]:
            kwargs.pop("_floor", None)
        res = maximize(*args, **kwargs)
        state["rounds"] += res.rounds
        return res

    monkeypatch.setattr(analysis, "maximize_over_atoms", counted)
    runs = {}
    for floor in (False, True):
        analysis._set_optimum.cache_clear()
        state.update(floor=floor, rounds=0)
        rep = analysis.check_sharp(form, count=24, seed=SEED)
        runs[floor] = (state["rounds"], rep.verdict, rep.margin, rep.witnesses)
    assert runs[True][1:] == runs[False][1:]
    assert runs[True][0] <= 0.6 * runs[False][0]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_report_json_dict_shape():
    rep = analysis.check_sharp(tight_assignment_form(), count=8, seed=SEED)
    doc = rep.to_json_dict()
    assert doc["check"] == "sharp"
    assert doc["verdict"] == "not-refuted"
    assert doc["seed"] == SEED
    assert doc["directions"] == 8
    assert doc["samples"] == 8
    assert isinstance(doc["witnesses"], list)
    assert isinstance(doc["notes"], list)
    assert doc["elapsed_s"] == round(doc["elapsed_s"], 3)
