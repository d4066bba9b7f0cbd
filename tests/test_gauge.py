"""Epigraph template lowering checked against direct membership oracles.

The template block for a set S describes {(w, tau) : w in tau * S} (tau > 0),
so every slice can be validated by scaling a point back into S and calling
the membership predicate, which never touches the lowering code.
"""

import math

import numpy as np
import pytest

from dfc import analysis, builders, fixtures, gauge, sets
from dfc.gauge import Aff
from oracles import gauge_bisect, unit_disk_conic

SEED = 20240
CASES = 200
INF = math.inf


# ---------------------------------------------------------------------------
# affine expressions
# ---------------------------------------------------------------------------


def test_aff_terms_sorted_and_nonzero():
    e = Aff.of({"b": 2.0, "a": 0.0, "c": -1.0}, 3.0)
    assert e.terms == (("b", 2.0), ("c", -1.0))
    assert e.const == 3.0


def test_aff_algebra_matches_numeric_evaluation():
    """dot over expressions that share names, with some zero coefficients and
    constants, evaluates to the same combination of their values; its terms
    stay sorted and nonzero."""
    rng = np.random.default_rng(SEED)
    names = ["a", "b", "c"]
    for _ in range(CASES):
        m = int(rng.integers(1, 5))
        exprs = [
            Aff.of(dict(zip(names, map(float, rng.normal(size=3)))), float(rng.normal()))
            for _ in range(m)
        ]
        coeffs = [float(k) if rng.random() < 0.7 else 0.0 for k in rng.normal(size=m)]
        const = float(rng.normal())
        env = {n: float(v) for n, v in zip(names, rng.normal(size=3))}
        e = gauge.dot(coeffs, exprs, const)
        want = const + sum(k * x.evaluate(env) for k, x in zip(coeffs, exprs))
        assert e.evaluate(env) == pytest.approx(want, abs=1e-12)
        assert [n for n, _ in e.terms] == sorted(n for n, c in e.terms if c != 0.0)
        k = float(rng.normal())
        assert exprs[0].scaled(k).evaluate(env) == pytest.approx(
            k * exprs[0].evaluate(env), abs=1e-12
        )
    a, b = Aff.var("a"), Aff.of({"b": 2.0}, 1.0)
    assert gauge.dot((0.0, 1.0), (a, b)) == b
    assert gauge.dot((1.0, -1.0), (a, a), 3.0) == Aff.const_of(3.0)
    assert gauge.dot((2.0, 1.0, 0.5), (a, b, b)) == Aff.of({"a": 2.0, "b": 3.0}, 1.5)


def test_dot_sums_each_name_left_to_right():
    """1e16 + 1.0 rounds back to 1e16, so the order is visible: left to
    right gives 0.0 (the name drops out), not 1.0."""
    x, one = Aff.var("x"), Aff.const_of(1.0)
    assert gauge.dot((1e16, 1.0, -1e16), (x, x, x)) == Aff.const_of(0.0)
    assert gauge.dot((1e16, -1e16, 1.0), (x, x, x)) == x
    assert gauge.dot((1e16, 1.0, -1e16), (one, one, one)).const == 0.0


def test_combo_builds_inner_product():
    e = gauge.combo(["x0", "x1"], [2.0, -3.0], 1.5)
    assert e.evaluate({"x0": 1.0, "x1": 1.0}) == pytest.approx(0.5)


def test_name_gen_is_sequential():
    gen = gauge.NameGen()
    assert [gen.fresh() for _ in range(3)] == ["z0", "z1", "z2"]


# ---------------------------------------------------------------------------
# atom evaluation
# ---------------------------------------------------------------------------


def test_linear_atom_violation():
    le = gauge.Linear(Aff.of({"x": 1.0}, -1.0))
    assert gauge.atom_violation(le, {"x": 0.5}) == pytest.approx(-0.5)
    assert gauge.atom_violation(le, {"x": 2.0}) == pytest.approx(1.0)
    eq = gauge.Linear(Aff.of({"x": 1.0}, -1.0), "eq")
    assert gauge.atom_violation(eq, {"x": 0.5}) == pytest.approx(0.5)


def test_soc_atom_violation():
    atom = gauge.SOC((Aff.var("a"), Aff.var("b")), Aff.var("r"))
    assert gauge.atom_violation(atom, {"a": 3.0, "b": 4.0, "r": 6.0}) == pytest.approx(
        -1.0
    )
    assert gauge.atom_violation(atom, {"a": 3.0, "b": 4.0, "r": 4.0}) == pytest.approx(
        1.0
    )


def test_perspective_atom_negative_scale():
    fn = sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0))
    atom = gauge.Perspective(fn, (Aff.var("x"), Aff.var("y")), Aff.var("t"))
    assert gauge.atom_violation(atom, {"x": 0.0, "y": 0.0, "t": -0.25}) == pytest.approx(
        0.25
    )


def test_gauge_plus_atom_positive_part():
    disk = sets.ball([0.0, 0.0], 1.0)
    atom = gauge.GaugePlus(
        disk,
        (((1.0, 0.0), Aff.var("u")), ((0.0, 1.0), Aff.var("v"))),
        Aff.const_of(1.0),
        positive_part=True,
    )
    # negative coordinates are clipped before the gauge is taken
    assert gauge.atom_violation(atom, {"u": -5.0, "v": 0.5}) == pytest.approx(-0.5)
    plain = gauge.GaugePlus(atom.set_ref, atom.terms, atom.rhs, positive_part=False)
    assert gauge.atom_violation(plain, {"u": -5.0, "v": 0.5}) > 0


def test_gauge_and_normal_subgradient_inequality():
    rng = np.random.default_rng(SEED)
    shapes = [
        sets.box([-1.0, -2.0], [2.0, 1.0]),
        sets.ball([0.0, 0.0], 1.5),
        sets.vpoly([[2.0, 0.0], [0.0, 2.0], [-1.0, -1.0]]),
        sets.hpoly([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0]),
        sets.translate(sets.ball([0.4, 0.0], 1.0), [-0.2, 0.1]),
    ]
    for _ in range(CASES):
        S = shapes[int(rng.integers(len(shapes)))]
        w = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        gam, q = gauge.gauge_and_normal(S, w)
        gz, _ = gauge.gauge_and_normal(S, z)
        assert float(q @ w) == pytest.approx(gam, abs=1e-6 * (1 + abs(gam)))
        assert float(q @ z) <= gz + 1e-6 * (1 + abs(gz))


def test_gauge_and_normal_matches_bisection_value():
    """The V-polytope tolerance covers membership, whose LP counts points
    about 1e-7 outside the hull as members."""
    rng = np.random.default_rng(SEED)
    D = unit_disk_conic()
    V = sets.vpoly([[1.0, 0.2], [-0.3, 1.1], [-0.9, -0.8], [0.7, -1.0]])
    for _ in range(60):
        w = rng.uniform(-2, 2, 2)
        for S, tol in ((D, 1e-8), (V, 1e-6)):
            gam, _ = gauge.gauge_and_normal(S, w)
            want = gauge_bisect(S, w)
            assert gam == pytest.approx(want, abs=tol * (1 + want))


def test_gauge_and_normal_flat_direction_separates():
    S = sets.box([-1.0, 0.0], [1.0, 0.0])
    gam, u = gauge.gauge_and_normal(S, np.array([0.0, 1.0]))
    assert math.isinf(gam)
    assert float(u @ np.array([0.0, 1.0])) > 0
    assert sets.support(S, u) <= 1e-9


# ---------------------------------------------------------------------------
# level-set gauges: exact forms against membership bisection
# ---------------------------------------------------------------------------

AFFINE = sets.AffineFn((1.0, -0.5), -1.0)
QUADRATIC = sets.QuadraticPlus((1.0, 0.5), -0.5, (0.2, 1.0))
LEVEL_FNS = {
    "affine": AFFINE,
    "quadratic_plus": QUADRATIC,
    "geomean_2": sets.GeoMeanDeficit(2.0, 1.0, 2),
    "geomean_3": sets.GeoMeanDeficit(2.0, 1.0, 3),
    "max_of": sets.MaxOf((AFFINE, QUADRATIC, sets.AffineFn((0.5, -1.0), -0.8))),
}


@pytest.mark.parametrize("name", sorted(LEVEL_FNS))
def test_persp_grad_at_one_is_a_subgradient_of_the_function(name):
    """f = persp(., 1), and the x part of persp_grad(x, 1), which the
    level-set normal reads, satisfies f(y) >= f(x) + g.(y - x)."""
    fn = LEVEL_FNS[name]
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        x, y = rng.uniform(-2.0, 1.9, (2, fn.dim))  # inside every domain
        fx, fy = fn.persp_value(x, 1.0), fn.persp_value(y, 1.0)
        lin = float(fn.persp_grad(x, 1.0)[0] @ (y - x))
        assert fy >= fx + lin - 1e-12 * (1.0 + abs(fx) + abs(fy) + abs(lin)), (x, y)


def test_geomean_level_set_normal_near_a_zero_factor_is_pinned():
    """At w = (1e-3, -100, -100) the first factor of w / gauge is 2.5e-11:
    the normal takes it as it is, not floored at 1e-9."""
    w = np.array((1e-3, -100.0, -100.0))
    gam, q = gauge._level_set_gauge(sets.GeoMeanDeficit(2, 1, 3), w)
    assert gam == 0.0005000000000062499
    assert q.tolist() == [0.5000000000187496, 6.249826996867375e-17, 6.249826996867375e-17]


def finite_gauge_directions(fn, count, rng):
    """Random w whose level-set gauge is positive and finite."""
    S = sets.level_set(fn)
    out = []
    while len(out) < count:
        w = rng.uniform(-2.0, 2.0, fn.dim)
        gam, _ = gauge.gauge_and_normal(S, w)
        if 0.0 < gam < INF:
            out.append(w)
    return out


@pytest.mark.parametrize("name", sorted(LEVEL_FNS))
def test_level_set_gauge_scales_with_w(name):
    """gauge(s w) = s gauge(w) from 1e-12 to 1e9: no bracket or floor."""
    fn = LEVEL_FNS[name]
    S = sets.level_set(fn)
    rng = np.random.default_rng(SEED)
    for w in finite_gauge_directions(fn, 20, rng) + [np.ones(fn.dim)]:
        gam, _ = gauge.gauge_and_normal(S, w)
        for s in (1e-12, 1e-6, 1.0, 1e4, 1e9):
            got, _ = gauge.gauge_and_normal(S, s * w)
            assert got == pytest.approx(s * gam, rel=1e-12, abs=0.0), (w, s)


@pytest.mark.parametrize("name", sorted(LEVEL_FNS))
def test_level_set_gauge_matches_membership_bisection(name):
    """gauge_and_normal on a level set agrees with a bisection that only asks
    membership; the value is feasible and its normal a subgradient."""
    fn = LEVEL_FNS[name]
    S = sets.level_set(fn)
    rng = np.random.default_rng(SEED)
    ws = finite_gauge_directions(fn, 40, rng)
    for w in ws:
        gam, q = gauge.gauge_and_normal(S, w)
        want = gauge_bisect(S, w)
        assert gam == pytest.approx(want, abs=1e-8 * (1.0 + want))
        assert fn.persp_value(w, gam) <= 0.0
        assert float(q @ w) == pytest.approx(gam, abs=1e-9 * (1.0 + gam))
        for z in ws:
            gz, _ = gauge.gauge_and_normal(S, z)
            assert float(q @ z) <= gz + 1e-9 * (1.0 + gz)


@pytest.mark.parametrize(
    "fn,w",
    [
        (sets.AffineFn((1.0, -0.5), 0.0), (1.0, 0.5)),
        (QUADRATIC, (0.3, -1.0)),
        (LEVEL_FNS["max_of"], (0.3, -1.0)),
    ],
)
def test_level_set_gauge_flat_direction_separates(fn, w):
    S = sets.level_set(fn)
    w = np.array(w)
    gam, q = gauge.gauge_and_normal(S, w)
    assert math.isinf(gam)
    assert math.isinf(gauge_bisect(S, w))
    assert float(q @ w) > 0.0
    points = np.random.default_rng(SEED).uniform(-3.0, 3.0, (2000, 2))
    members = [x for x in points if sets.contains(S, x, 0.0)]
    assert len(members) > 50
    assert max(float(q @ x) for x in members) <= 0.0


@pytest.mark.parametrize(
    "fn,w",
    [
        (AFFINE, (-1.0, 0.5)),
        (QUADRATIC, (-1.0, 1.0)),
        (LEVEL_FNS["geomean_3"], (-1.0, 0.0, -2.5)),
        (LEVEL_FNS["max_of"], (-1.0, 1.0)),
    ],
)
def test_level_set_gauge_recession_direction_is_zero(fn, w):
    S = sets.level_set(fn)
    gam, q = gauge.gauge_and_normal(S, np.array(w))
    assert gam == 0.0 and not np.any(q)
    assert gauge_bisect(S, w) < 1e-50


def test_geomean_gauge_matches_the_two_dimensional_closed_form():
    """For n = 2 the boundary (shift - u w_0)(shift - u w_1) = scale^2, with
    u = 1 / gauge, is a quadratic in u; its least positive root fixes the
    gauge to rounding, also where the root sits next to a zero factor."""
    shift, scale = 2.0, 1.0
    S = sets.level_set(sets.GeoMeanDeficit(shift, scale, 2))
    rng = np.random.default_rng(SEED)
    ws = [rng.uniform(-2.0, 2.0, 2) for _ in range(300)]
    ws += [np.array([1.0, -(10.0 ** rng.uniform(0, 6))]) for _ in range(100)]
    for w in ws:
        if max(w) <= 0.0:
            continue
        a, b, c = w[0] * w[1], -shift * (w[0] + w[1]), shift**2 - scale**2
        if a == 0.0:
            roots = [-c / b]
        else:
            q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
            roots = [q / a, c / q]
        u = min(r for r in roots if r > 0.0)
        gam, _ = gauge.gauge_and_normal(S, w)
        assert gam == pytest.approx(1.0 / u, rel=1e-13), w


@pytest.mark.parametrize("s", [1.0, 2.0**-42, 2.0**30], ids=["1", "2^-42", "2^30"])
def test_geomean_gauge_where_the_newton_slope_vanishes(s):
    """On the ex7 body at w = (1, -2, -2) the first Newton point u = 1 has
    factors (1, 4, 4), so sum(w / f) = 0 and q has slope 0 exactly; the
    chord step takes over.  Power-of-two multiples, such as the LP-noise
    argument (2^-42, -2^-41, -2^-41), hit the same zero."""
    fn = sets.GeoMeanDeficit(2.0, 1.0, 3)
    S = sets.level_set(fn)
    w = s * np.array([1.0, -2.0, -2.0])
    gam, q = gauge.gauge_and_normal(S, w)
    want = s * gauge_bisect(S, w / s)
    assert gam == pytest.approx(want, rel=1e-9)
    assert fn.persp_value(w, gam) <= 0.0
    assert float(q @ w) == pytest.approx(gam, rel=1e-9)


def test_ex7_level_set_gauges_take_few_perspective_evaluations(monkeypatch):
    """The sampled ideal check of ex7/single (seed 20240, 64 directions)
    evaluates the perspective at most 8 times per level-set gauge on
    average, counting the Newton steps of the geometric-mean form."""
    form = builders.build(fixtures.load("ex7", "single"))
    analysis._set_optimum.cache_clear()
    calls, evals, depth = [0], [0], [0]
    level_set_gauge = gauge._level_set_gauge

    def counted_gauge(fn, w):
        calls[0] += 1
        depth[0] += 1
        try:
            return level_set_gauge(fn, w)
        finally:
            depth[0] -= 1

    def counted(evaluate):
        def wrapper(*args):
            evals[0] += depth[0] > 0
            return evaluate(*args)

        return wrapper

    monkeypatch.setattr(gauge, "_level_set_gauge", counted_gauge)
    monkeypatch.setattr(
        sets.GeoMeanDeficit, "_persp_excess", counted(sets.GeoMeanDeficit._persp_excess)
    )
    monkeypatch.setattr(
        sets.GeoMeanDeficit, "persp_value", counted(sets.GeoMeanDeficit.persp_value)
    )
    rep = analysis.check_ideal(form, count=64, seed=SEED)
    assert rep.verdict == "not-refuted"
    assert calls[0] > 0
    assert evals[0] <= 8 * calls[0]


# ---------------------------------------------------------------------------
# conic, translate and template rules against membership bisection
# ---------------------------------------------------------------------------

# soc, nonneg and zero blocks: ||(x0, x1)|| <= 1, x0 <= 0.5, x2 = 0
MIXED_BLOCKS = sets.conic(
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, 0, 1]],
    (),
    [1.0, 0.0, 0.0, 0.5, 0.0],
    [("soc", 3), ("nonneg", 1), ("zero", 1)],
)
CONIC_BODIES = {
    "ex1": fixtures.ex1_sets()[0],
    "ex5_first": fixtures.ex5_sets()[0],
    "ex5_second": fixtures.ex5_sets()[1],
    "mixed": MIXED_BLOCKS,
}


def assert_subgradients(S, ws, tol):
    """q.w = gauge(w) and q.z <= gauge(z) for every pair of arguments."""
    pairs = [gauge.gauge_and_normal(S, w) for w in ws]
    for w, (gam, q) in zip(ws, pairs):
        assert float(q @ w) == pytest.approx(gam, abs=tol * (1.0 + gam))
        for z, (gz, _) in zip(ws, pairs):
            assert float(q @ z) <= gz + tol * (1.0 + gz)


@pytest.mark.parametrize("name", sorted(CONIC_BODIES))
def test_conic_gauge_matches_membership_bisection(name):
    """Conic sets without auxiliaries take the largest block gauge: a
    quadratic root per soc block and row ratios for nonneg and zero rows.
    Their membership is a direct residual, so bisection at tolerance 0 pins
    the gauge to rounding, where a cut loop stops near 1e-9."""
    S = CONIC_BODIES[name]
    rng = np.random.default_rng(SEED)
    ws = [rng.uniform(-2.0, 2.0, S.dim) for _ in range(40)]
    if name == "mixed":
        ws = [w * (1.0, 1.0, 0.0) for w in ws]
    for w in ws:
        gam, _ = gauge.gauge_and_normal(S, w)
        assert gam == pytest.approx(gauge_bisect(S, w, tol=0.0), rel=1e-12)
    assert_subgradients(S, ws, 1e-9)


def test_conic_gauge_flat_direction_separates():
    """Off the zero block's plane the gauge is +inf, and the zero row
    itself separates: q.x = 0 on the set and q.w > 0."""
    w = np.array([0.3, -0.2, 1.0])
    gam, q = gauge.gauge_and_normal(MIXED_BLOCKS, w)
    assert math.isinf(gam)
    assert math.isinf(gauge_bisect(MIXED_BLOCKS, w))
    assert float(q @ w) > 0.0
    assert sets.support(MIXED_BLOCKS, q) <= 1e-9


def test_conic_gauge_with_the_origin_on_a_cone_boundary():
    """The disk ||(x0 + 1, x1)|| <= 1 has the origin on its boundary, so its
    soc block has no interior root; the template cut loop takes it without raising,
    with +inf along the outward normal."""
    S = sets.conic([[0, 0], [1, 0], [0, 1]], (), [1.0, 1.0, 0.0], [("soc", 3)])
    gam, _ = gauge.gauge_and_normal(S, np.array([-1.0, 0.0]))
    assert gam == pytest.approx(0.5, rel=1e-8)
    gam, q = gauge.gauge_and_normal(S, np.array([1.0, 0.0]))
    assert math.isinf(gam) and q[0] > 0.0


def test_conic_gauge_at_the_apex_of_a_translated_cone():
    """{x : |x1| <= x0 + 1} at w = (-1, 0): w / 1 is the cone's apex, where
    the root's own normal is 0 / 0; any dual vector serves instead.  The
    gauge is max(|z1| - z0, 0)."""
    S = sets.conic([[1, 0], [0, 1]], (), [1.0, 0.0], [("soc", 2)])
    gam, q = gauge.gauge_and_normal(S, np.array([-1.0, 0.0]))
    assert gam == 1.0
    assert np.all(np.isfinite(q)) and float(q @ [-1.0, 0.0]) == pytest.approx(1.0, rel=1e-12)
    for z in np.random.default_rng(SEED).uniform(-3.0, 3.0, (200, 2)):
        assert float(q @ z) <= max(abs(z[1]) - z[0], 0.0) + 1e-12


RECENTERED_KINDS = {
    "box": sets.box([-1.0, -0.5], [0.5, 2.0]),
    "ball": sets.ball([0.2, -0.1], 1.2),
    "hpoly": sets.hpoly([[1.0, 1.0], [-1.0, 0.5], [0.0, -1.0]], [1.0, 0.8, 0.6]),
    "vpoly": sets.vpoly([[1.5, 0.0], [0.0, 1.5], [-1.0, -1.0], [-1.0, 1.0]]),
    "conic": unit_disk_conic(),
    "intersect": sets.intersect(sets.ball([0.0, 0.0], 1.4), sets.box([-1.0, -1.0], [2.0, 2.0])),
    "scale": sets.scale(sets.box([-1.0, -1.0], [1.0, 1.0]), 1.7),
}


@pytest.mark.parametrize("name", sorted(RECENTERED_KINDS))
def test_translate_rule_with_a_nonzero_base(name):
    """A translate with a nonzero base is folded into the set's data: the
    gauge of translate(S, t) - (b + t) at x + t matches bisection of S - b,
    keeps subgradients, and scales exactly with x - b.  V-polytope
    membership counts points about 1e-7 outside the hull, hence its wider
    tolerance."""
    S = RECENTERED_KINDS[name]
    t, b = np.array([0.7, -1.3]), np.array([0.15, -0.1])
    T = sets.translate(S, t)
    tol = 1e-6 if name == "vpoly" else 1e-8
    rng = np.random.default_rng(SEED)
    xs = [rng.uniform(-2.0, 2.0, 2) for _ in range(20)]
    for x in xs:
        g = sets.gauge_value(T, b + t, x + t)
        assert g == pytest.approx(gauge_bisect(sets.translate(S, -b), x - b), abs=tol * (1.0 + g))
        for s in (1e-12, 1e7):
            got = sets.gauge_value(T, b + t, b + t + s * (x - b))
            assert got == pytest.approx(s * g, rel=1e-9)
    assert_subgradients(sets.translate(T, -(b + t)), [x - b for x in xs], 1e-9)


def test_flat_direction_gauge_is_infinite():
    """A template LP that no pivot can make feasible, by a row that weighs no
    bound of the artificial box, means the set is flat along w: the segment
    [-1, 1] x {0}, as a cone sum or a vertex hull, has gauge +inf along
    (0.3, 1), and that row's w part is a separating normal."""
    w = np.array([0.3, 1.0])
    for S in (sets.SumCone(sets.box([-1.0, 0.0], [1.0, 0.0]), ()), sets.vpoly([[-1, 0], [1, 0]])):
        gam, q = gauge.gauge_and_normal(S, w)
        assert math.isinf(gam)
        assert float(q @ w) > 0.0
        assert sets.support(S, q) <= 1e-5


def test_translated_slab_gauge_by_template():
    """ex6's slab shifted by its base (0, 0.5) leaves a translated parabola,
    which no rule covers: gauge atoms and gauge_value take the template cut
    loop on the whole slab, and its value matches bisection."""
    slab = fixtures.ex6_sets()[1]
    base = np.array([0.0, 0.5])
    shifted = sets.translate(slab, -base)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        w = rng.uniform(-1.0, 1.0, 2)
        want = gauge_bisect(shifted, w)
        assert gauge.gauge_and_normal(shifted, w)[0] == pytest.approx(want, abs=1e-7)
        assert sets.gauge_value(slab, base, base + w) == pytest.approx(want, abs=1e-7)
        assert analysis.gauge_via_template(shifted, w)[0] == pytest.approx(want, abs=1e-7)


CONE_SUM = sets.sum_cone(sets.box([-1.0, -1.0], [1.0, 1.0]), [[1.0, 0.0]])
SHIFT = np.array([0.0, 0.5])
# sets no closed rule covers, each with an independent gauge
TEMPLATE_GAUGE_SETS = {
    "cone-sum": (CONE_SUM, lambda z: max(abs(z[1]), -z[0])),
    "translated-parabola": (
        sets.translate(sets.level_set(sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0))), -SHIFT),
        None,
    ),
    "translated-slab": (sets.translate(fixtures.ex6_sets()[1], -SHIFT), None),
}


@pytest.mark.parametrize("name", sorted(TEMPLATE_GAUGE_SETS))
def test_template_gauge_normals_are_subgradients(name):
    """Unbounded or translated curved sets take their gauge and normal from
    the template LP: the duals of the pinned w columns.  Each normal q at w
    gives q.w = gauge(w) and q.z <= gauge(z) at every sampled z, with the
    gauge from a closed form or membership bisection."""
    S, closed = TEMPLATE_GAUGE_SETS[name]
    rng = np.random.default_rng(SEED)
    zs = [rng.uniform(-2.0, 2.0, 2) for _ in range(50)]
    want = [closed(z) if closed else gauge_bisect(S, z) for z in zs]
    for w, gw in zip(zs, want):
        gam, q = gauge.gauge_and_normal(S, w)
        assert gam == pytest.approx(gw, abs=1e-7 * (1.0 + gw))
        assert float(q @ w) == pytest.approx(gam, abs=1e-7 * (1.0 + gam))
        for z, gz in zip(zs, want):
            assert float(q @ z) <= gz + 1e-7 * (1.0 + abs(gz))


def test_template_gauge_at_the_origin_is_zero():
    """At w = 0 the template gauge is 0 with a zero normal, as every closed
    rule gives, rather than a division by the zero scale."""
    gam, q = analysis.gauge_via_template(CONE_SUM, np.zeros(2))
    assert gam == 0.0
    assert np.array_equal(q, np.zeros(2))


def test_gauge_atom_over_a_cone_sum_takes_template_cuts():
    """A gauge atom over a cone sum with a ray, whose gauge max(|x1|, -x0)
    no rule covers, cuts by the template's duals: the cut loop maximizing
    x1 under gauge <= 1 ends optimal at 1."""
    atom = gauge.GaugePlus(
        CONE_SUM,
        (((1.0, 0.0), Aff.var("x0")), ((0.0, 1.0), Aff.var("x1"))),
        Aff.const_of(1.0),
        positive_part=False,
    )
    compiled = analysis.compile_atoms([atom], [(nm, -INF, INF) for nm in ("x0", "x1")])
    res = analysis.maximize_over_atoms(compiled, np.array([0.0, 1.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# template lowering: slice equivalence with plain membership
# ---------------------------------------------------------------------------


def block_holds(S, x, tau, tol=1e-7):
    """Whether (x, tau) lies in S's compiled template, by its feasibility gap."""
    return analysis.member_via_feasibility(S, np.asarray(x, dtype=float), float(tau), tol)


TEMPLATE_SHAPES = [
    sets.box([-1.0, -0.5], [0.5, 2.0]),
    sets.ball([0.2, -0.1], 1.2),
    sets.hpoly([[1.0, 1.0], [-1.0, 0.5], [0.0, -1.0]], [1.0, 0.8, 0.6]),
    sets.vpoly([[1.5, 0.0], [0.0, 1.5], [-1.0, -1.0], [-1.0, 1.0]]),
    sets.translate(sets.ball([0.0, 0.0], 1.0), [0.3, -0.2]),
    sets.scale(sets.box([-1.0, -1.0], [1.0, 1.0]), 1.7),
    sets.intersect(sets.ball([0.0, 0.0], 1.4), sets.box([-1.0, -1.0], [2.0, 2.0])),
]


def test_template_positive_slices_match_membership():
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        S = TEMPLATE_SHAPES[int(rng.integers(len(TEMPLATE_SHAPES)))]
        x = rng.uniform(-2.5, 2.5, 2)
        tau = float(rng.uniform(0.2, 3.0))
        want = sets.contains(S, x / tau)
        # skip points too close to the scaled boundary to classify stably
        if want != sets.contains(S, x / tau, -1e-5):
            continue
        assert block_holds(S, x, tau) == want


def test_template_unit_slice_of_conic_disk():
    D = unit_disk_conic()
    rng = np.random.default_rng(SEED)
    for _ in range(60):
        x = rng.uniform(-1.5, 1.5, 2)
        r = float(np.linalg.norm(x))
        if abs(r - 1.0) < 1e-6:
            continue
        assert block_holds(D, x, 1.0) == (r <= 1.0)


def test_template_zero_slice_is_recession_cone():
    S = sets.sum_cone(sets.vpoly([[0.0, 0.0], [1.0, 0.0]]), [[0.0, 1.0]])
    assert block_holds(S, [0.0, 3.0], 0.0)
    assert not block_holds(S, [0.5, 0.0], 0.0)
    B = sets.box([-1.0, -1.0], [1.0, 1.0])
    assert block_holds(B, [0.0, 0.0], 0.0)
    assert not block_holds(B, [0.3, 0.0], 0.0)


def test_template_scale_zero_child_uses_recession():
    S = sets.scale(sets.box([0.0, -1.0], [INF, 1.0]), 0.0)
    assert block_holds(S, [4.0, 0.0], 1.0)
    assert not block_holds(S, [4.0, 0.5], 1.0)


def test_template_sum_cone_slice():
    S = sets.sum_cone(sets.ball([0.0, 0.0], 1.0), [[1.0, 0.0]])
    assert block_holds(S, [4.0, 0.5], 1.0)
    assert not block_holds(S, [4.0, 1.5], 1.0)
    assert not block_holds(S, [-1.5, 0.0], 1.0)


def test_template_level_set_slice():
    fn = sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0))
    S = sets.level_set(fn)
    assert block_holds(S, [0.5, 0.25], 1.0)
    assert not block_holds(S, [1.0, 0.5], 1.0)
    # tau scales the level set through the perspective
    assert block_holds(S, [1.0, 0.5], 2.0)


def test_a_box_lowers_as_the_polyhedron_of_its_rows():
    """Box and HPolyhedron share one lowering, row by row of collect_rows,
    also where w and tau share names and carry constants."""
    box = sets.box([-1.0, 0.5, -INF], [2.0, INF, 3.0])
    w = (Aff.of({"x0": 1.0, "y": -2.0}, 0.5), Aff.var("x1"), Aff.of({"x2": 1.0, "y": 0.25}))
    tau = Aff.of({"y": 1.5, "x0": 0.25}, -0.125)

    def lowered(S):
        return gauge.lower_epigraph(S, w, tau, gauge.NameGen())

    atoms, aux = lowered(box)
    assert (atoms, aux) == lowered(sets.hpoly(*sets.collect_rows(box)))
    assert len(atoms) == 4 and aux == []


def test_template_arity_mismatch_raises():
    gen = gauge.NameGen()
    with pytest.raises(sets.DimensionMismatch):
        gauge.lower_epigraph(
            sets.ball([0.0, 0.0], 1.0), (Aff.var("x"),), Aff.var("y"), gen
        )


# ---------------------------------------------------------------------------
# gauge epigraph blocks
# ---------------------------------------------------------------------------


def test_translated_ball_epigraph_matches_gauge_values():
    """The template of S - base for the ball of radius 2 around base."""
    S = sets.translate(sets.ball([3.0, 3.0], 2.0), [-3.0, -3.0])
    w = (Aff.var("x0"), Aff.var("x1"))
    atoms, _ = gauge.lower_epigraph(S, w, Aff.var("y"), gauge.NameGen())
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        x = rng.uniform(-3, 3, 2)
        y = float(rng.uniform(0.01, 3))
        env = {"x0": float(x[0]), "x1": float(x[1]), "y": y}
        want = float(np.linalg.norm(x)) / 2.0 <= y
        if abs(float(np.linalg.norm(x)) / 2.0 - y) < 1e-9:
            continue
        assert all(gauge.atom_violation(a, env) <= 1e-9 for a in atoms) == want


# ---------------------------------------------------------------------------
# cone-sum blocks
# ---------------------------------------------------------------------------


def axis_basis(s):
    """The axis frame with signs s, as the frame rows V and s."""
    return np.eye(len(s)), tuple(s)


def probe_cone_sum(C, frame):
    gauge._probe_cone_sum_condition(C, *frame, probes=500, seed=SEED)


def test_cone_sum_block_monotone_box():
    # C = [0,1]^2 grown downward: the result is {x : x <= 1}
    C = sets.box([0.0, 0.0], [1.0, 1.0])
    probe_cone_sum(C, axis_basis((1, 1)))
    terms = (((1.0, 0.0), Aff.var("x0")), ((0.0, 1.0), Aff.var("x1")))
    atoms = [gauge.GaugePlus(C, terms, Aff.var("y")), gauge.Linear(Aff.var("y", -1.0))]
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        x = rng.uniform(-3, 3, 2)
        y = float(rng.uniform(0.05, 2.5))
        env = {"x0": float(x[0]), "x1": float(x[1]), "y": y}
        want = max(x[0], x[1], 0.0) <= y
        if abs(max(x[0], x[1], 0.0) - y) < 1e-9:
            continue
        assert all(gauge.atom_violation(a, env) <= 1e-9 for a in atoms) == want


def test_cone_sum_probe_rejects_escaping_difference():
    C = sets.box([0.5, 0.0], [1.0, 1.0])
    with pytest.raises(gauge.ConditionViolated) as err:
        probe_cone_sum(C, axis_basis((1, 1)))
    w = np.asarray(err.value.witness)
    assert np.all(w >= -1e-9)
    assert not sets.contains(C, w, 1e-6)


def test_cone_sum_probe_rejects_unbounded_piece():
    C = sets.box([0.0, 0.0], [INF, 1.0])
    with pytest.raises(gauge.ConditionViolated):
        probe_cone_sum(C, axis_basis((1, 1)))


def in_axis_orthant(w) -> bool:
    return bool(np.all(np.asarray(w) >= -1e-9))


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_cone_sum_refutes_thin_piece(eps):
    """[0,1]^2 cut by x1 - eps x0 <= 0.5: (1, 0.5 + eps) is in C but zeroing
    its first coordinate leaves C.  One support value along (0, 1) shows it."""
    C = sets.intersect(sets.box([0.0, 0.0], [1.0, 1.0]), sets.hpoly([[-eps, 1.0]], [0.5]))
    with pytest.raises(gauge.ConditionViolated) as err:
        probe_cone_sum(C, axis_basis((1, 1)))
    w = np.asarray(err.value.witness)
    assert in_axis_orthant(w)
    assert not sets.contains(C, w, 1e-6)
    assert np.allclose(w, [0.0, 0.5 + eps], atol=1e-9)
    assert "frame direction 0" in str(err.value)


def test_cone_sum_refutes_ball_through_sampled_fallback(monkeypatch):
    """A ball has no rows and a trivial recession cone, so only projected
    exposed points of C cap K can refute it."""
    C = sets.ball((1.0, 1.0), 1.0)
    exposed = []
    real = sets.exposed_point

    def counted(S, u):
        exposed.append(u)
        return real(S, u)

    monkeypatch.setattr(sets, "exposed_point", counted)
    with pytest.raises(gauge.ConditionViolated) as err:
        probe_cone_sum(C, axis_basis((1, 1)))
    w = np.asarray(err.value.witness)
    assert exposed
    assert in_axis_orthant(w)
    assert not sets.contains(C, w, 1e-6)


def test_cone_sum_stall_raises_instead_of_passing(monkeypatch):
    """C cap K has no closed-form oracle; a stalled cut loop must surface."""
    def stalled(*args, **kwargs):
        return analysis.OptResult("stalled", math.nan, None, False, 1)

    monkeypatch.setattr(analysis, "maximize_over_atoms", stalled)
    C = sets.box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(sets.Stalled):
        probe_cone_sum(C, axis_basis((1, 1)))
