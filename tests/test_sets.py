"""Membership, support, recession, and gauge checks against closed-form oracles.

Every numeric comparison here is against an oracle computed by a different
route than the library uses: corner scans for box supports, combinatorial
basic solutions for polytope gauges, ratio formulas for H-form gauges, and
membership bisection (tests/oracles.py) where no closed form exists.
"""

import itertools
import math

import numpy as np
import pytest

from dfc import analysis, fixtures, gauge, sets
from oracles import gauge_bisect, unit_disk_conic

SEED = 20240
CASES = 200


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def box_support_oracle(lo, up, u):
    """Max of u.x over the finite box by scanning all corners."""
    corners = itertools.product(*[(a, b) for a, b in zip(lo, up)])
    return max(float(np.dot(u, c)) for c in corners)


def box_gauge_oracle(lo, up, x):
    """Gauge of a box with 0 interior via per-coordinate ratios."""
    g = 0.0
    for j, v in enumerate(x):
        if v > 0.0 and not math.isinf(up[j]):
            g = max(g, v / up[j])
        elif v < 0.0 and not math.isinf(lo[j]):
            g = max(g, v / lo[j])
    return g


def hpoly_gauge_oracle(A, b, x):
    """Gauge of {Ax <= b} with b > 0 via row ratios."""
    return max([float(np.dot(a, x)) / bi for a, bi in zip(A, b)] + [0.0])


def vpoly_gauge_oracle(V, x):
    """min sum(mu) s.t. V^T mu = x, mu >= 0, by scanning vertex subsets.

    A basic optimal solution uses at most dim(x) vertices, so enumerating
    subsets of that size covers the optimum for generic x.
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[1]
    best = math.inf
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(V.shape[0]), size):
            sub = V[list(idx)].T
            mu, resid, _, _ = np.linalg.lstsq(sub, np.asarray(x, float), rcond=None)
            if np.any(mu < -1e-9):
                continue
            err = float(np.linalg.norm(sub @ mu - x))
            if err <= 1e-9 * (1.0 + float(np.linalg.norm(x))):
                best = min(best, float(np.sum(mu)))
    return best


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_box_membership_matches_coordinate_predicate():
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        n = int(rng.integers(1, 5))
        lo = rng.uniform(-3, 0, n)
        up = rng.uniform(0.1, 3, n)
        S = sets.box(lo, up)
        x = rng.uniform(-4, 4, n)
        inside = bool(np.all(x >= lo) and np.all(x <= up))
        if np.min(np.minimum(x - lo, up - x)) > 1e-6 or inside is False:
            assert sets.contains(S, x) == inside


def test_vpolytope_membership_matches_halfspace_description():
    # diamond |x| + |y| <= 1 in both descriptions
    V = sets.vpoly([[1, 0], [0, 1], [-1, 0], [0, -1]])
    A = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    H = sets.hpoly(A, [1, 1, 1, 1])
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        x = rng.uniform(-1.5, 1.5, 2)
        if abs(abs(x[0]) + abs(x[1]) - 1.0) < 1e-6:
            continue
        assert sets.contains(V, x) == sets.contains(H, x)


def test_conic_disk_membership_matches_norm():
    D = unit_disk_conic()
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        x = rng.uniform(-1.5, 1.5, 2)
        if abs(float(np.linalg.norm(x)) - 1.0) < 1e-6:
            continue
        assert sets.contains(D, x) == (float(np.linalg.norm(x)) <= 1.0)


def test_level_set_membership_is_function_sign():
    fn = sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0))
    S = sets.level_set(fn)
    assert sets.contains(S, [0.5, 0.25])
    assert sets.contains(S, [-2.0, 0.0])
    assert not sets.contains(S, [1.0, 0.5])


def test_vpolytope_membership_holds_its_tolerance():
    """The simplex accepts rows off by 1e-7 of the instance scale; a point
    2e-7 outside the hull is still no member at tol 0 or 1e-9."""
    verts = [[1, 0.2], [-0.3, 1.1], [-0.9, -0.8], [0.7, -1]]
    V = sets.vpoly(verts)
    outside = [-0.46132476, 0.58913886]
    assert not sets.contains(V, outside, 0.0)
    assert not sets.contains(V, outside, 1e-9)
    assert sets.contains(V, outside, 1e-6)
    for x in [*verts, np.mean(verts, axis=0)]:
        assert sets.contains(V, x)


def test_scale_zero_is_recession_cone():
    S = sets.scale(sets.box([0, -1], [math.inf, 1]), 0.0)
    assert sets.contains(S, [3.0, 0.0])
    assert not sets.contains(S, [3.0, 0.5])
    assert not sets.contains(S, [-1.0, 0.0])


def test_sum_cone_membership():
    S = sets.sum_cone(sets.ball([0, 0], 1.0), [[1.0, 0.0]])
    assert sets.contains(S, [5.0, 0.5])
    assert not sets.contains(S, [-1.5, 0.0])
    assert not sets.contains(S, [5.0, 1.5])


def test_contains_dimension_mismatch():
    with pytest.raises(sets.DimensionMismatch):
        sets.contains(sets.box([0, 0], [1, 1]), [0.5])


# ---------------------------------------------------------------------------
# support and exposed points
# ---------------------------------------------------------------------------


def test_box_support_matches_corner_scan():
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        n = int(rng.integers(1, 5))
        lo = rng.uniform(-3, 0, n)
        up = rng.uniform(0, 3, n)
        u = rng.normal(size=n)
        got = sets.support(sets.box(lo, up), u)
        assert got == pytest.approx(box_support_oracle(lo, up, u), abs=1e-12)


def test_support_attained_at_exposed_point():
    rng = np.random.default_rng(SEED)
    catalog = [
        sets.box([-1, -2], [2, 1]),
        sets.ball([0.5, -0.5], 2.0),
        sets.vpoly([[0, 0], [2, 0], [1, 2], [-1, 1]]),
        sets.translate(sets.ball([0, 0], 1.0), [3, 3]),
        sets.scale(sets.vpoly([[1, 1], [-1, 1], [0, -1]]), 2.5),
    ]
    for S in catalog:
        for _ in range(CASES // len(catalog) + 1):
            u = rng.normal(size=2)
            p = sets.exposed_point(S, u)
            assert sets.contains(S, p, 1e-7)
            assert float(np.dot(u, p)) == pytest.approx(sets.support(S, u), abs=1e-7)


def test_support_validity_over_sampled_members():
    rng = np.random.default_rng(SEED)
    V = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [-1.0, 1.0]])
    S = sets.vpoly(V)
    for _ in range(CASES):
        w = rng.dirichlet(np.ones(4))
        x = w @ V
        u = rng.normal(size=2)
        assert float(np.dot(u, x)) <= sets.support(S, u) + 1e-9


def test_support_translate_and_scale_rules():
    rng = np.random.default_rng(SEED)
    base = sets.vpoly([[1, 0], [0, 1], [-1, -1]])
    for _ in range(CASES):
        u = rng.normal(size=2)
        t = rng.uniform(-2, 2, 2)
        a = float(rng.uniform(0.1, 3))
        sig = sets.support(base, u)
        assert sets.support(sets.translate(base, t), u) == pytest.approx(
            sig + float(np.dot(t, u)), abs=1e-9
        )
        assert sets.support(sets.scale(base, a), u) == pytest.approx(
            a * sig, abs=1e-9
        )


def test_conic_disk_support_matches_norm():
    D = unit_disk_conic()
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        u = rng.normal(size=2)
        assert sets.support(D, u) == pytest.approx(
            float(np.linalg.norm(u)), abs=1e-6
        )


def test_sum_cone_support_unbounded_along_ray():
    S = sets.sum_cone(sets.ball([0, 0], 1.0), [[1.0, 0.0]])
    assert sets.support(S, [1.0, 0.0]) == math.inf
    assert sets.support(S, [-1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert sets.support(S, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-9)


def test_unbounded_box_support_and_exposed():
    S = sets.box([0, 0], [math.inf, 1])
    assert sets.support(S, [1, 0]) == math.inf
    with pytest.raises(sets.UnboundedDirection):
        sets.exposed_point(S, [1, 0])


def test_support_dimension_mismatch():
    with pytest.raises(sets.DimensionMismatch):
        sets.support(sets.ball([0, 0], 1.0), [1, 0, 0])


# ---------------------------------------------------------------------------
# recession cones
# ---------------------------------------------------------------------------


def test_recession_membership_box():
    S = sets.box([0, -1], [math.inf, 1])
    assert sets.recession_contains(S, [1, 0])
    assert not sets.recession_contains(S, [-1, 0])
    assert not sets.recession_contains(S, [1, 0.1])
    assert sets.recession_contains(sets.ball([0, 0], 1.0), [0, 0])
    assert not sets.recession_contains(sets.ball([0, 0], 1.0), [1, 0])


def test_recession_membership_intersect_and_template():
    quad = sets.hpoly([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    S = sets.intersect(quad, sets.hpoly([[1.0, -1.0]], [0.5]))
    assert sets.recession_contains(S, [1, 1])
    assert sets.recession_contains(S, [0, 1])
    assert not sets.recession_contains(S, [1, 0])


@pytest.mark.parametrize(
    "S",
    [
        fixtures.ex1_sets()[0],
        *fixtures.ex5_sets(),
        sets.conic([[1, 0], [0, 1]], (), [0, 0], [("soc", 2)]),
        sets.hpoly([[-1.0, 0.0], [1.0, -1.0]], [0.0, 0.5]),
        sets.level_set(sets.AffineFn((1.0, -2.0), -1.0)),
        sets.level_set(sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0))),
        sets.level_set(sets.GeoMeanDeficit(2.0, 1.0, 3)),
        sets.level_set(
            sets.MaxOf((sets.AffineFn((0.0, 1.0), -2.0), sets.QuadraticPlus((1.0, 1.0), -1.0, (1.0, 0.0))))
        ),
    ],
    ids=["ex1-body", "ex5-body0", "ex5-body1", "cone", "hpoly", "affine", "quadratic-plus", "geomean", "max-of"],
)
def test_conic_recession_matches_the_template(S):
    """rec {x : A x + c in K} = {d : A d in K}, rec {x : A x <= b} =
    {d : A d <= 0} and rec {x : f(x) <= 0} = {d : persp_f(d, 0) <= 0}, read
    off without a solve."""
    rng = np.random.default_rng(SEED)
    dirs = [sgn * e for e in np.eye(S.dim) for sgn in (1.0, -1.0)]
    dirs += list(rng.normal(size=(CASES, S.dim)))
    for d in dirs:
        assert sets.recession_contains(S, d) == analysis.member_via_feasibility(S, d, 0.0, 1e-9)


def test_validate_family_of_conic_sets_lowers_no_template(monkeypatch):
    """Once the conic member's template and feasibility-probe optimum are
    memoized (analysis._template, analysis._set_optimum), the point check and
    the 64 recession probes of ex1's family need no epigraph lowering.  On a
    cone sum with rays and a conic set with auxiliaries, gauge, membership
    and recession fallbacks fix bounds on the one cached template: after one
    call each, none lowers or compiles again."""
    members = fixtures.ex1_sets()
    for S in members:
        sets.find_point(S)
    aux_sets = (
        sets.sum_cone(sets.box([-1.0, -1.0], [1.0, 1.0]), [[1.0, 0.0]]),
        sets.conic([[1, 0], [0, 0], [0, 0]], [[-1], [1], [-1]], [-2, 0, 1], [("nonneg", 3)]),
    )
    oracles = [
        oracle
        for S, base in zip(aux_sets, map(sets.find_point, aux_sets))
        for oracle in (
            lambda x, S=S, base=base: sets.gauge_value(S, base, x),
            lambda x, S=S: sets.contains(S, x),
            lambda x, S=S: sets.recession_contains(S, x),
        )
    ]
    for oracle in oracles:
        oracle([1.5, 0.5])
    calls = []
    for mod, name in ((gauge, "lower_epigraph"), (analysis, "compile_atoms")):

        def counting(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    assert sets.validate_family(members).verdict == "pass"
    for x in ([2.0, -0.5], [-0.5, 0.25], [3.0, 0.0]):
        for oracle in oracles:
            oracle(x)
    assert calls == []


def test_template_pins_are_never_clamped():
    """The set x0 >= 2000 + z, z in [0, 1], lies past the artificial box:
    pinned points far out are read as given, not moved to the box."""
    S = sets.conic([[1, 0], [0, 0], [0, 0]], [[-1], [1], [-1]], [-2000, 0, 1], [("nonneg", 3)])
    assert sets.contains(S, (3000, 0))
    assert sets.contains(S, (2000.5, 0))
    assert not sets.contains(S, (1500, 0))
    assert sets.recession_contains(S, (1, 0))
    assert not sets.recession_contains(S, (-1, 0))


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def test_gauge_box_matches_ratio_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-3, -0.2, n)
        up = rng.uniform(0.2, 3, n)
        S = sets.box(lo, up)
        x = rng.uniform(-5, 5, n)
        want = box_gauge_oracle(lo, up, x)
        assert sets.gauge_value(S, np.zeros(n), x) == pytest.approx(want, abs=1e-12)


def test_gauge_ball_matches_norm_ratio():
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        c = rng.uniform(-2, 2, 3)
        r = float(rng.uniform(0.2, 3))
        x = rng.uniform(-4, 4, 3)
        want = float(np.linalg.norm(x - c)) / r
        got = sets.gauge_value(sets.ball(c, r), c, x)
        assert got == pytest.approx(want, abs=1e-12 * (1 + want))


def test_gauge_hpoly_matches_row_ratio_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(CASES):
        k = int(rng.integers(3, 7))
        A = rng.normal(size=(k, 2))
        b = rng.uniform(0.3, 2.0, k)
        S = sets.hpoly(A, b)
        x = rng.uniform(-3, 3, 2)
        want = hpoly_gauge_oracle(A, b, x)
        got = sets.gauge_value(S, [0.0, 0.0], x)
        if math.isinf(got):
            continue
        assert got == pytest.approx(want, abs=1e-12 * (1 + want))


def test_gauge_vpoly_matches_combinatorial_oracle():
    rng = np.random.default_rng(SEED)
    margin = [[0.25, 0], [-0.25, 0], [0, 0.25], [0, -0.25]]
    kept = 0
    while kept < CASES:
        V = rng.uniform(-2, 2, size=(5, 2))
        S = sets.vpoly(V)
        # keep the origin comfortably interior so the gauge is well conditioned
        if not all(sets.contains(S, p) for p in margin):
            continue
        x = rng.uniform(-2, 2, 2)
        want = vpoly_gauge_oracle(V, x)
        got = sets.gauge_value(S, [0.0, 0.0], x)
        assert got == pytest.approx(want, abs=1e-8 * (1 + want))
        kept += 1


def test_gauge_positive_homogeneity():
    rng = np.random.default_rng(SEED)
    shapes = [
        sets.box([-1, -2], [2, 1]),
        sets.ball([0, 0], 1.5),
        sets.vpoly([[2, 0], [0, 2], [-1, -1]]),
    ]
    for _ in range(CASES):
        S = shapes[int(rng.integers(len(shapes)))]
        x = rng.uniform(-2, 2, 2)
        t = float(rng.uniform(0.1, 8))
        g = sets.gauge_value(S, [0.0, 0.0], x)
        gt = sets.gauge_value(S, [0.0, 0.0], t * x)
        assert gt == pytest.approx(t * g, abs=1e-9 * (1 + t * g))


def test_gauge_level_set_boundary_consistency():
    rng = np.random.default_rng(SEED)
    shapes = [
        sets.box([-1, -2], [2, 1]),
        sets.ball([0.1, -0.1], 1.5),
        sets.vpoly([[2, 0], [0, 2], [-1, -1]]),
    ]
    base = np.zeros(2)
    for _ in range(CASES):
        S = shapes[int(rng.integers(len(shapes)))]
        x = rng.uniform(-3, 3, 2)
        g = sets.gauge_value(S, base, x)
        if g < 0.1:
            continue
        boundary = x / g
        assert sets.contains(S, boundary * (1 - 1e-3), 1e-7)
        assert not sets.contains(S, boundary * (1 + 1e-3), 1e-7)


def test_gauge_translate_invariance():
    rng = np.random.default_rng(SEED)
    S = sets.vpoly([[2, 0], [0, 2], [-1, -1], [-1, 1]])
    for _ in range(CASES):
        t = rng.uniform(-3, 3, 2)
        b = rng.uniform(-0.2, 0.2, 2)
        x = rng.uniform(-2, 2, 2)
        g0 = sets.gauge_value(S, b, x)
        g1 = sets.gauge_value(sets.translate(S, t), b + t, x + t)
        assert g1 == pytest.approx(g0, abs=1e-8 * (1 + g0))


def test_gauge_conic_disk_matches_norm():
    D = unit_disk_conic()
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        x = rng.uniform(-2, 2, 2)
        want = float(np.linalg.norm(x))
        got = sets.gauge_value(D, [0.0, 0.0], x)
        assert got == pytest.approx(want, abs=1e-12 * (1 + want))


def test_gauge_recession_direction_is_zero():
    S = sets.box([0, -1], [math.inf, 1])
    assert sets.gauge_value(S, [1.0, 0.0], [8.0, 0.0]) == 0.0


def test_conic_with_auxiliaries_contains_its_apex():
    """{x : ||x|| <= z <= 1} projected onto x is the unit disk.  At x = 0 the
    lifted point sits at the cone's apex, where the norm argument is 0 and
    only the cut -z <= 0 stops the feasibility gap at z = -1000."""
    C = sets.conic(
        [[0, 0], [1, 0], [0, 1], [0, 0]], [[1], [0], [0], [-1]], [0, 0, 0, 1],
        [("soc", 3), ("nonneg", 1)],
    )
    assert sets.contains(C, (0.0, 0.0))
    assert sets.contains(C, (1e-9, 0.0))
    assert not sets.contains(C, (2.0, 0.0))
    assert sets.gauge_value(C, (0.0, 0.0), (0.5, 0.0)) == pytest.approx(0.5, rel=1e-8)


def test_gauge_value_scales_past_any_bracket():
    """The exact rules have no bracket: tiny and huge arguments keep their
    gauge to rounding, and the ex7 body's boundary point (1, 1, 1) has
    gauge 1."""
    B = sets.box([-1.0, -1.0], [1.0, 1.0])
    assert sets.gauge_value(B, [0.0, 0.0], [1e-12, 0.0]) == 1e-12
    assert sets.gauge_value(B, [0.0, 0.0], [1e7, 0.0]) == 1e7
    body = sets.level_set(sets.GeoMeanDeficit(2.0, 1.0, 3))
    assert sets.gauge_value(body, np.zeros(3), [1.0, 1.0, 1.0]) == pytest.approx(1.0, rel=1e-15)


def test_gauge_value_template_fallback_on_unbounded_sets():
    """Sets that no exact rule covers, a cone sum with a ray and a translated
    parabola (ex6's slab without its cap), take the least tau over their own
    template.  The cone sum has the closed form
    max(|x1|, -x0); both agree with membership bisection, and the gauge
    scales with x at any size."""
    S = sets.sum_cone(sets.box([-1.0, -1.0], [1.0, 1.0]), [[1.0, 0.0]])
    parab = sets.level_set(sets.QuadraticPlus((1.0, 0.0), 0.0, (0.0, 1.0)))
    base = np.array([0.0, 0.5])
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 2)
        g = sets.gauge_value(S, [0.0, 0.0], x)
        assert g == pytest.approx(max(abs(x[1]), -x[0]), abs=1e-8)
        assert g == pytest.approx(gauge_bisect(S, x), abs=1e-7)
        for s in (1e-12, 1e7):
            assert sets.gauge_value(S, [0.0, 0.0], s * x) == pytest.approx(s * g, rel=1e-12)
        g = sets.gauge_value(parab, base, base + x)
        assert g == pytest.approx(gauge_bisect(sets.translate(parab, -base), x), abs=1e-7)


def test_gauge_value_template_fallback_past_the_box():
    """Gauges whose template optimum lies past the artificial box (1e3) are
    found on the argument scaled down by it.  A thin base (1e-4) with a ray
    has the closed form max(|x1|, -x0) / 1e-4, up to 2e4 here; the short ray
    (1e-4, 0) needs a ray multiplier of 5e3 at (1, 0.5), whose gauge is 0.5.
    Membership bisection matches to its own accuracy on the thin base, whose
    absolute feasibility tolerance is 1e-5 of its width."""
    eps = 1e-4
    slab = sets.sum_cone(sets.box([-eps, -eps], [eps, eps]), [[1.0, 0.0]])
    for x in ([0.0, 1.0], [0.3, 1.0], [-2.0, 0.7], [1.0, -1.0]):
        g = sets.gauge_value(slab, [0.0, 0.0], x)
        assert g == pytest.approx(max(abs(x[1]), -x[0]) / eps, rel=1e-9)
        assert g == pytest.approx(gauge_bisect(slab, x, tol=0.0), rel=1e-4)
    ray = sets.sum_cone(sets.box([-1.0, -1.0], [1.0, 1.0]), [[eps, 0.0]])
    assert sets.gauge_value(ray, [0.0, 0.0], [1.0, 0.5]) == pytest.approx(0.5, rel=1e-9)


def test_gauge_value_template_fallback_on_the_box_raises():
    """Along a ray (1e-8, 0) the gauge at (1, 0.5) needs a ray multiplier of
    5e7, past the box even at the scaled argument; the fallback raises
    rather than report a box-limited value."""
    S = sets.sum_cone(sets.box([-1.0, -1.0], [1.0, 1.0]), [[1e-8, 0.0]])
    with pytest.raises(ArithmeticError, match="artificial box"):
        sets.gauge_value(S, [0.0, 0.0], [1.0, 0.5])


def test_gauge_value_lets_a_rule_error_through(monkeypatch):
    """A gauge takes one path, with no fallback around a rule: an arithmetic
    fault inside a rule shows instead of being rerouted."""
    from dfc import gauge

    def broken(A, b, w):
        raise ZeroDivisionError("rule fault")

    monkeypatch.setattr(gauge, "_rows_gauge", broken)
    with pytest.raises(ZeroDivisionError, match="rule fault"):
        sets.gauge_value(sets.box([-1.0, -1.0], [1.0, 1.0]), [0.0, 0.0], [0.5, 0.0])


def test_gauge_base_outside_raises():
    with pytest.raises(sets.BasePointNotInSet):
        sets.gauge_value(sets.ball([0, 0], 1.0), [5.0, 0.0], [6.0, 0.0])


def test_gauge_dimension_mismatch():
    with pytest.raises(sets.DimensionMismatch):
        sets.gauge_value(sets.ball([0, 0], 1.0), [0.0, 0.0], [1.0, 0.0, 0.0])


UNIT_BOX = sets.box([-1.0, -1.0], [1.0, 1.0])
NAN = float("nan")
# each public oracle with one non-finite operand, on the unit box
NON_FINITE_CALLS = {
    "support": lambda: sets.support(UNIT_BOX, [NAN, 1.0]),
    "exposed_point": lambda: sets.exposed_point(UNIT_BOX, [NAN, 1.0]),
    "contains": lambda: sets.contains(UNIT_BOX, [NAN, 0.0]),
    "contains-inf": lambda: sets.contains(UNIT_BOX, [math.inf, 0.0]),
    "recession_contains": lambda: sets.recession_contains(UNIT_BOX, [NAN, 0.0]),
    "gauge_value": lambda: sets.gauge_value(UNIT_BOX, [0.0, 0.0], [NAN, 0.5]),
    "gauge_value-base": lambda: sets.gauge_value(UNIT_BOX, [0.0, NAN], [0.0, 0.5]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_oracles_refuse_non_finite_operands(name):
    """A NaN or infinite operand is no question an oracle can answer: a NaN
    point used to read as inside the box, with gauge 0, and a NaN direction
    had support 1."""
    with pytest.raises(sets.OutOfDomain, match="must be finite"):
        NON_FINITE_CALLS[name]()


OUT_OF_DOMAIN_SETS = {
    "ball-negative": lambda: sets.ball([0.0, 0.0], -1.0),
    "ball-inf": lambda: sets.ball([0.0, 0.0], math.inf),
    "ball-nan": lambda: sets.ball([0.0, 0.0], NAN),
    "conic-soc-0": lambda: sets.conic(
        [[1.0, 0.0], [0.0, 1.0]], (), [0.0, 0.0], [("nonneg", 2), ("soc", 0)]
    ),
    "conic-nonneg-negative": lambda: sets.conic(
        [[1.0, 0.0], [0.0, 1.0]], (), [0.0, 0.0], [("nonneg", 3), ("zero", -1)]
    ),
}
SQUARE = sets.box([-1.0, -1.0], [1.0, 1.0])
NON_FINITE_SETS = {
    "box-nan": lambda: sets.box([NAN, 0.0], [1.0, 1.0]),
    "hpoly-nan-b": lambda: sets.hpoly([[1.0, 0.0]], [NAN]),
    "hpoly-inf-row": lambda: sets.hpoly([[math.inf, 0.0]], [1.0]),
    "vpoly-inf": lambda: sets.vpoly([[0.0, math.inf]]),
    "ball-nan-center": lambda: sets.ball([NAN, 0.0], 1.0),
    "conic-nan-c": lambda: sets.conic([[1.0, 0.0]], (), [NAN], [("nonneg", 1)]),
    "conic-inf-A": lambda: sets.conic([[math.inf, 0.0]], (), [1.0], [("nonneg", 1)]),
    "conic-inf-B": lambda: sets.conic([[1.0, 0.0]], [[math.inf]], [1.0], [("nonneg", 1)]),
    "translate-nan": lambda: sets.translate(SQUARE, (NAN, 0.0)),
    "scale-nan": lambda: sets.scale(SQUARE, NAN),
    "scale-inf": lambda: sets.scale(SQUARE, math.inf),
    "sum_cone-inf": lambda: sets.sum_cone(SQUARE, [[math.inf, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_DOMAIN_SETS))
def test_constructors_refuse_out_of_domain_data(name):
    """A ball of negative radius used to load with oracles that disagree
    (support -1 along every unit direction, yet find_point gave the center),
    and a cone block of size 0 made contains and support raise IndexError."""
    with pytest.raises(sets.OutOfDomain):
        OUT_OF_DOMAIN_SETS[name]()


@pytest.mark.parametrize("name", sorted(NON_FINITE_SETS))
def test_constructors_refuse_non_finite_data(name):
    """A NaN or infinite entry used to load: a NaN offset or an infinite
    vertex gave support NaN, a NaN factor or bound made support raise
    Stalled, and an infinite factor was accepted.  Only a box bound may be
    infinite, where it leaves that side open."""
    with pytest.raises(sets.OutOfDomain, match="must be"):
        NON_FINITE_SETS[name]()
    assert sets.support(sets.box([-1.0, -math.inf], [1.0, 2.0]), [0.0, 1.0]) == 2.0


def test_a_ball_of_radius_zero_is_its_center():
    P = sets.ball([1.0, 2.0], 0.0)
    assert sets.contains(P, [1.0, 2.0], 1e-9)
    assert sets.support(P, [3.0, 4.0]) == pytest.approx(11.0)


# ---------------------------------------------------------------------------
# point finding and family validation
# ---------------------------------------------------------------------------


def test_find_point_returns_member():
    catalog = [
        sets.box([-1, 0], [2, math.inf]),
        sets.ball([1, 1], 0.5),
        sets.vpoly([[0, 0], [1, 0], [0, 1]]),
        sets.hpoly([[1, 0], [0, 1], [-1, -1]], [1, 1, 1]),
        unit_disk_conic(),
        sets.intersect(sets.ball([0, 0], 1.0), sets.box([0, 0], [1, 1])),
    ]
    for S in catalog:
        p = sets.find_point(S)
        assert p is not None
        assert sets.contains(S, p, 1e-6)


def test_find_point_empty_box_is_none():
    assert sets.find_point(sets.Box((1.0,), (0.0,))) is None


def test_find_point_empty_intersection_is_none():
    S = sets.intersect(sets.ball([0, 0], 1.0), sets.box([5, 5], [6, 6]))
    assert sets.find_point(S) is None


def test_validate_family_pass_and_recession_mismatch():
    ok = sets.validate_family(
        [sets.ball([0, 0], 1.0), sets.box([-1, -1], [1, 1])],
        base_points=[[0, 0], [0, 0]],
    )
    assert ok.verdict == "pass"

    bad = sets.validate_family(
        [sets.box([0, 0], [1, 1]), sets.box([0, 0], [math.inf, 1])]
    )
    assert bad.verdict == "fail"
    assert bad.witness is not None
    d = np.asarray(bad.witness)
    assert sets.recession_contains(sets.box([0, 0], [math.inf, 1]), d)
    assert not sets.recession_contains(sets.box([0, 0], [1, 1]), d)


def test_validate_family_base_point_outside_fails():
    rep = sets.validate_family(
        [sets.ball([0, 0], 1.0), sets.ball([0, 0], 1.0)],
        base_points=[[0, 0], [9, 9]],
    )
    assert rep.verdict == "fail"
    assert rep.witness == (9.0, 9.0)


def test_validate_family_errors():
    with pytest.raises(sets.DimensionMismatch):
        sets.validate_family([sets.ball([0, 0], 1.0), sets.ball([0, 0, 0], 1.0)])
    with pytest.raises(sets.EmptySet):
        sets.validate_family([sets.Box((1.0,), (0.0,))])
    with pytest.raises(sets.EmptySet):
        sets.validate_family([])


def test_collect_rows_needs_halfspace_form():
    with pytest.raises(sets.NotPolyhedral):
        sets.collect_rows(sets.vpoly([[0, 0], [1, 0]]))
