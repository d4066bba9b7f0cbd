"""Acceptance gate: one test per criterion, one printed pass or fail line each.

Frozen constants were produced by independent oracles (grid search, gauge
bisection, brute-force vertex enumeration) before the implementation was
trusted with them.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from dfc import analysis, builders, fixtures, gauge, model, sets
from oracles import (
    ex1_outside_point,
    ex5_covers,
    ex6_closed_form_member,
    gauge_bisect,
    maximize_over_relaxation,
)

SEED = analysis.DEFAULT_SEED


@contextlib.contextmanager
def announced(capsys, num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num}: FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"criterion {num}: PASS  {label} ({time.perf_counter() - t0:.1f}s)")


def witness_env(form_x_count: int = 3):
    env = {f"x{j}": v for j, v in enumerate(fixtures.EX7_WITNESS_X)}
    env.update({f"y{i}": v for i, v in enumerate(fixtures.EX7_WITNESS_Y)})
    return env


def relaxation_vertices(form):
    """Vertices of the relaxed feasible region, bounds folded into rows."""
    compiled = analysis.compile_relaxation(form)
    G = list(compiled.rows)
    h = list(compiled.rhs)
    m = len(compiled.names)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        if math.isfinite(compiled.ub[i]):
            G.append(e.copy())
            h.append(float(compiled.ub[i]))
        if math.isfinite(compiled.lb[i]):
            G.append(-e)
            h.append(-float(compiled.lb[i]))
    vs = analysis.enumerate_vertices(G, h, compiled.eq_rows, compiled.eq_rhs)
    return vs, compiled.names


def test_criterion_1_activation_constants(capsys):
    with announced(capsys, 1, "minimal activation constants"):
        t0 = time.perf_counter()
        spec = fixtures.load("ex1", "bigm")
        m01 = builders.minimal_bigm(spec, 0, 1)
        m10 = builders.minimal_bigm(spec, 1, 0)
        assert float(m01) == pytest.approx(1.25, abs=1e-6)
        assert m01.exact
        assert float(m10) == pytest.approx(1.2, abs=1e-6)
        table = builders.bigm_table(spec)
        assert table.values[0][0] == 1.0 and table.exact[0][0]
        assert table.coordinate_values[1][0] == pytest.approx(1.5, abs=1e-6)
        assert time.perf_counter() - t0 < 2.0


def test_criterion_2_loose_relaxation_witness(capsys):
    with announced(capsys, 2, "loose relaxation witness point"):
        point = ex1_outside_point(0.5)
        assert point[0] == pytest.approx(1.375, abs=1e-12)
        assert point[1] == pytest.approx(0.8035714285714286, abs=1e-12)
        form = builders.build(fixtures.load("ex1", "bigm"))
        env = {"x0": point[0], "x1": point[1], "y0": 0.5, "y1": 0.5}
        assert analysis.relaxation_max_violation(form, env) <= 1e-8
        sharp = analysis.check_sharp(form, count=200)
        ideal = analysis.check_ideal(form, count=200)
        for rep in (sharp, ideal):
            assert rep.verdict == "fail"
            assert rep.margin >= 1e-3
            assert rep.witnesses and len(rep.witnesses[0]["direction"]) >= 2
        assert sharp.margin == pytest.approx(0.03521975903164942, abs=1e-9)
        assert ideal.margin == pytest.approx(0.04203570752340546, abs=1e-9)


def test_criterion_3_extended_formulation_strength(capsys):
    with announced(capsys, 3, "extended formulation strength checks"):
        t0 = time.perf_counter()
        form = builders.build(fixtures.load("ex1", "extended"))
        ideal = analysis.check_ideal(form, count=500, tol=1e-5)
        assert ideal.verdict == "not-refuted"
        assert ideal.samples == 500
        mink = analysis.check_minkowski_ideal(form, count=200)
        assert mink.verdict == "not-refuted"
        assert mink.samples == 200
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_piecewise_cover_formulation(capsys):
    with announced(capsys, 4, "piecewise cover formulation checks"):
        spec = fixtures.load("ex3")
        form = builders.build(spec)
        soc = [a for a in form.atoms if isinstance(a, gauge.SOC)]
        bound_rows = [
            a for a in form.atoms
            if isinstance(a, gauge.Linear) and a.relation == "le"
        ]
        assert len(soc) == 4
        assert len(bound_rows) == 4
        # the four families emit eight bound rows; merging leaves four
        assert form.dedup_removed == 4
        assert len(form.atoms) == 9
        covers = [fam.cover_sets() for fam in spec.params.families]
        par = analysis.check_par_conditions(spec.sets, covers, count=360)
        assert par.verdict == "not-refuted"
        assert par.samples == 360
        ideal = analysis.check_ideal(form, count=500, tol=1e-5)
        assert ideal.verdict == "not-refuted"


def test_criterion_5_exact_vertex_integrality_split(capsys):
    with announced(capsys, 5, "exact vertex integrality split"):
        spec = fixtures.load("ex4", "original")
        form = builders.build(spec)
        vs, names = relaxation_vertices(form)
        assert names == ["x0", "x1", "x2", "y0", "y1"]
        target = np.asarray(fixtures.EX4_FRACTIONAL_POINT)
        dist = min(float(np.max(np.abs(v - target))) for v in vs.vertices)
        assert dist <= 1e-9
        ideal = analysis.check_ideal(form, mode="exact")
        assert ideal.verdict == "fail"
        assert "exact vertex enumeration" in ideal.notes
        bbj = analysis.check_bbj_condition(*builders.shared_rows(spec.sets))
        assert bbj.verdict == "fail"
        assert list(bbj.witnesses[0]["direction"]) == [0.0, 0.0, 1.0]

        aug = fixtures.load("ex4", "augmented")
        aform = builders.build(aug)
        avs, anames = relaxation_vertices(aform)
        y_idx = [anames.index(nm) for nm in aform.y_names]
        assert avs.vertices.shape[0] > 0
        for v in avs.vertices:
            assert max(abs(v[i] - round(v[i])) for i in y_idx) <= 1e-9
        aideal = analysis.check_ideal(aform, mode="exact")
        assert aideal.verdict == "pass"
        abbj = analysis.check_bbj_condition(*builders.shared_rows(aug.sets), count=100)
        assert abbj.verdict == "not-refuted"
        assert abbj.samples == 100


def test_criterion_6_cover_conditions_versus_idealness(capsys):
    with announced(capsys, 6, "cover conditions versus idealness"):
        pair_spec = fixtures.load("ex5", "pair")
        pair = builders.build(pair_spec)
        triple = builders.build(fixtures.load("ex5", "triple"))
        assert len(pair.atoms) == 5 and len(triple.atoms) == 5
        pair_keys = {builders.atom_key(a) for a in pair.atoms}
        triple_keys = {builders.atom_key(a) for a in triple.atoms}
        assert pair_keys == triple_keys
        assert triple.dedup_removed == 2
        par = analysis.check_par_conditions(
            pair_spec.sets, ex5_covers(pair_spec), count=120
        )
        assert par.verdict == "fail"
        assert par.witnesses and par.witnesses[0]["condition"] == "support-match"
        assert len(par.witnesses[0]["direction"]) == 2
        ideal = analysis.check_ideal(pair, count=500)
        assert ideal.verdict == "not-refuted"


def test_criterion_7_membership_classifier_agreement(capsys):
    with announced(capsys, 7, "membership classifier agreement"):
        form = builders.build(fixtures.load("ex6"))
        rng = np.random.default_rng(SEED)
        mismatches = 0
        inside = 0
        for _ in range(1000):
            x = rng.uniform(-2.0, 2.0, size=2)
            t = float(rng.uniform(0.0, 1.0))
            env = {"x0": float(x[0]), "x1": float(x[1]), "y0": t, "y1": 1.0 - t}
            got = analysis.relaxation_max_violation(form, env) <= 1e-7
            want = ex6_closed_form_member((x[0], x[1], t, 1.0 - t))
            mismatches += got != want
            inside += want
        assert mismatches == 0
        assert 0 < inside < 1000


def test_criterion_8_positive_part_gauge_witness(capsys):
    with announced(capsys, 8, "positive-part gauge witness"):
        single = builders.build(fixtures.load("ex7", "single"))
        ideal = analysis.check_ideal(single, count=500)
        assert ideal.verdict == "not-refuted"

        wide = builders.build(fixtures.load("ex7", "wide"))
        weak = builders.build(fixtures.load("ex7", "wide_single"))
        env = witness_env()
        assert analysis.relaxation_max_violation(weak, env) <= 1e-8
        gp = [a for a in wide.atoms if isinstance(a, gauge.GaugePlus)]
        assert gp and all(a.positive_part for a in gp)
        viol = max(gauge.atom_violation(a, env) for a in gp)
        assert viol >= 1e-3
        assert viol == pytest.approx(0.050176139567666866, abs=1e-9)

        body = gp[0].set_ref
        gx = gauge_bisect(body, fixtures.EX7_WITNESS_X)
        gpos = gauge_bisect(body, [max(v, 0.0) for v in fixtures.EX7_WITNESS_X])
        assert gx <= 0.5 + 1e-5
        assert gx == pytest.approx(0.5, abs=1e-3)
        assert gpos >= 0.5 + 1e-3


def test_criterion_9_property_suites(capsys):
    with announced(capsys, 9, "property suites"):
        # gauge scaling and level-set consistency on random polytopes
        rng = np.random.default_rng(7)
        for case in range(200):
            d = 2 + case % 2
            pts = np.vstack([rng.normal(size=(6 + case % 3, d)), np.eye(d), -np.eye(d)])
            S = sets.vpoly([tuple(map(float, p)) for p in pts])
            x = rng.normal(size=d)
            g = sets.gauge_value(S, np.zeros(d), x)
            t = float(rng.uniform(0.2, 3.0))
            gt = sets.gauge_value(S, np.zeros(d), t * x)
            assert abs(gt - t * g) <= 1e-7 * (1.0 + g)
            if g > 1e-6:
                assert sets.contains(S, (0.999 / g) * x, 1e-7)
                assert not sets.contains(S, (1.001 / g) * x, 1e-9)

        # epigraph blocks sliced at y in {0, 1} against closed-form gauges
        rng = np.random.default_rng(9)
        for case in range(200):
            d = 2 + case % 2
            kind = case % 3
            if kind == 0:
                G = rng.normal(size=(4 + case % 3, d))
                h = rng.uniform(0.5, 2.0, size=G.shape[0])
                S = sets.HPolyhedron(tuple(map(tuple, G)), tuple(h))

                def gauge_of(x, G=G, h=h):
                    return max(0.0, float(np.max(G @ x / h)))

            elif kind == 1:
                lo = -rng.uniform(0.5, 2.0, size=d)
                hi = rng.uniform(0.5, 2.0, size=d)
                S = sets.box(tuple(lo), tuple(hi))

                def gauge_of(x, lo=lo, hi=hi):
                    r = [xj / hi[j] if xj >= 0 else xj / lo[j] for j, xj in enumerate(x)]
                    return max(0.0, max(r))

            else:
                r = float(rng.uniform(0.5, 2.0))
                S = sets.ball([0.0] * d, r)

                def gauge_of(x, r=r):
                    return float(np.linalg.norm(x)) / r

            names = tuple(f"x{j}" for j in range(d))
            w = tuple(gauge.Aff.var(nm) for nm in names)
            block, _ = gauge.lower_epigraph(S, w, gauge.Aff.var("y"), gauge.NameGen())
            x = rng.normal(size=d)
            g = gauge_of(x)
            env = {nm: float(x[j]) for j, nm in enumerate(names)}
            if abs(g - 1.0) > 1e-7:
                env["y"] = 1.0
                assert all(gauge.atom_violation(a, env) <= 1e-9 for a in block) == (g <= 1.0)
            if g > 1e-7:
                env["y"] = 0.0
                assert not all(gauge.atom_violation(a, env) <= 1e-9 for a in block)
            env = {nm: 0.0 for nm in names}
            env["y"] = 0.0
            assert all(gauge.atom_violation(a, env) <= 1e-9 for a in block)

        # cutting-plane optimizer against brute vertex enumeration
        rng = np.random.default_rng(11)
        for case in range(200):
            d = 2 + case % 2
            G = rng.normal(size=(d + 3 + case % 4, d))
            h = rng.uniform(0.5, 2.0, size=G.shape[0])
            G = np.vstack([G, np.eye(d), -np.eye(d)])
            h = np.concatenate([h, np.full(2 * d, 3.0)])
            vs = analysis.enumerate_vertices(G, h)
            assert vs.rays.shape[0] == 0
            c = rng.normal(size=d)
            best = max(float(v @ c) for v in vs.vertices)
            names = tuple(f"x{j}" for j in range(d))
            atoms = tuple(
                gauge.Linear(gauge.combo(names, list(map(float, G[r])), -float(h[r])))
                for r in range(G.shape[0])
            )
            form = builders.Formulation(
                "rand",
                tuple(builders.Variable(nm, "continuous") for nm in names),
                atoms,
                ("test",) * len(atoms),
                (),
                names,
                (),
            )
            res = maximize_over_relaxation(
                form, {nm: float(c[j]) for j, nm in enumerate(names)}
            )
            assert res.status == "optimal"
            assert abs(res.value - best) <= 1e-6 * (1.0 + abs(best))

        # plus and lifted lowerings agree on optimal values
        wideform = builders.build(fixtures.load("ex7", "wide"))
        plus = model.lower_model(wideform, "plus")
        lifted = model.lower_model(wideform, "lifted")
        names = [v.name for v in plus.variables]
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.normal(size=len(names))
            obj = {nm: float(c[j]) for j, nm in enumerate(names)}
            ra = maximize_over_relaxation(plus, obj)
            rb = maximize_over_relaxation(lifted, obj)
            assert ra.status == "optimal" and rb.status == "optimal"
            assert abs(ra.value - rb.value) <= 1e-6 * (1.0 + abs(ra.value))

        # a formulation never passes the joint check while failing the
        # projected one
        for name, variants in fixtures.REGISTRY.items():
            for variant in variants:
                form = builders.build(fixtures.load(name, variant))
                ideal = analysis.check_ideal(form, count=200)
                if ideal.verdict != "fail":
                    sharp = analysis.check_sharp(form, count=200)
                    assert sharp.verdict != "fail", (name, variant)
