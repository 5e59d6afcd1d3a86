import copy
import itertools
import math
import struct
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq, linprog, nnls
from scipy.special import ndtri

import sweepsim as sw
from sweepsim.errors import (
    DimensionTooLarge,
    NonConvergence,
    NotFound,
    PointOutsideBody,
    ZeroDirection,
)

from conftest import random_body, reference_norm_bound


# --- projections: closed forms and examples ---------------------------------

def test_project_ball_radial():
    assert np.allclose(sw.project((2, 0), sw.Ball((0, 0), 1.0)), (1, 0))


def test_project_box_interior_fixed():
    assert np.allclose(sw.project((0.3, 0.2), sw.Box((-1, -1), (1, 1))), (0.3, 0.2))


def test_project_triangle_matches_hand_value():
    # projection onto {x+y<=1, x>=0, y>=0} from (0.9, 0.9); the active face
    # x+y=1 gives (0.5, 0.5) by hand
    tri = sw.HalfspacePolytope([((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)],
                               2.0, (0.2, 0.2))
    q = sw.project((0.9, 0.9), tri)
    assert np.allclose(q, (0.5, 0.5), atol=1e-9)
    oracle = sw.project_oracle((0.9, 0.9), tri, 1e-3)
    assert np.linalg.norm((0.9, 0.9) - oracle) <= np.linalg.norm((0.9, 0.9) - q) + 1e-3 * np.sqrt(2)


def test_project_ellipsoid_variational_inequality(rng):
    body = sw.Ellipsoid((0.5, -0.2), np.array([[4.0, 1.0], [1.0, 2.0]]))
    p = np.array([3.0, 2.0])
    q = sw.project(p, body)
    for c in body.sample_points(400, rng):
        assert float((p - q) @ (c - q)) <= 1e-9


def _ellipsoid_oracle(body, p):
    """Projection through the secular equation solved by ``brentq`` to a
    relative tolerance of 4 ulp, in the body's own principal frame."""
    y = body._basis.T @ (p - body.center)
    a2 = body._axes_sq
    if np.sum(y * y / a2) <= 1.0:
        return p.copy()

    def g(t):
        return float(np.sum(y * y * a2 / (a2 + t) ** 2)) - 1.0

    hi = float(np.sqrt(np.sum(y * y * a2))) + 1.0    # g(hi) < 0
    t = brentq(g, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=2000)
    return body.center + body._basis @ (y * a2 / (a2 + t))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ellipsoid_newton_matches_brentq(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(100):
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        axes = 10.0 ** rng.uniform(-3.0, 3.0, d)
        if d > 1 and rng.random() < 0.5:
            axes[:2] = 1e-3, 1e3                         # axis ratio 1e6
        body = sw.Ellipsoid(rng.normal(size=d), basis @ np.diag(axes ** 2) @ basis.T)
        u = rng.normal(size=d)
        boundary = u / np.sqrt(np.sum(u * u / body._axes_sq))   # principal frame
        for scale in (0.5, 1.0, 1.0 + 1e-9, 1.5, 1e6):   # inside, on, just outside, far
            p = body.center + body._basis @ (scale * boundary)
            q, ref = body.project(p), _ellipsoid_oracle(body, p)
            size = max(np.linalg.norm(ref), np.linalg.norm(ref - body.center))
            assert np.linalg.norm(q - ref) <= 1e-14 * size


def test_distance_examples():
    assert sw.distance((2, 0), sw.Ball((0, 0), 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert sw.distance((0, 0), sw.Ball((0, 0), 1.0)) == 0.0
    assert sw.distance((2, 2), sw.Box((-1, -1), (1, 1))) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_degenerate_bodies_project_to_unique_point():
    assert np.allclose(sw.project((3, 4), sw.Ball((1, 1), 0.0)), (1, 1))
    assert np.allclose(sw.project((3, 4), sw.Box((1, 1), (1, 1))), (1, 1))


# --- support / hausdorff -----------------------------------------------------

def test_support_examples():
    assert sw.support(sw.Ball((0, 0), 1.0), (0, 3)) == pytest.approx(3.0)
    assert sw.support(sw.Box((-1, -1), (1, 1)), (1, 1)) == pytest.approx(2.0)
    assert sw.support(sw.Ellipsoid((0, 0), np.diag([4.0, 1.0])), (1, 0)) == pytest.approx(2.0)


def test_support_zero_direction():
    with pytest.raises(ZeroDirection):
        sw.support(sw.Ball((0, 0), 1.0), (0, 0))


def test_support_positively_homogeneous(rng):
    body = random_body(rng, dims=(2, 3))
    v = rng.normal(0, 1, body.dim)
    s = rng.uniform(0.1, 5.0)
    assert sw.support(body, s * v) == pytest.approx(s * sw.support(body, v), rel=1e-9)


def test_polytope_support_against_grid(rng):
    # independent check of the vertex route: max of <x, v> over a membership grid
    tri = sw.HalfspacePolytope([((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)],
                               2.0, (0.2, 0.2))
    for _ in range(5):
        v = rng.normal(0, 1, 2)
        lo, hi = tri.bounding_box()
        axes = [np.arange(lo[i], hi[i] + 5e-3, 5e-3) for i in range(2)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        members = pts[tri.contains_mask(pts)]
        brute = float(np.max(members @ v))
        assert sw.support(tri, v) >= brute - 1e-9
        assert sw.support(tri, v) <= brute + 1e-2 * np.linalg.norm(v)


def test_hausdorff_examples():
    b = sw.Ball((0, 0), 1.0)
    assert sw.hausdorff(b, sw.Ball((0, 0), 1.0), 64) == 0.0
    assert sw.hausdorff(b, sw.Ball((0.5, 0), 1.0), 256) == pytest.approx(0.5, abs=1e-3)
    assert sw.hausdorff(b, sw.Ball((0, 0), 2.0), 64) == pytest.approx(1.0)


def test_hausdorff_monotone_and_symmetric(rng):
    b1 = random_body(rng, dims=(2,), kinds=("ball", "box"))
    b2 = random_body(rng, dims=(2,), kinds=("ball", "box"))
    vals = [sw.hausdorff(b1, b2, n) for n in (16, 32, 64, 128, 256)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert sw.hausdorff(b1, b2, 64) == pytest.approx(sw.hausdorff(b2, b1, 64), abs=1e-12)


def test_hausdorff_requires_16_directions():
    with pytest.raises(ValueError):
        sw.hausdorff(sw.Ball((0, 0), 1.0), sw.Ball((0, 0), 1.0), 8)


def test_sphere_directions_match_ndtri():
    # the inverse normal CDF of the standard library against scipy's
    for d in range(3, 9):
        u = np.column_stack([sw.geometry._halton_column(256, b)
                             for b in (2, 3, 5, 7, 11, 13, 17, 19)[:d]])
        z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        ref = z / np.linalg.norm(z, axis=1)[:, None]
        assert np.max(np.abs(sw.sphere_directions(d, 256) - ref)) <= 1e-15


def test_sphere_directions_need_a_dimension_in_1_to_8():
    # the Halton bases stop at 8: a ninth column used to stay uninitialized,
    # and dimension 0 gave an empty (n, 0) array
    for dim in (-1, 0, 9):
        with pytest.raises(ValueError, match=r"1\.\.8"):
            sw.sphere_directions(dim, 16)
    nine = sw.Ball(np.zeros(9), 1.0)
    with pytest.raises(ValueError, match=r"1\.\.8"):
        sw.hausdorff(nine, nine, 16)


def test_sphere_directions_prefix_stable():
    for d in (1, 2, 3):
        long = sw.sphere_directions(d, 64)
        short = sw.sphere_directions(d, 32)
        assert np.allclose(long[:32], short)
        assert np.allclose(np.linalg.norm(long, axis=1), 1.0)


# --- normal cone residual ----------------------------------------------------

def test_normal_cone_residual_examples():
    ball = sw.Ball((0, 0), 1.0)
    assert sw.normal_cone_residual(ball, (1, 0), (2, 0)) == pytest.approx(0.0, abs=1e-12)
    assert sw.normal_cone_residual(ball, (0, 0), (1, 0)) == pytest.approx(1.0)
    box = sw.Box((-1, -1), (1, 1))
    assert sw.normal_cone_residual(box, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_normal_cone_residual_zero_vector_is_zero():
    assert sw.normal_cone_residual(sw.Ball((0, 0), 1.0), (1, 0), (0, 0)) == 0.0


def test_normal_cone_outside_body_raises():
    with pytest.raises(PointOutsideBody):
        sw.normal_cone_residual(sw.Ball((0, 0), 1.0), (2, 0), (1, 0))


# --- brute-force oracle ------------------------------------------------------

def test_oracle_examples():
    assert np.linalg.norm(sw.project_oracle((2, 0), sw.Ball((0, 0), 1.0), 1e-3) - (1, 0)) <= 2e-3
    assert np.linalg.norm(sw.project_oracle((0, 0), sw.Box((1, 1), (2, 2)), 1e-3) - (1, 1)) <= 2e-3


def test_oracle_dimension_limit():
    with pytest.raises(DimensionTooLarge):
        sw.project_oracle((0, 0, 0, 0), sw.Ball((0, 0, 0, 0), 1.0), 0.1)


def test_oracle_agrees_with_project_on_random_instances(rng):
    # the oracle's achieved distance can exceed the true one by at most the
    # grid covering radius step*sqrt(d)
    step = 5e-3
    for _ in range(100):
        body = random_body(rng, dims=(1, 2), kinds=("ball", "box"))
        p = rng.normal(0, 2, body.dim)
        q = sw.project(p, body)
        qo = sw.project_oracle(p, body, step)
        gap = np.linalg.norm(p - qo) - np.linalg.norm(p - q)
        assert -1e-12 <= gap <= step * np.sqrt(body.dim) + 1e-12


# --- projection property suite ----------------------------------------------

def test_projection_properties(rng):
    for _ in range(300):
        body = random_body(rng)
        d = body.dim
        u, ub = rng.normal(0, 2, d), rng.normal(0, 2, d)
        shift = rng.normal(0, 1, d)
        pu, pub = body.project(u), body.project(ub)
        # nonexpansiveness
        assert np.linalg.norm(pub - pu) <= np.linalg.norm(ub - u) + 1e-9
        # translation bound
        pt = body.translate(shift).project(u)
        assert np.linalg.norm(pu - pt) <= np.linalg.norm(shift) + 1e-9
        # idempotence
        assert np.linalg.norm(body.project(pu) - pu) <= 1e-9


def test_variational_inequality_bulk(rng):
    body = random_body(rng, dims=(2, 3))
    u = rng.normal(0, 3, body.dim)
    q = body.project(u)
    members = body.sample_points(1000, rng)
    gaps = (u - q) @ (members - q).T
    assert float(np.max(gaps)) <= 1e-9


FRESH = {
    "ball": lambda body, s: sw.Ball(body.center + s, body.radius),
    "box": lambda body, s: sw.Box(body.lower + s, body.upper + s),
    "ellipsoid": lambda body, s: sw.Ellipsoid(body.center + s, body.shape_matrix),
}


@pytest.mark.parametrize("kind", FRESH)
def test_translate_matches_a_fresh_body(rng, kind):
    # translate shifts a copy of the checked body instead of constructing one
    for d in (1, 2, 3, 4):
        body = random_body(rng, dims=(d,), kinds=(kind,))
        before = repr(body), body.to_doc()
        s = rng.normal(0, 1, d)
        moved, fresh = body.translate(s), FRESH[kind](body, s)
        assert (repr(body), body.to_doc()) == before
        assert moved.to_doc() == fresh.to_doc()
        points = rng.normal(0, 2, (32, d))
        dirs = rng.normal(0, 1, (32, d))
        assert np.array_equal(moved._project_cols(points.T), fresh._project_cols(points.T))
        for p, v, a in zip(points, dirs, rng.normal(0, 1, (32, d))):
            assert np.array_equal(moved.project(p), fresh.project(p))
            assert moved.support(v) == fresh.support(v)
            assert moved.norm_bound(a) == fresh.norm_bound(a)
        if d == 2:
            planar_moved, planar_fresh = moved._planar_form, fresh._planar_form
            for x, y in points.tolist():
                assert planar_moved(x, y) == planar_fresh(x, y)


# --- polytope projection: KKT certificate on hard cases ---------------------

def _box_rows(d, reach):
    eye = np.eye(d)
    return [(e, reach) for e in eye] + [(-e, reach) for e in eye]


def _polytope_cases():
    # three lines through the vertex (1, 1)
    fan = sw.HalfspacePolytope([((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 2.0)]
                               + _box_rows(2, 2.0), 4.0, (0.0, 0.0))
    yield pytest.param(fan, [(3, 3), (2, 5), (5, 2), (1.5, 1.2), (1.2, 1.5), (1.0, 3.0)],
                       id="three_lines_one_vertex")
    # four planes meet at the apex (0, 0, 1), over the base z >= 0
    pyramid = sw.HalfspacePolytope([((1, 0, 1), 1.0), ((-1, 0, 1), 1.0), ((0, 1, 1), 1.0),
                                    ((0, -1, 1), 1.0), ((0, 0, -1), 0.0)], 3.0, (0.0, 0.0, 0.2))
    yield pytest.param(pyramid, [(0, 0, 3), (0.1, -0.2, 5), (0.5, 0.5, 2), (2, 0, 2),
                                 (0, 0, -1), (1.5, 1.5, 0.5)], id="pyramid_apex")
    # every row twice, once with a rescaled normal, plus a looser parallel copy
    tri = [((1, 1), 1.0), ((-1, 0), 0.0), ((0, -1), 0.0)]
    dup = tri + [((2, 2), 2.0), ((-3, 0), 0.0), ((0, -1), 0.0), ((1, 1), 1.5)]
    yield pytest.param(sw.HalfspacePolytope(dup, 2.0, (0.2, 0.2)),
                       [(0.9, 0.9), (2, -1), (-1, -1), (-1, 3), (0.3, 0.1), (5, 5)],
                       id="duplicated_rows")
    for eps in (1e-3, 1e-6):
        rows = [((0, 1), 1.0), ((np.sin(eps), np.cos(eps)), 1.0),
                ((-np.sin(eps), np.cos(eps)), 1.0)] + _box_rows(2, 2.0)
        yield pytest.param(sw.HalfspacePolytope(rows, 4.0, (0.0, 0.0)),
                           [(0, 3), (1.5, 1.0 + 1e-7), (-1.9, 1.5), (0.3, 1.0 + 1e-9), (2.5, 2.5)],
                           id=f"nearly_parallel_{eps:g}")


def _assert_kkt(body, p, x):
    """Feasibility, p - x = sum mu_j n_j with mu >= 0 over the tight rows (an
    independent NNLS fit), and complementary slackness."""
    tol = 1e-9 * (1.0 + np.linalg.norm(p) + np.max(np.abs(body.offsets)))
    slack = body.offsets - body.normals @ x
    assert np.min(slack) >= -tol
    tight = slack <= tol
    if not np.any(tight):           # interior point: x = p, mu = 0
        assert np.linalg.norm(p - x) <= tol
        return
    mu, res = nnls(body.normals[tight].T, p - x)
    assert res <= tol
    assert float(mu @ slack[tight]) <= tol


def _assert_polytope_projection(body, p):
    q = body.project(p)
    _assert_kkt(body, p, q)
    if body.dim <= 2:
        step = 1e-2
        gap = np.linalg.norm(p - sw.project_oracle(p, body, step)) - np.linalg.norm(p - q)
        assert -1e-12 <= gap <= step * np.sqrt(body.dim) + 1e-12


@pytest.mark.parametrize("body,points", list(_polytope_cases()))
def test_polytope_projection_kkt_hard_cases(body, points):
    for p in points:
        _assert_polytope_projection(body, np.asarray(p, dtype=float))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
def test_polytope_projection_kkt_random(rng, d):
    # random_body's default dims stop at 4; the oracle runs only for d <= 2
    for _ in range(10 if d <= 2 else 40):
        body = random_body(rng, dims=(d,), kinds=("polytope",))
        _assert_polytope_projection(body, rng.normal(0, 3, d))


def test_polytope_empty_body_rejected():
    # construction admits an interior point up to 1e-9 outside a row; this
    # slab, inverted by 5e-10, is within that slack but no point satisfies
    # both rows
    with pytest.raises(ValueError, match=r"rows \[0, 1\] admit no common point"):
        sw.HalfspacePolytope([((1,), 0.0), ((-1,), -5e-10)], 1.0, (2.5e-10,))
    # the same slack on a nonempty slab still constructs
    slab = sw.HalfspacePolytope([((1,), 0.0), ((-1,), 5e-10)], 1.0, (2.5e-10,))
    assert np.allclose(slab.project((1.0,)), (0.0,))


UNBOUNDED = {
    "half-line": ([((1,), 1.0)], (0.0,)),
    "quadrant": ([((1, 0), 1.0), ((0, 1), 1.0)], (0.0, 0.0)),
    "strip": ([((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0)], (0.0, 0.0)),
    "open-pyramid": ([((1, 0, 1), 1.0), ((-1, 0, 1), 1.0), ((0, 1, 1), 1.0),
                      ((0, -1, 1), 1.0)], (0.0, 0.0, 0.2)),
    "slab-3d": ([((0, 0, 1), 1.0), ((0, 0, -1), 1.0)], (0.0, 0.0, 0.0)),
    "wedge-3d": ([((1, 0, 0), 1.0), ((-1, 0, 0), 1.0), ((0, 1, 0), 1.0),
                  ((0, -1, 0), 1.0), ((0, 0, 1), 1.0)], (0.0, 0.0, 0.0)),
    # d > 3: one coordinate row missing, and two rows spanning one dimension
    "box-4d-open": (_box_rows(4, 1.0)[:-1], (0.0,) * 4),
    "slab-5d": ([((0, 0, 0, 0, 1), 1.0), ((0, 0, 0, 0, -1), 1.0)], (0.0,) * 5),
}


@pytest.mark.parametrize("rows, point", UNBOUNDED.values(), ids=UNBOUNDED.keys())
def test_polytope_unbounded_rows_rejected(rows, point):
    with pytest.raises(ValueError, match="unbounded"):
        sw.HalfspacePolytope(rows, 1e6, point)


def test_polytope_bounding_radius_checked():
    square = _box_rows(2, 1.0)
    with pytest.raises(ValueError, match="bounding_radius 1.2 is below"):
        sw.HalfspacePolytope(square, 1.2, (0.0, 0.0))
    sw.HalfspacePolytope(square, np.sqrt(2.0), (0.0, 0.0))      # the corners touch the ball
    # d > 3: the coordinate rows' box exceeds the radius, the vertices do not
    cross = [(np.array(signs, dtype=float), 1.0)
             for signs in itertools.product((1.0, -1.0), repeat=4)]
    sw.HalfspacePolytope(cross + _box_rows(4, 3.0), 1.0, (0.0,) * 4)
    with pytest.raises(ValueError, match="bounding_radius 0.9 is below"):
        sw.HalfspacePolytope(cross + _box_rows(4, 3.0), 0.9, (0.0,) * 4)


def test_polytope_norm_bound_covers_corners_above_3d():
    # the radius promise is a ball check in every d: the corners of
    # [-1, 1]^4 reach norm 2
    with pytest.raises(ValueError, match=r"bounding_radius 1.0 is below the body's extent 2.0$"):
        sw.HalfspacePolytope(_box_rows(4, 1.0), 1.0, (0.0,) * 4)
    box = sw.HalfspacePolytope(_box_rows(4, 1.0), 2.0, (0.0,) * 4)
    assert box.support(np.full(4, 0.5)) == 2.0
    assert box.norm_bound(np.zeros(4)) == 2.0
    shift = np.array([0.5, -0.25, 0.0, 2.0])
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    far = float(np.max(np.linalg.norm(corners + shift, axis=1)))
    assert box.norm_bound(shift) == pytest.approx(far, rel=1e-15)
    assert box.translate(shift).norm_bound(np.zeros(4)) == pytest.approx(far, rel=1e-15)
    # no coordinate rows: the cross-polytope |x|_1 <= 1 peaks at its vertices +-e_i
    cross = [(np.array(signs, dtype=float), 1.0)
             for signs in itertools.product((1.0, -1.0), repeat=4)]
    assert sw.HalfspacePolytope(cross, 1.0, (0.0,) * 4).norm_bound(np.zeros(4)) == \
        pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("d, rows", [(3, 6), (4, 8)])
def test_polytope_degenerate_vertex_stored_once(d, rows):
    # every vertex +-e_i of the cross-polytope |x|_1 <= 1 lies on 2^(d-1)
    # rows, so many d-row subsets solve to it
    cross = sw.HalfspacePolytope([(np.array(signs), 1.0) for signs in
                                  itertools.product((1.0, -1.0), repeat=d)], 1.0, (0.0,) * d)
    assert cross._vertices.shape == (rows, d)
    assert np.array_equal(np.sort(np.abs(cross._vertices).sum(axis=1)), np.ones(rows))
    assert cross.norm_bound(np.zeros(d)) == 1.0
    assert cross.support(np.ones(d)) == 1.0


def test_octagon_vertices_and_hausdorff_unchanged():
    # the bodies benchmark's octagon has no repeated vertex: its vertex array
    # keeps its order, and these Hausdorff values keep their bits
    angles = 0.3 + np.arange(8) * 2.0 * np.pi / 8.0
    octagon = sw.HalfspacePolytope([((np.cos(a), np.sin(a)), 1.0) for a in angles],
                                   2.0, (0.0, 0.0))
    assert octagon._vertices.shape == (8, 2)
    box = sw.Box((-1.0, -0.8), (1.0, 0.8))
    assert sw.hausdorff(octagon, box, 64) == 0.273352154494363
    assert sw.hausdorff(octagon, octagon.translate((0.1, -0.2)), 64) == 0.22358038832038785
    pair = sw.projection_gap_search(1, 10_000)
    assert sw.hausdorff(pair.c_body, pair.d_body, 64) == 0.19363446830829545


def test_polytope_over_subset_budget_rejected():
    # 40 rows in 8-D have C(40, 8) = 76,904,685 vertex subsets; the count is
    # checked before any of them is enumerated
    rng = np.random.default_rng(3)
    rows = [(n, 1.0) for n in rng.normal(0, 1, (40, 8))]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"40 rows in 8 dimensions give 76904685 vertex "
                                         r"subsets, above the budget of 1000000"):
        sw.HalfspacePolytope(rows, 10.0, np.zeros(8))
    # enumerating them would take minutes
    assert time.perf_counter() - start < 1.0


def _lp_bounded(rows, d):
    """Boundedness by 2d unboxed LPs over +-e_i, independent of the
    construction check."""
    normals = np.array([n for n, _ in rows], dtype=float)
    offsets = np.array([b for _, b in rows])
    for v in np.vstack([np.eye(d), -np.eye(d)]):
        res = linprog(-v, A_ub=normals, b_ub=offsets, bounds=(None, None), method="highs")
        if res.status == 3:
            return False
        assert res.status == 0
    return True


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_polytope_boundedness_matches_lp(d):
    rng = np.random.default_rng(40 + d)
    # random normals rarely bound a body in 5 or 6 dimensions unless there
    # are many of them, so those draw up to 3d - 1 rows, for fewer bodies
    max_rows = d + 3 if d <= 4 else 3 * d - 1
    seen = {True: 0, False: 0}
    for _ in range(150 if d <= 4 else 40):
        pt = rng.normal(0, 0.5, d)
        rows = []
        for _ in range(int(rng.integers(1, max_rows + 1))):
            n = rng.normal(0, 1, d)
            rows.append((n, float(n @ pt) + rng.uniform(0.1, 1.0)))
        bounded = _lp_bounded(rows, d)
        seen[bounded] += 1
        if bounded:
            sw.HalfspacePolytope(rows, 1e9, pt)
        else:
            with pytest.raises(ValueError, match="unbounded"):
                sw.HalfspacePolytope(rows, 1e9, pt)
    assert min(seen.values()) >= 10


# --- polytope support: cached vertices against an LP reference -------------

def _lp_support(body, v):
    r = body.bounding_radius + 1.0
    res = linprog(-v, A_ub=body.normals, b_ub=body.offsets, bounds=[(-r, r)] * body.dim,
                  method="highs")
    assert res.status == 0
    return -res.fun


def _assert_support_matches_lp(body, rng, n_dirs=64):
    scale = 1.0 + np.max(np.abs(body.offsets))
    dirs = rng.normal(0, 1, (n_dirs, body.dim))
    dirs = np.vstack([dirs, np.eye(body.dim), -np.eye(body.dim)])
    for v in dirs:
        assert abs(body.support(v) - _lp_support(body, v)) <= 1e-9 * scale * np.linalg.norm(v)


@pytest.mark.parametrize("body", [pytest.param(c.values[0], id=c.id) for c in _polytope_cases()])
def test_polytope_support_hard_cases(rng, body):
    _assert_support_matches_lp(body, rng)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
def test_polytope_support_random(rng, d):
    # every direction is an LP, and d = 8 bodies have up to C(22, 8) =
    # 319,770 vertex subsets, so fewer bodies above 4 dimensions
    for _ in range(10 if d <= 4 else 4 if d <= 6 else 1):
        _assert_support_matches_lp(random_body(rng, dims=(d,), kinds=("polytope",)), rng, 16)


def test_polytope_support_thin_segments(rng):
    for _ in range(10):
        a, b = rng.normal(0, 1, 2), rng.normal(0, 1, 2)
        _assert_support_matches_lp(sw.segment_body(a, b), rng)


# --- row forms: support and norm_bound of a whole stack in one call ---------

def _row_form_bodies():
    """Every catalog type for d = 1-4, plus thin planar segments."""
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4):
        for kind in ("ball", "box", "ellipsoid", "polytope"):
            for k in range(2):
                yield pytest.param(random_body(rng, dims=(d,), kinds=(kind,)),
                                   id=f"{kind}-{d}d-{k}")
    for k in range(3):
        yield pytest.param(sw.segment_body(rng.normal(0, 1, 2), rng.normal(0, 1, 2)),
                           id=f"segment-{k}")


ROW_FORM_BODIES = list(_row_form_bodies())


def _reference_support(body, v):
    """The support function written out on one direction: the closed forms
    and the vertex maximum of a polytope."""
    if isinstance(body, sw.Ball):
        return float(body.center @ v) + body.radius * float(np.linalg.norm(v))
    if isinstance(body, sw.Box):
        return float(np.sum(np.maximum(body.lower * v, body.upper * v)))
    if isinstance(body, sw.Ellipsoid):
        return float(body.center @ v) + float(np.sqrt(v @ body.shape_matrix @ v))
    return float(np.max(body._vertices @ v))


@pytest.mark.parametrize("body", ROW_FORM_BODIES)
def test_support_rows_match_scalar_form(rng, body):
    d = body.dim
    n = 64
    dirs = rng.normal(0, 1, (n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    rows = body._support_rows(dirs)
    assert rows.shape == (n,)
    # each value depends on its own row only
    assert np.array_equal(body._support_rows(dirs[:n // 2]), rows[:n // 2])
    scale = body.norm_bound(np.zeros(d))
    for v, value in zip(dirs, rows):
        assert body.support(v) == value
        assert abs(value - _reference_support(body, v)) <= \
            1e-12 * (1.0 + scale * float(np.linalg.norm(v)))


@pytest.mark.parametrize("body", ROW_FORM_BODIES)
def test_norm_bound_rows_bit_identical(rng, body):
    shifts = rng.normal(0, 2, (64, body.dim))
    rows = body._norm_bound_rows(shifts)
    assert rows.shape == (64,)
    for s, value in zip(shifts, rows):
        assert body.norm_bound(s) == value == reference_norm_bound(body, s)


def _hausdorff_per_direction(body1, body2, n_dirs):
    """``hausdorff`` as one ``support`` call per body and direction."""
    best = 0.0
    for v in sw.sphere_directions(body1.dim, n_dirs):
        best = max(best, abs(body1.support(v) - body2.support(v)))
    return best


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hausdorff_exactly_nondecreasing_in_n_dirs(rng, d):
    kinds = ("ball", "box", "ellipsoid", "polytope")
    pairs = [(random_body(rng, dims=(d,), kinds=kinds), random_body(rng, dims=(d,), kinds=kinds))
             for _ in range(6)]
    if d == 2:
        pairs.append((sw.segment_body((0, 0), (1, 0)), sw.segment_body((0, 0.01), (1, 0.05))))
    for b1, b2 in pairs:
        values = [sw.hausdorff(b1, b2, n) for n in range(16, 257, 16)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == _hausdorff_per_direction(b1, b2, 256)


def test_gap_search_matches_per_direction_hausdorff(monkeypatch):
    def search(seed):
        try:
            inst = sw.projection_gap_search(seed, 10_000)
        except NotFound:
            return None
        return inst.u, inst.lhs, inst.rhs

    found = [search(seed) for seed in range(21)]
    monkeypatch.setattr(sw.geometry, "hausdorff", _hausdorff_per_direction)
    for seed, batched in enumerate(found):
        looped = search(seed)
        assert (batched is None) == (looped is None)
        if batched is not None:
            assert np.array_equal(batched[0], looped[0])
            assert batched[1:] == looped[1:]


# --- planar float forms against the NumPy projections -----------------------

def _boundary_points(body):
    """Points exactly on the boundary: for a polytope its vertices and the
    midpoints of its edges, for an ellipsoid points along its axes and
    between them."""
    if isinstance(body, sw.Ellipsoid):
        angles = np.arange(8) * np.pi / 4
        local = np.sqrt(body._axes_sq) * np.column_stack([np.cos(angles), np.sin(angles)])
        return body.center + local @ body._basis.T
    verts = body._vertices
    middle = verts.mean(axis=0)
    verts = verts[np.argsort(np.arctan2(*(verts - middle).T[::-1]))]
    return np.vstack([verts, 0.5 * (verts + np.roll(verts, 1, axis=0))])


def _probe_points(body, inside):
    """Inside, on the boundary, 1e-9 outside it and 1e6 times as far out."""
    edge = _boundary_points(body)
    out = (edge - inside) / np.linalg.norm(edge - inside, axis=1)[:, None]
    return np.vstack([inside[None, :], edge, edge + 1e-9 * out, inside + 1e6 * (edge - inside)])


def _assert_planar_matches(body, points):
    project = body._planar_form
    for p in points:
        got = project(*p.tolist())
        assert len(got) == 2 and all(type(v) is float for v in got)
        tol = 1e-12 * (1.0 + np.linalg.norm(p))
        assert np.max(np.abs(np.array(got) - body._project(p))) <= tol, p


def _exact_projector(body):
    """p -> the projection of p onto the polytope of the body's float rows,
    in exact rational arithmetic: the nearest feasible point among p, its
    foot on each row's line and the meeting points of two rows' lines."""
    rows = [tuple(map(Fraction, row)) for row in np.column_stack((body.normals, body.offsets)).tolist()]

    def feasible(x, y):
        return all(nx * x + ny * y <= b for nx, ny, b in rows)

    corners = []
    for (ax, ay, ab), (bx, by, bb) in itertools.combinations(rows, 2):
        det = ax * by - ay * bx
        if det != 0:
            corners.append(((ab * by - ay * bb) / det, (ax * bb - ab * bx) / det))
    corners = [c for c in corners if feasible(*c)]

    def project(p):
        px, py = map(Fraction, p.tolist())
        feet = [(px, py)]
        for nx, ny, b in rows:
            v = (nx * px + ny * py - b) / (nx * nx + ny * ny)
            feet.append((px - v * nx, py - v * ny))
        x, y = min([c for c in feet if feasible(*c)] + corners,
                   key=lambda c: (c[0] - px) ** 2 + (c[1] - py) ** 2)
        return np.array([float(x), float(y)])
    return project


def _planar_polytopes():
    rng = np.random.default_rng(77)
    for i in range(12):
        body = random_body(rng, dims=(2,), kinds=("polytope",))
        yield pytest.param(body, body.interior_point, id=f"random_{i}")
    for i in range(4):
        a, b = rng.uniform(-2, 2, (2, 2))
        seg = sw.segment_body(a, b)                  # thickness 1e-6
        yield pytest.param(seg, seg.interior_point, id=f"segment_{i}")
    # every row twice, once with a rescaled normal, plus parallel copies
    square = _box_rows(2, 1.0)
    twice = square + [(2.0 * np.asarray(n), 2.0 * b) for n, b in square]
    parallel = square + [(n, b + 0.5) for n, b in square] + [((1, 1), 1.5), ((1, 1), 1.75)]
    for key, rows in (("duplicated", twice), ("parallel", parallel)):
        body = sw.HalfspacePolytope(rows, 2.0, (0.1, -0.2))
        yield pytest.param(body, body.interior_point, id=key)
    # each row of a triangle four times, rescaled: normalizing rounds the
    # copies to normals and offsets an ulp apart, whose lines cross
    tri = [((1.0, 0.3), 1.0), ((-0.4, 1.0), 0.8), ((-0.7, -0.9), 0.9)]
    body = sw.HalfspacePolytope([(np.multiply(n, k), b * k) for n, b in tri for k in (1.0, 3.0, 0.1, 7.0)],
                                5.0, (0.0, 0.0))
    yield pytest.param(body, body.interior_point, id="rescaled")
    # the point (0.3, -0.2), probed from a point beside it
    point = sw.HalfspacePolytope([((1, 0), 0.3), ((-1, 0), -0.3), ((0, 1), -0.2), ((0, -1), 0.2)],
                                 1.0, (0.3, -0.2))
    yield pytest.param(point, np.array([0.5, 0.1]), id="single_point")
    # the segment from (-1, 1) to (1, -1), of thickness 0: its rows (1, 1) . x <= 0
    # and (-1, -1) . x <= 0 are the same line
    flat = sw.HalfspacePolytope([((1, 1), 0.0), ((-1, -1), 0.0), ((1, -1), 2.0), ((-1, 1), 2.0)],
                                3.0, (0.25, -0.25))
    yield pytest.param(flat, flat.interior_point, id="zero_thickness_segment")
    for case in _polytope_cases():              # a shared vertex, nearly parallel rows
        body, _ = case.values
        if body.dim == 2:
            yield pytest.param(body, body.interior_point, id=case.id)


@pytest.mark.parametrize("body, inside", list(_planar_polytopes()))
def test_planar_polytope_matches_numpy(rng, monkeypatch, body, inside):
    # the closed form against the exact projection onto the float rows,
    # without a NumPy call; the NumPy form meets only its KKT tests, since
    # nearly parallel rows move it up to 5e-7 * scale from the exact point.
    # Each vertex is also probed along every row normal: on nearly parallel
    # rows those probes fall in vertex cones 1e-6 wide
    monkeypatch.setattr(sw.HalfspacePolytope, "_project", lambda self, p: pytest.fail("NumPy form"))
    project, exact = body._planar_form, _exact_projector(body)
    b_max = float(np.max(np.abs(body.offsets)))
    along = (body._vertices[:, None, :] + 0.3 * body.normals[None, :, :]).reshape(-1, 2)
    for p in np.vstack([_probe_points(body, inside), along, rng.normal(0, 3, (200, 2))]):
        got = project(*p.tolist())
        assert len(got) == 2 and all(type(v) is float for v in got)
        tol = 1e-12 * (1.0 + np.linalg.norm(p) + b_max)
        assert np.max(np.abs(np.array(got) - exact(p))) <= tol, p


@pytest.mark.parametrize("ratio", [1.0, 1e2, 1e4, 1e6])
def test_planar_ellipsoid_matches_numpy(rng, ratio):
    for _ in range(5):
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        axes = np.array([1.0, 1.0 / ratio]) * 10.0 ** rng.uniform(-1, 1)
        body = sw.Ellipsoid(rng.normal(size=2), basis @ np.diag(axes ** 2) @ basis.T)
        points = np.vstack([_probe_points(body, body.center),
                            body.center + rng.normal(0, 3, (100, 2)) * axes[0]])
        _assert_planar_matches(body, points)


def test_planar_polytope_errors_match_numpy():
    # a nonempty slab in a box, then shifted to be empty: rows that admit no
    # common point have no closed form, so the planar form is the NumPy one
    # and refuses them with the same error, residual and budget
    body = sw.HalfspacePolytope(_box_rows(2, 1.0) + [((1, 1), 0.1), ((-1, -1), 0.1)],
                                2.0, (0.0, 0.0))
    empty = copy.copy(body)
    # break the checked body past its frozen field
    object.__setattr__(empty, "offsets", body.offsets - np.array([0, 0, 0, 0, 0.0, 0.3]))
    p = np.array([2.0, 1.5])
    with pytest.raises(NonConvergence) as want:
        empty._project(p)
    with pytest.raises(NonConvergence) as got:
        empty._planar_form(*p.tolist())
    assert str(got.value) == str(want.value)
    assert got.value.budget == want.value.budget == 3 * (6 + 15)
    assert got.value.residual == pytest.approx(want.value.residual, abs=1e-12)
    # the d = 2 point loop builds the float form from the changed body too
    with pytest.raises(NonConvergence) as cols:
        empty._project_cols(p[:, None])
    assert str(cols.value) == str(want.value)


def test_planar_box_matches_the_builtins_bit_for_bit(rng):
    # the float form clamps by comparisons in the order min(max(x, lo), hi)
    # makes them, so ties, signed zeros, infinities and NaN come out alike
    bounds = [((-1.0, -0.8), (1.0, 0.8)), ((0.0, -0.0), (0.0, 0.0)),
              ((-0.0, 0.0), (2.5, -0.0)), ((-3.0, 1.0), (-2.0, 1.0))]
    for lower, upper in bounds:
        project = sw.Box(lower, upper)._planar_form
        values = ([0.0, -0.0, math.inf, -math.inf, math.nan]
                  + [v for pair in (lower, upper) for v in pair]
                  + [-v for pair in (lower, upper) for v in pair]
                  + rng.normal(0, 2, 40).tolist())
        for x, y in itertools.product(values, repeat=2):
            want = (min(max(x, lower[0]), upper[0]), min(max(y, lower[1]), upper[1]))
            assert struct.pack("<2d", *project(x, y)) == struct.pack("<2d", *want), (x, y)


def _secular_reference(body):
    """The planar ellipsoid form with its Newton solve left to
    ``_secular_root``: the reference for the unrolled solve."""
    (cx, cy), (a0, a1) = body.center.tolist(), body._axes_sq.tolist()
    (b00, b01), (b10, b11) = body._basis.tolist()

    def project(x, y):
        vx, vy = x - cx, y - cy
        y0, y1 = b00 * vx + b10 * vy, b01 * vx + b11 * vy
        if y0 * y0 / a0 + y1 * y1 / a1 <= 1.0:
            return x, y
        t = sw.geometry._secular_root(((y0 * y0 * a0, a0), (y1 * y1 * a1, a1)))
        z0, z1 = y0 * a0 / (a0 + t), y1 * a1 / (a1 + t)
        return cx + (b00 * z0 + b01 * z1), cy + (b10 * z0 + b11 * z1)
    return project


def test_planar_ellipsoid_newton_matches_secular_root(rng):
    # 20 bodies of axis ratio 1 to 1e6, 500 points each: inside, on the
    # boundary and from just outside to 1e6 semi-axes out
    for ratio in 10.0 ** np.linspace(0, 6, 20):
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        axes = np.array([1.0, 1.0 / ratio]) * 10.0 ** rng.uniform(-1, 1)
        body = sw.Ellipsoid(rng.normal(size=2), basis @ np.diag(axes ** 2) @ basis.T)
        probes = _probe_points(body, body.center)
        scale = axes[0] * 10.0 ** rng.uniform(-3, 6, (500 - len(probes), 1))
        points = np.vstack([probes, body.center + rng.normal(0, 1, (len(scale), 2)) * scale])
        project, reference = body._planar_form, _secular_reference(body)
        for x, y in points.tolist():
            assert project(x, y) == reference(x, y), (x, y)


def test_planar_ellipsoid_budget_error_matches_numpy(monkeypatch):
    # (0.5, 0.5) needs more than one Newton step on this thin ellipse
    monkeypatch.setattr(sw.geometry, "SECULAR_BUDGET", 1)
    body = sw.Ellipsoid((0.0, 0.0), np.diag([1.0, 1e-6]))
    p = np.array([0.5, 0.5])
    with pytest.raises(NonConvergence) as want:
        body._project(p)
    with pytest.raises(NonConvergence) as got:
        body._planar_form(*p.tolist())
    assert str(got.value) == str(want.value)
    assert got.value.budget == want.value.budget == 1
    assert got.value.residual == pytest.approx(want.value.residual, abs=1e-12)


@pytest.mark.parametrize("kind", ["ellipsoid", "polytope"])
def test_planar_rows_map_the_float_form(rng, kind):
    for _ in range(5):
        body = random_body(rng, dims=(2,), kinds=(kind,))
        P = rng.normal(0, 3, (64, 2))
        project = body._planar_form
        assert body._project_cols(P.T).T.tolist() == [list(project(x, y)) for x, y in P.tolist()]
        assert body._project_cols(P[:0].T).shape == (2, 0)


def _masked_ball_cols(ball, P):
    """The ball's column projection as a masked scatter over a copy of the
    (d, m) stack P."""
    V = P - ball.center[:, None]
    nv = np.sqrt(np.einsum("ij,ij->j", V, V))
    out = P.copy()
    outside = nv > ball.radius
    out[:, outside] = ball.center[:, None] + (ball.radius / nv[outside]) * V[:, outside]
    return out


def test_ball_rows_match_the_masked_scatter_bit_for_bit(rng):
    ball = sw.Ball((0.25, -0.5), 1.5)
    far = rng.normal(0, 1, (64, 2))
    far = ball.center + 3.0 * far / np.linalg.norm(far, axis=1)[:, None]
    near = ball.center + 0.5 * rng.uniform(-1.0, 1.0, (64, 2))
    at_zero = sw.Ball((0.0, 0.0), 0.0)
    signed = np.array([[-0.0, 2.0], [0.0, -0.0], [-3.0, -0.0], [-0.0, -0.0]])
    cases = [
        (ball, far),                                    # every row outside
        (ball, near),                                   # every row inside
        (ball, np.vstack([near, far])[rng.permutation(128)]),    # mixed
        (ball, far[:0]),                                # empty stack
        (at_zero, signed),                              # zero radius, one nv = 0 row
        (at_zero, signed[[0, 2]]),                      # zero radius, every row outside
        (sw.Ball((0.0, 0.0, 1.0), 0.5), rng.normal(0, 2, (32, 3))),
    ]
    for body, P in cases:
        P = np.ascontiguousarray(P.T)
        got, want = body._project_cols(P), _masked_ball_cols(body, P)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()      # == and every sign bit


def test_rows_off_the_plane_loop_over_project(rng, monkeypatch):
    body = random_body(rng, dims=(3,), kinds=("ellipsoid",))
    P = rng.normal(0, 3, (16, 3))
    want = np.array([body._project(p) for p in P])
    calls = []
    project = sw.Ellipsoid._project
    monkeypatch.setattr(sw.Ellipsoid, "_project", lambda self, p: calls.append(p) or project(self, p))
    monkeypatch.setattr(sw.Ellipsoid, "_planar_form", property(lambda self: pytest.fail("planar form on d = 3")))
    assert np.array_equal(body._project_cols(P.T).T, want)
    assert len(calls) == len(P)


def test_every_planar_body_has_a_float_form():
    # no NumPy adapter remains: every catalog type has its own float form
    for cls in sw.geometry.BODY_TYPES.values():
        assert "_planar_form" in vars(cls), cls.__name__
    with pytest.raises(NotImplementedError):
        sw.geometry.ConvexBody()._planar_form
    bodies = [sw.Ball((0.1, 0.2), 1.0), sw.Box((-1, -0.5), (1, 0.5)),
              sw.Ellipsoid((0, 0), [[1.2, 0.2], [0.2, 0.6]]),
              sw.HalfspacePolytope(_box_rows(2, 1.0), 2.0, (0.0, 0.0))]
    for body in bodies:
        for p in ((0.0, 0.1), (3.0, -2.0)):
            got = body._planar_form(*p)
            assert len(got) == 2 and all(type(v) is float for v in got), body


# --- counterexample search ---------------------------------------------------

def _thin_segment_oracle(u, body, n_axis=200_001):
    """Brute-force projection onto a thickness-1e-6 segment body: grid over
    its own (axis, normal) coordinates, independent of project()."""
    normal = body.normals[0]
    axis = body.normals[2]
    mid_offset = 0.5 * (body.offsets[0] - body.offsets[1])
    half = 0.5 * (body.offsets[2] - (-body.offsets[3]))
    center_axis = 0.5 * (body.offsets[2] + -body.offsets[3])
    mid = mid_offset * normal + center_axis * axis
    best, best_d = None, np.inf
    for s in np.linspace(-half, half, n_axis):
        for r in (-5e-7, 0.0, 5e-7):
            pt = mid + s * axis + r * normal
            dist = float(np.linalg.norm(u - pt))
            if dist < best_d:
                best, best_d = pt, dist
    return best


def test_projection_gap_counterexample():
    inst = sw.projection_gap_search(seed=1, budget=10_000)
    assert inst.lhs > inst.rhs
    assert inst.lhs >= 1.1 * inst.rhs

    # independent verification of both projections by brute force
    for body in (inst.c_body, inst.d_body):
        q = body.project(inst.u)
        qo = _thin_segment_oracle(inst.u, body, n_axis=20_001)
        assert np.linalg.norm(q - qo) <= 5e-4

    # the square-root bound still holds on the returned instance
    mm = np.sqrt(2.0 * (sw.distance(inst.u, inst.c_body) + sw.distance(inst.u, inst.d_body)))
    mm *= np.sqrt(sw.hausdorff(inst.c_body, inst.d_body, 256))
    assert inst.lhs <= mm + 1e-9


def test_gap_search_hausdorff_matches_lp_value():
    # the value the support LP gave before vertex support replaced it
    inst = sw.projection_gap_search(seed=1, budget=10_000)
    assert sw.hausdorff(inst.c_body, inst.d_body, 256) == pytest.approx(
        0.19396308743337054, abs=1e-12)


def test_identical_segments_never_a_counterexample():
    seg = sw.segment_body((0, 0), (1, 0))
    # lhs = 0 <= rhs for C = D, so such a pair can never satisfy lhs > rhs
    u = np.array([0.5, 2.0])
    assert np.linalg.norm(seg.project(u) - seg.project(u)) == 0.0


def test_gap_search_budget_precondition():
    with pytest.raises(ValueError):
        sw.projection_gap_search(seed=1, budget=10)
