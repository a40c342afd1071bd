"""Conjugates, Moreau regularization, oblique selections, assumption audits."""

import numpy as np
import pytest

from hj_neumann import geometry as G, models as M
from hj_neumann.errors import NumericalError

IV = G.interval(0.0, 1.0)
XR = np.array([1.0])   # right endpoint, n = +1
XL = np.array([0.0])


def dense_sup(obj, lo=-6.0, hi=6.0, step=1e-4):
    p = np.arange(lo, hi + step, step)[:, None]
    return float(np.max(obj(p)))


# -- Lagrangian ---------------------------------------------------------------

def test_lagrangian_quadratic_self_dual():
    H = M.quadratic(1)
    assert M.lagrangian(H, np.array([0.3]), np.array([1.0])) == pytest.approx(0.5, abs=1e-10)


def test_lagrangian_eikonal_indicator():
    H = M.eikonal(1)
    assert M.lagrangian(H, np.array([0.3]), np.array([0.5])) == pytest.approx(0.0, abs=1e-10)
    assert M.lagrangian(H, np.array([0.3]), np.array([1.5])) == M.CAP
    # a shift of either sign keeps xi outside dom L at CAP
    for c in (-0.5, 0.37):
        Hc = M.shift_hamiltonian(H, c)
        assert M.lagrangian(Hc, np.array([0.3]), np.array([1.5])) == M.CAP
        assert M.lagrangian(Hc, np.array([0.3]), np.array([0.5])) == pytest.approx(c, abs=1e-12)


def test_lagrangian_double_well_matches_brute_force():
    H = M.double_well(1)
    x = np.array([0.5])
    oracle = dense_sup(lambda p: 2.0 * p[:, 0] - H(x, p), -3, 3)
    assert M.lagrangian(H, x, np.array([2.0])) == pytest.approx(oracle, abs=1e-6)


def test_lagrangian_convex_along_segments():
    H = M.double_well(1)
    x = np.array([0.2])
    xi = np.linspace(-2.5, 2.5, 21)
    L = np.array([M.lagrangian(H, x, np.array([v])) for v in xi])
    mid = 0.5 * (L[:-2] + L[2:]) - L[1:-1]
    assert mid.min() >= -1e-7


def test_lagrangian_batch_agrees_with_scalar():
    # the reference is a dense brute-force sup per row, not the engine itself;
    # quadratic takes the closed form, double_well the batched engine
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, (40, 1))
    XI = rng.uniform(-2, 2, (40, 1))
    for H in (M.quadratic(1, potential="0.2*cos(2*pi*x)"), M.double_well(1)):
        batch = M.lagrangian_batch(H, X, XI, radius=4.0)
        ref = np.array([dense_sup(lambda p: xi[0] * p[:, 0] - H(x, p))
                        for x, xi in zip(X, XI)])
        assert np.abs(batch - ref).max() <= 1e-6


def test_quadratic_closed_form_matches_engine():
    # |xi|^2 / (4 coeff) - V(x) against the conjugate engine, to the engine's
    # own error; the shift moves L by +c
    rng = np.random.default_rng(21)
    for H in (M.quadratic(1, "0.2*cos(2*pi*x)", coeff=0.7),
              M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)")):
        X = rng.uniform(-1, 1, (300, H.dim))
        XI = rng.uniform(-3, 3, (300, H.dim))
        for Hc in (H, M.shift_hamiltonian(H, 0.37)):
            assert Hc.conjugate is not None
            engine = M._conjugate(Hc, X, XI, 6.0)[0]
            assert np.abs(M.lagrangian_batch(Hc, X, XI, radius=6.0) - engine).max() <= 1e-9
            assert M.lagrangian(Hc, X[0], XI[0]) == pytest.approx(engine[0], abs=1e-9)
    # eikonal: L = f(x) + c inside dom L = {|xi| <= 1}, on rows with |xi| < 0.95
    for H in (M.eikonal(1, "1 + 0.3*x"), M.eikonal(2, "1 + 0.2*x*y")):
        X = rng.uniform(-1, 1, (300, H.dim))
        XI = rng.uniform(-1, 1, (300, H.dim))
        XI *= (0.95 * rng.uniform(0, 1, 300)
               / np.maximum(np.linalg.norm(XI, axis=-1), 1e-12))[:, None]
        # rows with 1.05 <= |xi| <= 3 lie outside dom L: both give CAP
        XO = XI * (rng.uniform(1.05, 3.0, 300)
                   / np.maximum(np.linalg.norm(XI, axis=-1), 1e-12))[:, None]
        for Hc in (H, M.shift_hamiltonian(H, 0.37), M.shift_hamiltonian(H, -0.5)):
            assert Hc.conjugate is not None
            engine = M._conjugate(Hc, X, XI, 6.0)[0]
            assert np.abs(M.lagrangian_batch(Hc, X, XI, radius=6.0) - engine).max() <= 1e-9
            assert np.all(M.lagrangian_batch(Hc, X, XO, radius=6.0) == M.CAP)
            assert np.all(M._conjugate(Hc, X, XO, 6.0)[0] == M.CAP)


def radial_models():
    """Catalog models with closed-form lip_p and coercivity_radius, and the
    exact sup of |dH/dp_i| over |p|_inf <= r of each."""
    # (coeff, model) pairs
    quad = [(0.5, M.quadratic(1, coeff=0.5)), (2.0, M.quadratic(1, "0.2*cos(2*pi*x)", coeff=2.0)),
            (0.5, M.quadratic(2, "0.3*cos(pi*x)*cos(pi*y)")), (2.0, M.quadratic(2, coeff=2.0)),
            (2.0, M.shift_hamiltonian(M.quadratic(2, "-0.5*(x**2 + y**2)", coeff=2.0), 0.37))]
    eik = [M.eikonal(1, "1 + 0.3*x"), M.eikonal(2, "1 + 0.2*x*y"),
           M.shift_hamiltonian(M.eikonal(2, "1 + 0.2*x"), -0.2)]
    return ([(H, lambda r, c=c: 2.0 * c * r) for c, H in quad]
            + [(H, lambda r: 1.0) for H in eik])


def test_closed_forms_match_sampling():
    # the same fn without closed forms takes the sampled path
    points = {1: G.build_grid(IV, 0.05).nodes,
              2: G.build_grid(G.disc(0.0, 0.0, 1.0), 0.1).nodes}
    for H, exact in radial_models():
        assert H.lip_form is not None and H.profile is not None
        Hs = M.Hamiltonian(H.name, H.fn, H.dim, H.convex)
        X = points[H.dim]
        # levels off the ties coeff*r_k^2 + min V = level, where the sampled
        # |r dir|^2 falls an ulp short of r^2 in some directions
        for level in (0.7, 2.3, 7.3, 41.0, 150.0):
            assert H.coercivity_radius(level, X) == Hs.coercivity_radius(level, X)
        for r in (1.1, 3.0, 4.77, 12.5):
            lip, ref = H.lip_p(r, X), Hs.lip_p(r, X)
            assert np.all(np.abs(lip - ref) <= 1e-10 * ref)
            assert np.all(lip >= exact(r))


# -- boundary conjugate -------------------------------------------------------

def test_boundary_conjugate_affine_paper_example():
    Ba = M.affine(IV, g=0.3)
    assert M.boundary_conjugate(Ba, XR, np.array([1.0])) == pytest.approx(0.3, abs=1e-9)
    assert M.boundary_conjugate(Ba, XR, np.array([1.25])) == M.CAP
    assert M.boundary_conjugate(Ba, XR, np.array([0.6])) == M.CAP


def test_boundary_conjugate_neumann():
    Bn = M.neumann(IV)
    assert M.boundary_conjugate(Bn, XR, np.array([1.0])) == pytest.approx(0.0, abs=1e-9)


def test_boundary_conjugate_two_affine_matches_brute_force():
    Bk = M.max_affine(IV, [(1.0, 1.0), (2.0, 3.0)])
    for t in (0.25, 0.5, 0.75):
        xi = np.array([t * 1.0 + (1 - t) * 2.0])
        oracle = dense_sup(lambda p: xi[0] * p[:, 0] - Bk(XR, p), -6, 10)
        assert M.boundary_conjugate(Bk, XR, xi) == pytest.approx(oracle, abs=1e-6)


def test_boundary_conjugate_lower_bound():
    # G(x, xi) >= -B(x, 0) whenever finite
    rng = np.random.default_rng(7)
    Bk = M.max_affine(IV, [(1.0, 0.5), (1.5, 1.2)])
    for _ in range(40):
        xi = rng.uniform(0.8, 1.7, (1,))
        val = M.boundary_conjugate(Bk, XR, xi)
        assert val >= -float(Bk(XR, np.zeros(1))) - 1e-9


# -- Moreau envelope ----------------------------------------------------------

def test_moreau_affine_exact():
    Ba = M.affine(IV, g=0.3)
    p = np.array([0.7])
    val, grad = M.moreau(Ba, XR, p, 0.1)
    # envelope of an affine form sits delta*|gamma|^2/2 below it
    assert val == pytest.approx(float(Ba(XR, p)) - 0.1 * 0.5, abs=1e-12)
    assert grad[0] == pytest.approx(1.0, abs=1e-12)


def test_moreau_neumann_gradient_is_normal():
    Bn = M.neumann(IV)
    for x in (XL, XR):
        _, grad = M.moreau(Bn, x, np.zeros(1), 0.25)
        np.testing.assert_allclose(grad, IV.unit_normal(x), atol=1e-12)


def test_moreau_kink_matches_dense_grid():
    Bk = M.max_affine(IV, [(1.0, 1.0), (2.0, 3.0)])
    p0, delta = np.array([2.0]), 0.1
    q = np.arange(-1, 5, 1e-5)[:, None]
    oracle = float(np.min(Bk(XR, q) + np.sum((q - p0) ** 2, axis=-1) / (2 * delta)))
    val, _ = M.moreau(Bk, XR, p0, delta)
    assert val == pytest.approx(oracle, abs=1e-8)
    assert val <= float(Bk(XR, p0))


def test_moreau_rejects_bad_delta():
    with pytest.raises(NumericalError):
        M.moreau(M.neumann(IV), XR, np.zeros(1), 0.0)



def test_catalog_boundary_builds_its_samples_once(monkeypatch):
    # obliqueness of every form and M_B share one boundary sample grid
    disc = G.disc(0.0, 0.0, 1.0)
    for geom in (IV, disc):
        for make in (M.neumann, lambda g: M.affine(g, 1.5, 0.2),
                     lambda g: M.max_affine(g, [(1.0, 0.2), (2.0, 0.5), (1.5, 0.0)])):
            calls = []
            build = M.build_grid
            monkeypatch.setattr(M, "build_grid",
                                lambda *a, **k: calls.append(1) or build(*a, **k))
            make(geom)
            monkeypatch.undo()
            assert len(calls) == 1

# -- oblique selection --------------------------------------------------------

def test_selection_affine_exact():
    Ba = M.affine(IV, g=0.3)
    sel = M.oblique_selection(Ba, delta=0.1)
    assert sel.gamma(XR)[0] == pytest.approx(1.0, abs=1e-12)
    assert sel.g(XR) == pytest.approx(0.3, abs=1e-12)
    assert sel.gamma(XL)[0] == pytest.approx(-1.0, abs=1e-12)
    assert sel.g(XL) == pytest.approx(0.3, abs=1e-12)


def test_selection_neumann_zero_psi():
    sel = M.oblique_selection(M.neumann(IV))
    np.testing.assert_allclose(sel.gamma(XR), [1.0], atol=1e-12)
    assert sel.g(XR) == pytest.approx(0.0, abs=1e-12)


def test_selection_two_affine_tightness_and_membership():
    Bk = M.max_affine(IV, [(1.0, 1.0), (2.0, 3.0)])
    sel = M.oblique_selection(Bk, delta=0.05)
    pts = np.stack([XL, XR])
    assert sel.tightness_gap(pts) <= 0.1
    assert sel.membership_gap(pts) <= 1e-9


def test_selection_duality_pairing():
    # gamma.p - g <= B(x, p) on a dense p sample, for every catalog model
    for Bm in (M.neumann(IV), M.affine(IV, g=0.4),
               M.max_affine(IV, [(1.0, 0.2), (1.8, 1.0)])):
        sel = M.oblique_selection(Bm, delta=0.05)
        assert sel.membership_gap(np.stack([XL, XR])) <= 1e-9


def test_selection_of_shifted_single_form_is_the_shifted_form():
    # B - c = gamma.p - (g + c): the selection must carry the shift in g
    disc = G.disc(0.0, 0.0, 1.0)

    def tilted(pts):
        n = disc.unit_normal(pts)
        return n + 0.5 * np.stack([-n[..., 1], n[..., 0]], axis=-1)

    dgrid = G.build_grid(disc, 0.2)
    for Bm, pts in ((M.neumann(IV), np.stack([XL, XR])),
                    (M.affine(IV, g=0.4), np.stack([XL, XR])),
                    (M.neumann(disc), dgrid.nodes[dgrid.boundary]),
                    (M.affine(disc, tilted, "0.2*x - 0.1"), dgrid.nodes[dgrid.boundary])):
        sel = M.oblique_selection(M.shift_boundary(Bm, 0.3))
        assert sel.membership_gap(pts) <= 1e-12
        assert sel.tightness_gap(pts) <= 1e-12
        assert sel.g(pts[0]) == pytest.approx(M.oblique_selection(Bm).g(pts[0]) + 0.3,
                                              abs=1e-14)


# -- Fenchel-Young sweeps -----------------------------------------------------

def test_fenchel_young_sampled():
    rng = np.random.default_rng(11)
    for H in (M.quadratic(1), M.eikonal(1), M.double_well(1)):
        for _ in range(200):
            x = rng.uniform(0, 1, (1,))
            p = rng.uniform(-2.5, 2.5, (1,))
            xi = rng.uniform(-4, 4, (1,))
            L = M.lagrangian(H, x, xi)
            if L < M.CAP:
                assert float(xi @ p) <= float(H(x, p)) + L + 1e-7


def test_fenchel_young_boundary():
    rng = np.random.default_rng(13)
    Bk = M.max_affine(IV, [(1.0, 1.0), (2.0, 3.0)])
    for _ in range(150):
        p = rng.uniform(-4, 4, (1,))
        xi = rng.uniform(1.0, 2.0, (1,))
        Gv = M.boundary_conjugate(Bk, XR, xi)
        if Gv < M.CAP:
            assert float(xi @ p) <= float(Bk(XR, p)) + Gv + 1e-7


# -- audits -------------------------------------------------------------------

def test_audit_double_well_neumann():
    H = M.double_well(1)
    rep = M.audit_assumptions(H, M.neumann(IV), IV)
    for name in ("A0", "A1", "A2", "A3", "A4"):
        assert rep.entry(name).passed
    assert not H.convex
    assert rep.entry("A6").passed
    assert rep.entry("A7").passed is None  # skipped: H nonconvex


def test_audit_quadratic_all_pass():
    rep = M.audit_assumptions(M.quadratic(1), M.neumann(IV), IV)
    assert rep.passed("A0", "A1", "A2", "A3", "A4", "A6")


def test_audit_anticoercive_fails_a1():
    H = M.Hamiltonian("anti", lambda x, p: -np.linalg.norm(np.asarray(p, float), axis=-1),
                      1, False)
    rep = M.audit_assumptions(H, M.neumann(IV), IV)
    entry = rep.entry("A1")
    assert entry.passed is False
    assert "x" in entry.witness


def test_effective_velocity_bound_eikonal():
    # the bisection stays inside dom L = {|xi| <= 1}, also under a shift
    # by an eigenvalue of either sign
    for geom in (IV, G.disc(0.0, 0.0, 1.0)):
        grid = G.build_grid(geom, 0.1)
        H = M.eikonal(geom.dim, "1 + 0.2*x")
        for Hc in (H, M.shift_hamiltonian(H, -0.5), M.shift_hamiltonian(H, 0.37)):
            v = M.effective_velocity_bound(Hc, grid.nodes, 3.0)
            assert 1.0 - 1e-9 <= v <= 1.0
