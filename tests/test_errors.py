"""Outside input that a solver cannot use raises a typed error, not a NaN."""

import dataclasses

import numpy as np
import pytest

from hj_neumann import ergodic as E, expressions as X, geometry as G, models as M, pde as P
from hj_neumann import skorokhod as S, variational as V, weak_kam as W
from hj_neumann.errors import ConfigError, GeometryError, NumericalError, ObliquenessError

IV = G.interval(0.0, 1.0)
DISC = G.disc(0.0, 0.0, 1.0)


def record(grid, times=(0.0, 0.5, 1.0)):
    """A SpaceTimeField of zeros on grid at the given stamps."""
    return P.SpaceTimeField(grid, np.array(times), np.zeros((len(times), grid.n_nodes)), 0.5)


def tables(dt_of):
    """build_tables on [0, 1] at h = 0.1 with dt = dt_of(h, v_max)."""
    grid, H = G.build_grid(IV, 0.1), M.quadratic(1)
    controls = V.build_control_set(H, M.neumann(IV), grid)
    return V.build_tables(grid, H, controls, dt_of(grid.h, controls.v_max))


CASES = {
    "field-shape": (lambda: P.GridField(G.build_grid(IV, 0.1), np.zeros(3)),
                    NumericalError, "shape"),
    "field-nan": (lambda: P.GridField(G.build_grid(IV, 0.1), np.full(11, np.nan)),
                  NumericalError, "non-finite"),
    "stamps-not-increasing": (lambda: record(G.build_grid(IV, 0.1), (0.0, 0.5, 0.5)),
                              NumericalError, "strictly increasing"),
    "stack-shape": (lambda: P.SpaceTimeField(G.build_grid(IV, 0.1), np.array([0.0, 1.0]),
                                             np.zeros((2, 5)), 1.0),
                    NumericalError, "does not match"),
    "stamp-past-the-end": (lambda: record(G.build_grid(IV, 0.1)).stamp(5.0),
                           NumericalError, "no snapshot near"),
    "empty-interval": (lambda: G.interval(1.0, 0.0), GeometryError, "empty interval"),
    "empty-disc": (lambda: G.disc(0.0, 0.0, 0.0), GeometryError, "r > 0"),
    "negative-horizon": (lambda: P.evolve(P.constant_field(G.build_grid(IV, 0.1)),
                                          M.quadratic(1), M.neumann(IV), "cn", T=-1.0),
                         NumericalError, "nonnegative"),
    "slope-one-stamp": (lambda: E.large_time_slope(record(G.build_grid(IV, 0.1)), 0.5, 0.5),
                        NumericalError, "t2 > t1"),
    "tables-zero-dt": (lambda: tables(lambda h, v: 0.0), NumericalError, "positive"),
    "tables-past-locality": (lambda: tables(lambda h, v: 3.0 * h / v), NumericalError,
                             "locality"),
    "crosscheck-two-grids": (lambda: V.crosscheck(record(G.build_grid(IV, 0.1)),
                                                  record(G.build_grid(IV, 0.05))),
                             NumericalError, "one grid"),
    "skorokhod-zero-dt": (lambda: S.integrate(IV, M.neumann(IV), [0.5], lambda t: np.ones(1),
                                              1.0, 0.0, M.oblique_selection(M.neumann(IV))),
                          NumericalError, "dt > 0"),
    # a constant gamma is never oblique on a bounded domain
    "constant-gamma": (lambda: M.affine(DISC, gamma=np.array([1.0, 0.0])), NumericalError,
                       "not oblique"),
    "audit-unknown-label": (lambda: M.audit_assumptions(M.quadratic(1), M.neumann(IV),
                                                        IV).entry("A9"),
                            KeyError, "A9"),
    "action-matrix-too-large": (lambda: W.action_matrix(G.build_grid(DISC, 0.035),
                                                        M.quadratic(2), M.neumann(DISC)),
                                NumericalError, "2000 nodes"),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_input_raises_a_typed_error(name):
    make, error, message = CASES[name]
    with pytest.raises(error, match=message):
        make()


def tangent(x):
    """The unit tangent of the disc: gamma.n = 0 on its boundary."""
    x = np.asarray(x, dtype=float)
    return np.stack([-x[..., 1], x[..., 0]], axis=-1) / np.linalg.norm(x, axis=-1, keepdims=True)


def flat(value):
    """A custom domain on [0, 1] with rho = value and grad_rho = 0 everywhere."""
    return G.custom(1, lambda p: np.full(np.shape(p)[:-1], value),
                    lambda p: np.zeros(np.shape(p)), ((0.0,), (1.0,)))


def tangent_stepper():
    # a replaced form skips the obliqueness check of the catalog constructors
    Bm = dataclasses.replace(M.neumann(DISC),
                             forms=((tangent, lambda x: np.zeros(np.shape(x)[:-1])),))
    return P.Stepper(G.build_grid(DISC, 0.2), M.quadratic(2), Bm)


def tangent_reflection():
    sel = M.ObliqueSelection(M.neumann(DISC), lambda x: (tangent(x), 0.0))
    return S.integrate(DISC, M.neumann(DISC), [0.9, 0.0], lambda t: np.array([1.0, 0.0]),
                       0.5, 0.1, sel)


def cost_off_the_domain():
    # a path reflected along gamma = 3 priced under forms whose hull is [1, 2]
    Ba = M.affine(IV, gamma=3.0, g=0.1)
    path = S.integrate(IV, Ba, [0.5], lambda t: np.ones(1), 1.0, 0.05, M.oblique_selection(Ba))
    return S.cost_track(path, M.max_affine(IV, [(1, 0.2), (2, 0.5)]))


def unnormalized_aubry_set():
    # the cosine well 1/2 p^2 + cos(2 pi x) - 1 has eigenvalue 0; normalized
    # by c = 1 instead, every loop costs > 0 and every pin is active
    grid = G.build_grid(IV, 0.05)
    H, Bm = E.normalize(M.quadratic(1, "cos(2*pi*x) - 1"), M.neumann(IV), 1.0)
    return W.aubry_set(W.action_matrix(grid, H, Bm))


GUARDS = {
    "expression-syntax": (lambda: X.scalar_field("x +", 1), ConfigError, "bad expression"),
    "normal-of-flat-rho": (lambda: flat(-1.0).unit_normal(np.array([[0.5]])), GeometryError,
                           "grad_rho vanishes"),
    "grid-of-empty-domain": (lambda: G.build_grid(flat(1.0), 0.1), GeometryError,
                             "no lattice node inside"),
    "stepper-tangent-form": (tangent_stepper, ObliquenessError, "gamma.n = 0 <= 0"),
    "skorokhod-tangent-selection": (tangent_reflection, ObliquenessError,
                                    "fails obliqueness"),
    "cost-track-off-the-domain": (cost_off_the_domain, NumericalError,
                                  "outside the effective domain"),
    "aubry-set-unnormalized": (unnormalized_aubry_set, NumericalError, "empty Aubry mask"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_typed_error(name):
    make, error, message = GUARDS[name]
    with pytest.raises(error, match=message):
        make()
