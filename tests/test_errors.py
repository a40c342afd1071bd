"""Outside input that a solver cannot use raises a typed error, not a NaN."""

import numpy as np
import pytest

from hj_neumann import ergodic as E, geometry as G, models as M, pde as P
from hj_neumann import skorokhod as S, variational as V, weak_kam as W
from hj_neumann.errors import GeometryError, NumericalError

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
