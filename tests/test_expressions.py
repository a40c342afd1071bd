"""Expression strings for fields: allowed names only, no attribute access."""

import numpy as np
import pytest

from hj_neumann.errors import ConfigError
from hj_neumann.expressions import scalar_field


def test_expression_evaluates_allowed_names():
    f = scalar_field("0.5 - 0.5*cos(2*pi*x) + y", 2)
    pts = np.array([[0.0, 1.0], [0.5, 0.0]])
    np.testing.assert_allclose(f(pts), [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("expr", ["x.__class__", "x.shape", "sin.__self__", "(x).T"])
def test_expression_rejects_attribute_access(expr):
    with pytest.raises(ConfigError):
        scalar_field(expr, 1)


@pytest.mark.parametrize("expr", ["__import__('os')", "open", "x[0](1)"])
def test_expression_rejects_other_names_and_calls(expr):
    with pytest.raises(ConfigError):
        scalar_field(expr, 1)
