"""Activation contracts."""

import numpy as np

from seqtext import linalg


class TestActivations:
    def test_sigmoid_fixed_points(self):
        assert linalg.sigmoid(0.0) == 0.5
        assert abs(linalg.sigmoid(np.log(3.0)) - 0.75) < 1e-12

    def test_sigmoid_bounds_and_symmetry(self):
        rng = np.random.default_rng(7)
        # strict bounds only hold while e^-|x| stays above float64 eps;
        # past |x| ~ 36.7 the result rounds to exactly 0 or 1
        x = rng.uniform(-36, 36, size=20000)
        s = linalg.sigmoid(x)
        assert np.all(s > 0.0) and np.all(s < 1.0)
        wide = rng.uniform(-500, 500, size=20000)
        np.testing.assert_allclose(linalg.sigmoid(wide) + linalg.sigmoid(-wide),
                                   1.0, atol=1e-12)

    def test_sigmoid_survives_extreme_input(self):
        big = linalg.sigmoid(np.array([-1e6, 1e6]))
        assert np.isfinite(big).all()
        assert big[0] == 0.0 and big[1] == 1.0

    def test_sigmoid_equals_two_branch_form_bitwise(self):
        # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, taken branch by branch
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.uniform(-750, 750, size=5000), rng.normal(size=5000) * 8,
                            [700.0, -700.0, 745.0, -745.0, 1e-300, -1e-300, 0.0, -0.0]])
        want = np.array([1.0 / (1.0 + np.exp(-v)) if v >= 0 else np.exp(v) / (1.0 + np.exp(v))
                         for v in x])
        got = linalg.sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        strided = np.repeat(x[:, None], 3, axis=1)[:, 1]
        assert np.array_equal(linalg.sigmoid(strided), got)
