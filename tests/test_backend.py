"""NumPy kernels: in-place weighted |psi|^2 accumulation."""

import numpy as np
import pytest

from lightgrating import backend

LAYOUTS = {
    "c_order": lambda big: big[:, ::2].copy(),
    "strided": lambda big: big[:, ::2],
    "fortran": lambda big: np.asfortranarray(big[:, ::2]),
}


def complex_rows(rng, n_rows, n_points):
    # unequal real and imaginary scales, so dropping either part shows
    return rng.normal(size=(n_rows, n_points)) + 3.0j * rng.normal(size=(n_rows, n_points))


def reference_abs2(fields):
    return (fields.real**2 + fields.imag**2).sum(axis=0)


class TestAccumulateWeightedAbs2:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n_rows", [1, 9, 14])
    def test_adds_weighted_row_sum(self, n_rows, layout):
        rng = np.random.default_rng(n_rows)
        fields = LAYOUTS[layout](complex_rows(rng, n_rows, 514))
        start = rng.random(257)
        out = start.copy()
        assert backend.accumulate_weighted_abs2(fields, 0.37, out) is None
        np.testing.assert_allclose(out, start + 0.37 * reference_abs2(fields), rtol=1e-13)

    def test_accumulates_in_place_over_calls(self):
        rng = np.random.default_rng(9)
        a = complex_rows(rng, 3, 50)
        b = complex_rows(rng, 5, 50)
        out = np.zeros(50)
        backend.accumulate_weighted_abs2(a, 1.0, out)
        backend.accumulate_weighted_abs2(b, 0.25, out)
        np.testing.assert_allclose(
            out, reference_abs2(a) + 0.25 * reference_abs2(b), rtol=1e-13
        )


def test_backend_name_is_python():
    assert backend.backend_name() == "python"
