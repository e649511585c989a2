"""Unit tests for the spline stencils (paper Eqs. 2, 6, 8, 13, 14), run
through the engine's stencil kernel ``interp._line_predict_safe``."""
import numpy as np
import pytest

from repro.core import splines
from repro.core.interp import _line_predict_safe


def interior(v, first, last, name):
    """Engine prediction at interior targets ``first..last`` (stride 1)."""
    return _line_predict_safe(v, 0, first, 1, name, stop=last + 1)


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_weights_sum_to_one(name):
    w = sum(w for _, w in splines.STENCILS[name])
    assert abs(w - 1.0) < 1e-12


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_exact_on_constants(name):
    v = np.full(32, 3.7)
    pred = interior(v, 3, 27, name)
    np.testing.assert_allclose(pred, 3.7, rtol=1e-12)


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_exact_on_linear(name):
    v = 0.5 * np.arange(64) - 3.0
    pred = interior(v, 5, 57, name)
    np.testing.assert_allclose(pred, v[5:58], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("name", ["cubic_nak", "cubic_nak_sl"])
def test_nak_exact_on_cubics(name):
    """The not-a-knot stencils reproduce cubic polynomials exactly."""
    x = np.arange(64, dtype=np.float64)
    v = 0.02 * x**3 - 0.5 * x**2 + x - 7
    pred = interior(v, 5, 57, name)
    np.testing.assert_allclose(pred, v[5:58], rtol=1e-9)


def test_natural_not_exact_on_quadratic():
    """Natural boundary conditions trade polynomial exactness for
    smoothing — Eq. 8 is intentionally biased on curved data."""
    x = np.arange(64, dtype=np.float64)
    v = x**2
    pred = interior(v, 5, 57, "cubic_nat")
    assert np.abs(pred - v[5:58]).max() > 1e-3


@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_affine_invariance(name):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(40)
    p1 = interior(v, 4, 33, name)
    p2 = interior(2.5 * v + 7.0, 4, 33, name)
    np.testing.assert_allclose(p2, 2.5 * p1 + 7.0, rtol=1e-9, atol=1e-9)


def test_linear_formula_eq2():
    v = np.array([1.0, 0.0, 3.0])
    pred = interior(v, 1, 1, "linear")
    assert pred[0] == pytest.approx(2.0)


def test_cubic_nak_formula_eq6():
    """Eq. 6 coefficients: -1/16, 9/16, 9/16, -1/16."""
    v = np.zeros(8)
    v[0] = 1.0  # i-3 neighbour of target 3
    pred = interior(v, 3, 3, "cubic_nak")
    assert pred[0] == pytest.approx(-1 / 16)


def test_cubic_nat_formula_eq8():
    v = np.zeros(8)
    v[2] = 1.0  # i-1 neighbour of target 3
    pred = interior(v, 3, 3, "cubic_nat")
    assert pred[0] == pytest.approx(23 / 40)


def test_same_level_formula_eq13():
    v = np.zeros(8)
    v[1] = 1.0  # i-2 neighbour of target 3
    pred = interior(v, 3, 3, "cubic_nak_sl")
    assert pred[0] == pytest.approx(-1 / 6)


def test_same_level_formula_eq14():
    v = np.zeros(8)
    v[0] = 1.0  # i-3 neighbour of target 3
    pred = interior(v, 3, 3, "cubic_nat_sl")
    assert pred[0] == pytest.approx(3 / 62)


@pytest.mark.parametrize("name", list(splines.STENCILS))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9])
def test_safe_predict_handles_edges(name, n):
    """Every target position produces a finite prediction, any length."""
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n)
    pred = _line_predict_safe(v, 0, 1, 2, name)
    assert np.isfinite(pred).all()
    assert pred.shape == (n // 2,)


def test_safe_predict_parity():
    """Edge fallbacks of odd-offset stencils only read even (known)
    indices — the parity invariant the decompressor depends on."""
    n = 9
    marker = np.full(n, np.nan)
    marker[0::2] = 1.0  # known points
    for name in ("linear", "cubic_nak", "cubic_nat"):
        pred = _line_predict_safe(marker, 0, 1, 2, name)
        assert np.isfinite(pred).all(), name


def _take_reference(v, tpos, stencil):
    """The engine's former gather formulation along the last axis: every
    target's neighbours via ``np.take``, out-of-range ones mirrored about
    the target and then clamped to an even index."""
    n1 = v.shape[-1] - 1
    hi_even = n1 - (n1 & 1)
    acc = None
    for off, w in splines.STENCILS[stencil]:
        idx = tpos + off
        oob = (idx < 0) | (idx > n1)
        if oob.any():
            idx = np.where(oob, tpos - off, idx)
            oob = (idx < 0) | (idx > n1)
            if oob.any():
                idx = np.where(oob, np.clip(idx, 0, hi_even), idx)
        term = w * np.take(v, idx, axis=-1)
        acc = term if acc is None else acc + term
    return acc


#: (first target, step) of the engine's phases: one step-2 pass, or the
#: two step-4 phases of a same-level split.
PHASES = ((1, 2), (1, 4), (3, 4))


@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("name", list(splines.STENCILS))
def test_sliced_kernel_matches_take_reference(name, axis):
    """Interior slices plus edge taps give bit-identical predictions to
    the gather formula, for every line length, phase and axis of a 4-D
    array -- NaN markers included, so the reads are the same points."""
    rng = np.random.default_rng(axis)
    for n in range(2, 71):
        shape = [3, 2, 4]
        shape.insert(axis, n)
        v = rng.standard_normal(shape)
        marked = v.copy()
        np.moveaxis(marked, axis, -1)[..., 1::2] = np.nan
        for t0, step in PHASES:
            tpos = np.arange(t0, n, step)
            for arr in (v, marked):
                ref = np.moveaxis(
                    _take_reference(np.moveaxis(arr, axis, -1), tpos, name), -1, axis
                )
                got = _line_predict_safe(arr, axis, t0, step, name)
                np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("n", range(2, 71))
def test_phase_parity(n):
    """Each engine phase reads only points known at that time: even
    indices, plus the phase-1 outputs (1 mod 4) in the same-level phase."""
    known = np.full(n, np.nan)
    known[0::2] = 1.0
    for name in ("linear", "cubic_nak", "cubic_nat"):
        for t0, step in ((1, 2), (1, 4)):
            assert np.isfinite(_line_predict_safe(known, 0, t0, step, name)).all()
    known[1::4] = 1.0
    for name in ("cubic_nak_sl", "cubic_nat_sl"):
        assert np.isfinite(_line_predict_safe(known, 0, 3, 4, name)).all()
