"""Dynamic-order Lorenzo codec tests (paper §6.5)."""
import numpy as np
import pytest

from repro.core import lorenzo


@pytest.mark.parametrize("shape", [(100,), (20, 30), (8, 9, 10)])
@pytest.mark.parametrize("e", [1e-1, 1e-3])
def test_roundtrip_bound(shape, e):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    out = lorenzo.decompress(lorenzo.compress(x, e))
    assert out.shape == shape
    assert np.abs(out - x).max() <= e


def test_forward_inverse_identity():
    rng = np.random.default_rng(1)
    u = rng.integers(-100, 100, (6, 7, 8)).astype(np.int64)
    for order in (1, 2):
        v = lorenzo._inverse(lorenzo._forward(u, order), order)
        np.testing.assert_array_equal(v, u)


def test_first_order_is_neighbour_difference_1d():
    """The vectorized codec equals classic sequential Lorenzo: the code
    for x_i is u_i - u_{i-1} on the quantized lattice."""
    x = np.array([0.0, 1.0, 3.0, 3.0, 2.0])
    e = 0.5
    u = np.rint(x / (2 * e)).astype(np.int64)
    d = lorenzo._forward(u, 1)
    expect = np.diff(u, prepend=0)
    np.testing.assert_array_equal(d, expect)


def test_smooth_data_small_codes():
    """On a linear ramp, second-order codes are ~all zero."""
    x = np.linspace(0, 10, 1000)
    u = np.rint(x / 2e-3).astype(np.int64)
    d2 = lorenzo._forward(u, 2)
    assert np.abs(d2[2:]).max() <= 1


def test_overflow_raises():
    x = np.array([1e30, -1e30])
    with pytest.raises(OverflowError):
        lorenzo.compress(x, 1e-10)


def test_invalid_bound():
    with pytest.raises(ValueError):
        lorenzo.compress(np.zeros(4), 0.0)


def test_rounding_nudge_keeps_exact_bound():
    """Values adversarially near bin edges still respect the bound."""
    e = 0.1
    x = (np.arange(1000) + 0.5) * 2 * e * (1 + 1e-15)
    out = lorenzo.decompress(lorenzo.compress(x, e))
    assert np.abs(out - x).max() <= e


@pytest.mark.parametrize("dtype", [np.float32, np.int32])
def test_dtypes(dtype):
    rng = np.random.default_rng(2)
    x = (rng.standard_normal((12, 13)) * 100).astype(dtype)
    e = 0.7
    out = lorenzo.decompress(lorenzo.compress(x, e))
    assert np.abs(out - x.astype(np.float64)).max() <= e


def _halfway_case():
    """A Miranda crop with a value halfway between two lattice points:
    in float64 both neighbouring indices miss the bound by ~1 ulp."""
    from repro.core import metrics
    from repro.datasets import fields

    full = fields.miranda(shape=(32, 32, 32), seed=1576890651)
    return full[0:16, 16:32, 16:32], 1e-3 * metrics.value_range(full)


def test_halfway_value_stored_exactly():
    x, e = _halfway_case()
    a = x.astype(np.float64)
    u = np.rint(a / (2.0 * e))
    stuck = np.ones(a.shape, bool)
    for du in (-1, 0, 1):
        stuck &= np.abs(a - 2.0 * e * (u + du)) > e
    assert stuck.sum() == 1  # the case this test is about
    out = lorenzo.decompress(lorenzo.compress(x, e))
    assert np.abs(out - a).max() <= e
    assert out[stuck] == a[stuck]


def test_corrupt_patch_section_raises():
    from repro.core import container

    x, e = _halfway_case()
    sec = container.unpack(lorenzo.compress(x, e))
    sec["patch_at"] = container.array_section(np.array([x.size], dtype=np.int64))
    with pytest.raises(ValueError, match="patch"):
        lorenzo.decompress(container.pack(list(sec.items())))


def test_hpez_holds_bound_on_halfway_value():
    """Regression: HPEZ picks Lorenzo here and used to exceed e by 8.9e-18."""
    from repro import codecs

    x, e = _halfway_case()
    out = codecs.decompress(codecs.compress("hpez", x, e, mode="abs"))
    assert np.abs(out - x.astype(np.float64)).max() <= e


def test_pipeline_falls_back_when_lorenzo_overflows(monkeypatch):
    """The tuner scores Lorenzo on samples; if the whole input then
    overflows the lattice, the pipeline interpolates instead of raising."""
    from repro import codecs
    from repro.core import autotune, container

    real_tune = autotune.tune

    def lorenzo_tune(data, e, opts):
        res = real_tune(data, e, opts)
        res.use_lorenzo = True
        res.cfg.block_cfg = None
        return res

    monkeypatch.setattr(autotune, "tune", lorenzo_tune)
    x = np.linspace(0.0, 1.0, 4000).reshape(40, 100)
    x[7, 7] = 1e30
    e = 1e-9
    blob = codecs.compress("hpez", x, e, mode="abs")
    inner = container.unpack(container.unpack(blob)["payload"])
    assert container.from_json(inner["meta"])["kind"] == "interp"
    assert np.abs(codecs.decompress(blob) - x).max() <= e
