import numpy as np
import pytest

from pssim import _kernels
from pssim._kernels import _pykernels
from pssim.errors import PsSimError

HAS_COMPILED = "compiled" in _kernels.available_backends()

needs_compiled = pytest.mark.skipif(
    not HAS_COMPILED, reason="compiled kernel extension not built"
)


def random_case(rng, n, total=None):
    quotas = rng.integers(0, 8, size=n).astype(np.int64)
    if quotas.sum() == 0:
        quotas[0] = 3
    if total is None:
        total = int(quotas.sum())
    u = rng.random(total)
    return quotas, u


def test_python_kernel_conserves_quotas():
    rng = np.random.default_rng(0)
    quotas, u = random_case(rng, 50)
    out = _pykernels.assign_participants(quotas, u)
    assert np.array_equal(np.bincount(out, minlength=50), quotas)


def test_python_kernel_skips_zero_quota_participants():
    quotas = np.array([0, 3, 0, 2], dtype=np.int64)
    out = _pykernels.assign_participants(quotas, np.random.default_rng(1).random(5))
    assert set(out.tolist()) <= {1, 3}


def test_python_kernel_exhaustion_raises():
    quotas = np.array([1, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="exhausted"):
        _pykernels.assign_participants(quotas, np.random.default_rng(2).random(3))


def test_first_pick_uniform_over_active_not_quota_weighted():
    # participant 0 holds nearly all quota but the first pick is still 50/50
    quotas = np.array([9999, 1], dtype=np.int64)
    rng = np.random.default_rng(7)
    first = [
        int(_pykernels.assign_participants(quotas, rng.random(1))[0])
        for _ in range(2000)
    ]
    share = np.mean(first)
    assert abs(share - 0.5) < 0.05


@needs_compiled
def test_backends_bit_identical():
    _, core = _kernels.get_backend("compiled")
    rng = np.random.default_rng(42)
    for n in (1, 2, 17, 300, 10_000):
        quotas, u = random_case(rng, n)
        u[-1] = np.nextafter(1, 0)  # the largest u below 1 picks the last active index
        a = core.assign_participants(quotas, u)
        b = _pykernels.assign_participants(quotas, u)
        assert np.array_equal(a, b)


@needs_compiled
def test_compiled_kernel_exhaustion_raises():
    _, core = _kernels.get_backend("compiled")
    quotas = np.array([2], dtype=np.int64)
    with pytest.raises(ValueError, match="exhausted"):
        core.assign_participants(quotas, np.random.default_rng(3).random(5))


@needs_compiled
def test_compiled_entry_point_rejects_short_buffers():
    from pssim._kernels._assign import assign

    quotas = np.array([2, 3], dtype=np.int64)
    u = np.random.default_rng(4).random(5)
    assign(quotas.copy(), u, np.empty(5, dtype=np.int64), np.empty(2, dtype=np.int64))
    for out, active in (
        (np.empty(4, dtype=np.int64), np.empty(2, dtype=np.int64)),
        (np.empty(5, dtype=np.int64), np.empty(1, dtype=np.int64)),
        (np.empty(5, dtype=np.int32), np.empty(2, dtype=np.int64)),
    ):
        with pytest.raises(ValueError, match="does not match"):
            assign(quotas.copy(), u, out, active)


def test_backend_resolution():
    name, module = _kernels.get_backend("python")
    assert name == "python"
    assert module is _pykernels
    auto_name, _ = _kernels.get_backend("auto")
    assert auto_name in ("python", "compiled")
    with pytest.raises(PsSimError):
        _kernels.get_backend("fortran")
