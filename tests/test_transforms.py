"""Transform oracles.

The closed forms for the unit-disk indicator,

    T chi(z) = conj(z) on |z| <= 1,  1/z outside,
    S chi(z) = 0 on |z| < 1,  -1/z^2 outside,

are cross-checked below against direct quadrature of the Cauchy and
Beurling integrals (reduced to one-dimensional angular integrals in
polar coordinates around the probe), which pins the sign and
normalization conventions independently of the implementation.
"""

import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from beltrami_lab import transforms
from beltrami_lab.errors import SupportTooLarge
from beltrami_lab.grid import GridField, coordinates, from_function, zeros
from beltrami_lab.transforms import (
    _BoxTransform,
    _check_support,
    _kernels,
    _slug,
    _spectrum,
    beurling_transform,
    cauchy_transform,
    derivatives,
)

L = 2.0


# ---------------------------------------------------------------------------
# quadrature oracles for the unit-disk indicator


def _chord(z0, phi):
    """Entry/exit distances from z0 along direction e^{i phi} to the unit circle."""
    beta = np.real(z0 * np.exp(-1j * phi))
    disc = beta**2 + 1 - abs(z0) ** 2
    return beta, disc


def cauchy_chi_quadrature(z0, nq=20000):
    """(1/pi) integral over the disk of 1/(z0 - w), as an angular integral."""
    phi = 2 * np.pi * np.arange(nq) / nq
    beta, disc = _chord(z0, phi)
    if abs(z0) < 1:
        R = -beta + np.sqrt(disc)
        return (1 / np.pi) * np.sum(-np.exp(-1j * phi) * R) * (2 * np.pi / nq)
    mask = disc > 0
    sq = np.sqrt(np.where(mask, disc, 0))
    r1 = np.maximum(-beta - sq, 0)
    r2 = np.maximum(-beta + sq, 0)
    vals = np.where(mask, -np.exp(-1j * phi) * (r2 - r1), 0)
    return (1 / np.pi) * np.sum(vals) * (2 * np.pi / nq)


def beurling_chi_quadrature(z0, nq=20000):
    """-(1/pi) p.v. integral of 1/(z0 - w)^2 over the disk."""
    phi = 2 * np.pi * np.arange(nq) / nq
    beta, disc = _chord(z0, phi)
    if abs(z0) < 1:
        R = -beta + np.sqrt(disc)
        # p.v. radial integral of 1/rho from eps to R: log R; the log eps term
        # integrates to zero against e^{-2i phi}
        vals = -np.exp(-2j * phi) * np.log(R)
        return (1 / np.pi) * np.sum(vals) * (2 * np.pi / nq)
    mask = disc > 0
    sq = np.sqrt(np.where(mask, disc, 0))
    r1 = np.maximum(-beta - sq, 1e-300)
    r2 = np.maximum(-beta + sq, 1e-300)
    vals = np.where(mask & (r1 > 0), -np.exp(-2j * phi) * np.log(r2 / r1), 0)
    return (1 / np.pi) * np.sum(vals) * (2 * np.pi / nq)


PROBES_IN = [0.5 + 0j, 0.3 + 0.4j, -0.2 + 0.5j, 0.6j, -0.55 - 0.2j]
PROBES_OUT = [1.5 + 0.5j, -2.0 + 0.1j, 1.2 - 1.2j, 2.5j, -1.4 + 0.0j]


def chi_field(n):
    return from_function(L, n, lambda z: (np.abs(z) < 1).astype(complex))


def closed_T(z):
    zs = np.where(z == 0, 1, z)
    return np.where(np.abs(z) <= 1, np.conj(z), 1 / zs)


def closed_S(z):
    zs = np.where(z == 0, 1, z)
    return np.where(np.abs(z) <= 1, 0, -1 / zs**2)


def test_quadrature_confirms_closed_forms():
    for z0 in PROBES_IN:
        assert abs(cauchy_chi_quadrature(z0) - np.conj(z0)) < 1e-5
        assert abs(beurling_chi_quadrature(z0)) < 1e-5
    for z0 in PROBES_OUT:
        assert abs(cauchy_chi_quadrature(z0) - 1 / z0) < 1e-5
        assert abs(beurling_chi_quadrature(z0) + 1 / z0**2) < 1e-5


def test_zero_maps_to_zero():
    z = zeros(L, 64)
    assert np.all(cauchy_transform(z).data == 0)
    assert np.all(beurling_transform(z).data == 0)


def test_chi_closed_forms_at_512():
    n = 512
    chi = chi_field(n)
    T = cauchy_transform(chi)
    S = beurling_transform(chi)
    Z = coordinates(L, n)
    mask = np.abs(np.abs(Z) - 1.0) > 0.15
    errT = np.abs(T.data - closed_T(Z))[mask].max()
    errS = np.abs(S.data - closed_S(Z))[mask].max()
    assert errT <= 5e-2
    assert errS <= 5e-2


def test_chi_errors_decrease_under_refinement():
    # fixed probe set: the off-circle samples of the coarsest grid
    Z128 = coordinates(L, 128)
    probe_mask = np.abs(np.abs(Z128) - 1.0) > 0.15
    errsT, errsS = [], []
    for n in (128, 256, 512):
        step = n // 128
        chi = chi_field(n)
        T = cauchy_transform(chi).data[::step, ::step]
        S = beurling_transform(chi).data[::step, ::step]
        errsT.append(np.abs(T - closed_T(Z128))[probe_mask].max())
        errsS.append(np.abs(S - closed_S(Z128))[probe_mask].max())
    assert errsT[0] > errsT[1] > errsT[2]
    assert errsS[0] > errsS[1] > errsS[2]


# ---------------------------------------------------------------------------
# the transforms against the textbook slug formula


def reference_transforms(omega):
    """(T omega, S omega) by ifft2(m fft2(omega - c g)) + c X g on the full
    grid: the Gaussian slug g with sigma = L/4 carries the mass c g."""
    n, h = omega.n, omega.h
    xi = 2 * np.pi * np.fft.fftfreq(n, d=h)
    zeta = xi[None, :] + 1j * xi[:, None]
    zs = np.where(zeta == 0, 1, zeta)
    mult_T = np.where(zeta == 0, 0, -2j / zs)
    mult_S = np.where(zeta == 0, 0, np.conj(zeta) / zs)
    Z = coordinates(omega.L, n)
    sigma2 = (omega.L / 4) ** 2
    r2 = np.abs(Z) ** 2
    g = np.exp(-r2 / sigma2)
    Zs = np.where(Z == 0, 1, Z)
    Tg = np.where(Z == 0, 0, sigma2 * (1 - g) / Zs)
    Sg = np.where(Z == 0, 0, (np.conj(Z) * g * Zs - sigma2 * (1 - g)) / Zs**2)
    c = omega.data.sum() * h**2 / (np.pi * sigma2)
    rem = np.fft.fft2(omega.data - c * g)
    return (np.fft.ifft2(mult_T * rem) + c * Tg, np.fft.ifft2(mult_S * rem) + c * Sg)


def random_supported_field(n, inside, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return GridField(L, data * inside(coordinates(L, n)))


def last_allowed_band(z):
    """The widest row band the support rule accepts, ending at the last grid row."""
    n = z.shape[0]
    rows = np.zeros((n, 1), dtype=bool)
    rows[n // 2 - 1:] = True
    cols = np.zeros((1, n), dtype=bool)
    cols[:, n // 4:3 * n // 4] = True
    return rows & cols


SUPPORTS = {
    "disk at 0": lambda z: np.abs(z) < 0.9,
    "disk at 0.5+0.3i": lambda z: np.abs(z - (0.5 + 0.3j)) < 0.45,
    "disk at -0.7": lambda z: np.abs(z + 0.7) < 0.45,
    "band to the last row": last_allowed_band,
}


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("support", SUPPORTS)
def test_transforms_match_full_grid_slug_formula(support, n):
    omega = random_supported_field(n, SUPPORTS[support], seed=n)
    for op, ref in zip((cauchy_transform, beurling_transform), reference_transforms(omega)):
        assert np.abs(op(omega).data - ref).max() <= 1e-13 * np.abs(ref).max()


def test_support_band_keeps_faint_rows():
    # a sample below the extent threshold passes the support rule but is
    # still transformed: the band covers every row with a nonzero sample,
    # and the box's column range every such column
    data = (np.abs(coordinates(L, 64)) < 0.9).astype(complex)
    rows, cols = _check_support(data, L)
    assert np.any(data[rows.start]) and np.any(data[rows.stop - 1]) and rows.stop - rows.start < 64
    assert np.any(data[:, cols.start]) and np.any(data[:, cols.stop - 1])
    assert cols.stop - cols.start < 64
    data[1, 5] = 1e-20
    assert _check_support(data, L) == (slice(1, rows.stop), slice(5, cols.stop))
    assert _check_support(np.zeros((64, 64)), L) == (slice(0, 0), slice(0, 0))


def off_centre_rectangle(n):
    z = coordinates(L, n)
    inside = (z.real > 0.2) & (z.real < 1.1) & (z.imag > -0.9) & (z.imag < -0.3)
    return random_supported_field(n, lambda _: inside, seed=3)


def one_faint_row(n):
    data = (np.abs(coordinates(L, n)) < 0.9).astype(complex)
    data[1, n // 2] = 1e-20  # below the extent threshold, inside the band
    return GridField(L, data)


IN_PLACE_FIELDS = {
    "off-centre rectangle": off_centre_rectangle,
    "one faint row": one_faint_row,
    "all zero": lambda n: zeros(L, n),
}


@pytest.mark.parametrize("field", IN_PLACE_FIELDS)
def test_in_place_passes_leave_inputs_and_caches_alone(field):
    n = 64
    omega = IN_PLACE_FIELDS[field](n)
    kernels, slug = _kernels(L, n), _slug(L, n)
    before = [a.copy() for a in (omega.data, *kernels, *slug[:2])]
    c = omega.data.sum() * omega.h**2 * slug[2]
    omega_hat = np.fft.fft2(omega.data)
    for which, op in enumerate((cauchy_transform, beurling_transform)):
        first, second = op(omega).data, op(omega).data
        ref = np.fft.ifft2(kernels[which] * omega_hat) + c * slug[which]
        assert np.abs(first - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        # the unchecked transforms: from any box that covers the support of
        # omega, the bits of the public call on any output box, call after
        # call; an output box of whole rows (the public call's) is made anew
        # by each call without an `out`
        band, cols = _check_support(omega.data, L)
        wide = slice(0, n) if band.start == band.stop else slice(band.start // 2, band.stop)
        whole = (slice(None), slice(None))
        for box in ((band, cols), (band, slice(None)), (wide, slice(None)), whole):
            for out_box in (None, whole, (wide, slice(None)), (wide, cols)):
                on_box = _BoxTransform(L, n, which, box, out_box)
                want = first[box if out_box is None else out_box]
                made = on_box(omega.data[box])
                assert np.array_equal(made, want) and made.flags.c_contiguous
                assert not np.shares_memory(made, on_box(omega.data[box]))
                out = np.empty(want.shape, dtype=complex)
                for _ in range(2):
                    assert on_box(omega.data[box], out) is out
                    assert np.array_equal(out, want)
    after = (omega.data, *kernels, *slug[:2])
    for old, new in zip(before, after):
        assert np.array_equal(old, new)
        assert not new.flags.writeable


@pytest.mark.parametrize("field", IN_PLACE_FIELDS)
def test_padded_spectrum_gives_the_bits_of_a_contiguous_one(field, monkeypatch):
    # the row padding moves no bit of T or S, on the whole grid or a box;
    # the whole grid comes back contiguous, so GridField copies nothing
    n = 64
    omega = IN_PLACE_FIELDS[field](n)
    band, cols = _check_support(omega.data, L)
    padded = _spectrum(n)
    assert padded.shape == (n, n) and padded.strides == ((n + 4) * 16, 16)
    assert padded.base.shape == _kernels(L, n)[1].base.shape == (n, n + 4)
    boxes = ((band, cols), (band, slice(None)), (slice(None), slice(None)))

    def transforms_of_omega():
        for which in (0, 1):
            yield (cauchy_transform, beurling_transform)[which](omega).data
            for box in boxes:
                yield _BoxTransform(L, n, which, box)(omega.data[box],
                                                      np.empty(omega.data[box].shape, complex))

    outs = list(transforms_of_omega())
    # the kernels are laid out as the spectrum is: both are built again unpadded
    monkeypatch.setattr(transforms, "_PAD", 0)
    _kernels.cache_clear()
    try:
        assert _spectrum(n).flags.c_contiguous
        refs = list(transforms_of_omega())
    finally:
        monkeypatch.undo()
        _kernels.cache_clear()
    for out, ref in zip(outs, refs):
        assert np.array_equal(out, ref)
    for whole in outs[::len(boxes) + 1]:
        assert whole.shape == (n, n) and whole.flags.c_contiguous


# ---------------------------------------------------------------------------
# passes split over two threads at n >= 512


def centred_box(n):
    """A random field on |x|, |y| <= 1: 257 rows and columns at n = 512."""
    z = coordinates(L, n)
    return random_supported_field(n, lambda _: np.maximum(np.abs(z.real), np.abs(z.imag)) <= 1,
                                  seed=5)


SPLIT_FIELDS = {"centred box": centred_box, **IN_PLACE_FIELDS}


def cpus(monkeypatch, count):
    """Make the transforms see a process that may run on `count` CPUs."""
    monkeypatch.setattr(transforms, "_cpu_count", lambda: count)


def all_transforms(omega):
    """T and S of omega, public and on its box, as bytes."""
    band, cols = _check_support(omega.data, L)
    for which, op in enumerate((cauchy_transform, beurling_transform)):
        yield op(omega).data.tobytes()
        on_box = _BoxTransform(L, omega.n, which, (band, cols))
        yield on_box(omega.data[band, cols], np.empty(omega.data[band, cols].shape,
                                                      complex)).tobytes()


@pytest.mark.parametrize("field", SPLIT_FIELDS)
def test_split_passes_give_the_bits_of_one_range(field, monkeypatch):
    n = 512
    omega = SPLIT_FIELDS[field](n)
    if field == "centred box":
        assert _check_support(omega.data, L) == (slice(128, 385), slice(128, 385))
    cpus(monkeypatch, 1)
    assert transforms._runner(n) is transforms._one
    one = list(all_transforms(omega))
    cpus(monkeypatch, 2)
    assert transforms._runner(n) is transforms._worker
    assert list(all_transforms(omega)) == one


def halves_on_threads(lines=8):
    """Run a phase through the n = 512 runner; the thread of each half."""
    ran = {}

    def phase(lo, hi):
        ran[lo] = threading.get_ident()

    transforms._runner(512)(phase, lines)
    return ran


def test_an_error_in_the_worker_half_reaches_the_caller(monkeypatch):
    cpus(monkeypatch, 2)
    before = halves_on_threads()
    assert before[0] == threading.get_ident() != before[4]

    def upper_half_fails(lo, hi):
        if lo:
            raise KeyError(f"lines {lo}:{hi}")

    with pytest.raises(KeyError, match="lines 4:8"):
        transforms._runner(512)(upper_half_fails, 8)
    assert halves_on_threads() == before  # the same worker, which runs on

    def overflow_in_the_upper_half():
        data = np.ones(16)
        data[8:] = 1e308

        def overflow(lo, hi):
            np.multiply(data[lo:hi], 10.0, out=data[lo:hi])

        transforms._runner(512)(overflow, 16)
        return data

    with pytest.raises(RuntimeWarning, match="overflow"):  # pytest makes warnings errors
        overflow_in_the_upper_half()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        overflow_in_the_upper_half()
    with np.errstate(over="ignore"):
        data = overflow_in_the_upper_half()
    assert np.isinf(data[8:]).all() and (data[:8] == 10.0).all()
    assert halves_on_threads() == before


def test_split_passes_keep_the_callers_error_state(monkeypatch):
    # samples whose FFTs overflow: under errstate(all="ignore") neither half
    # warns, and the infinities and NaNs are those of one range
    omega = GridField(L, off_centre_rectangle(512).data * 1e306)
    band, cols = _check_support(omega.data, L)
    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(RuntimeWarning):
            beurling_transform(omega)
        with np.errstate(all="ignore"):  # as the public S takes it, which refuses the result
            public = _BoxTransform(L, 512, 1, (band, slice(None)), (slice(None), slice(None)))
            results.append([public(omega.data[band]).tobytes(),
                            _BoxTransform(L, 512, 1, (band, cols))(
                                omega.data[band, cols],
                                np.empty(omega.data[band, cols].shape, complex)).tobytes()])
    assert not np.isfinite(np.frombuffer(results[0][0], complex)).all()
    assert results[0] == results[1]


def threads_after(code):
    """threading.active_count() after running code in a fresh interpreter."""
    script = ("import os, threading\n"
              "import numpy as np\n"
              "from beltrami_lab import transforms\n"
              "from beltrami_lab.grid import GridField\n"
              f"{code}\n"
              "print(threading.active_count())")
    src = str(Path(transforms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


TRANSFORM_512 = ("omega = np.zeros((512, 512), complex); omega[200:300, 200:300] = 1\n"
                 "transforms.beurling_transform(GridField(2.0, omega))")


def test_no_thread_below_512_or_on_one_cpu():
    small = ("omega = np.zeros((256, 256), complex); omega[100:150, 100:150] = 1\n"
             "transforms.beurling_transform(GridField(2.0, omega))")
    assert threads_after(small) == 1
    assert threads_after("transforms._cpu_count = lambda: 1\n" + TRANSFORM_512) == 1
    if hasattr(os, "sched_setaffinity"):
        one_cpu = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        assert threads_after(one_cpu + TRANSFORM_512) == 1
    # the worker starts on the first transform at 512 that may use two CPUs
    two_cpus = "transforms._cpu_count = lambda: 2\n" + TRANSFORM_512
    assert threads_after(two_cpus) == 2
    if hasattr(os, "fork"):  # a forked child, which has no worker, starts its own
        child = ("if not os.fork():\n"
                 "    transforms.beurling_transform(GridField(2.0, omega))\n"
                 "    os._exit(threading.active_count())\n"
                 "assert os.waitstatus_to_exitcode(os.wait()[1]) == 2")
        assert threads_after(f"{two_cpus}\n{child}") == 2


def test_the_worker_holds_no_array_after_a_transform(monkeypatch):
    cpus(monkeypatch, 2)
    spectra, make = [], transforms._spectrum

    def tracked(n):
        spec = make(n)
        spectra.append(weakref.ref(spec.base))
        return spec

    monkeypatch.setattr(transforms, "_spectrum", tracked)
    omega = centred_box(512)
    band, cols = _check_support(omega.data, L)
    result = beurling_transform(omega)
    on_box = _BoxTransform(L, 512, 1, (band, cols))
    on_box(omega.data[band, cols], np.empty(omega.data[band, cols].shape, complex))
    assert transforms._runner(512) is transforms._worker
    assert spectra[0]() is None  # the public call's spectrum went with the call
    del on_box
    assert spectra[1]() is None
    assert result.data.flags.owndata


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("count", [1, 2])
def test_public_transform_holds_its_spectrum_and_its_output(n, count, monkeypatch):
    # at its peak a public T or S holds the spectrum (n + 4 samples a row) and
    # the grid it returns, 2.01-2.05 grids: no whole-grid c R_X buffer and no copy
    # of R_X, on one range or split over two threads
    cpus(monkeypatch, count)
    omega = centred_box(n)
    for op in (cauchy_transform, beurling_transform):
        op(omega)  # the kernels and slug corrections are cached
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op(omega)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * n * n * 16, (op.__name__, peak / (n * n * 16))


def test_transforms_from_several_threads_give_the_bits_of_one(monkeypatch):
    # callers that find the worker busy run their passes as one range
    omega = off_centre_rectangle(512)
    cpus(monkeypatch, 1)
    one = list(all_transforms(omega))
    cpus(monkeypatch, 2)
    results, switch = [], sys.getswitchinterval()

    def caller():
        for _ in range(3):
            results.append(list(all_transforms(omega)) == one)

    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in callers)
    assert results == [True] * 12


def smooth_mean_zero_bump(n):
    """Difference of two Gaussians with equal mass: smooth, compact, mean-zero."""
    def build(z):
        b1 = np.exp(-np.abs(z - 0.2) ** 2 / 0.02)
        b2 = np.exp(-np.abs(z + 0.25j) ** 2 / 0.03)
        return b1 - b2 * (b1.sum() / b2.sum())

    return from_function(L, n, build)


def test_inversion_identity_on_mean_zero_bump():
    omega = smooth_mean_zero_bump(256)
    T = cauchy_transform(omega)
    back = derivatives(T, method="spectral").fzbar
    rel = np.linalg.norm(back.data - omega.data) / np.linalg.norm(omega.data)
    assert rel <= 1e-6


def test_beurling_isometry_on_mean_zero_fields():
    rng = np.random.default_rng(5)
    n = 256
    Z = coordinates(L, n)
    inside = np.abs(Z) < 0.9
    for _ in range(3):
        data = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        data *= np.exp(-np.abs(Z) ** 2 / 0.1) * inside
        data[inside] -= data[inside].mean()          # mean-zero, support kept compact
        omega = GridField(L, data)
        ratio = beurling_transform(omega).norm_l2() / omega.norm_l2()
        assert ratio == pytest.approx(1.0, abs=1e-8)


def test_composition_s_equals_d_of_t():
    omega = smooth_mean_zero_bump(128)
    S = beurling_transform(omega)
    dT = derivatives(cauchy_transform(omega), method="spectral").fz
    assert np.abs(S.data - dT.data).max() < 1e-10


def test_linearity():
    n = 128
    w1 = smooth_mean_zero_bump(n)
    w2 = from_function(L, n, lambda z: np.exp(-np.abs(z + 0.2) ** 2 / 0.02))
    a, b = 1.3 - 0.4j, -0.7 + 2.1j
    combo = GridField(L, a * w1.data + b * w2.data)
    for op in (cauchy_transform, beurling_transform):
        lhs = op(combo).data
        rhs = a * op(w1).data + b * op(w2).data
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1, np.abs(lhs).max())


def test_support_too_large_rejected():
    wide = from_function(L, 64, lambda z: (np.abs(z) < 1.9).astype(complex))
    with pytest.raises(SupportTooLarge):
        cauchy_transform(wide)


def test_derivatives_linear_fields_fd():
    ident = from_function(L, 64, lambda z: z)
    pair = derivatives(ident, method="fd")
    np.testing.assert_allclose(pair.fz.data, 1.0, atol=1e-12)
    np.testing.assert_allclose(pair.fzbar.data, 0.0, atol=1e-12)
    anti = from_function(L, 64, lambda z: np.conj(z))
    pair = derivatives(anti, method="fd")
    np.testing.assert_allclose(pair.fz.data, 0.0, atol=1e-12)
    np.testing.assert_allclose(pair.fzbar.data, 1.0, atol=1e-12)


def test_derivatives_product_rule_oracle():
    # g = 0.5 conj(z) b(z) with gaussian b: hand-differentiated derivatives
    sigma2 = 0.3**2
    n = 256

    def g(z):
        return 0.5 * np.conj(z) * np.exp(-np.abs(z) ** 2 / sigma2)

    field = from_function(L, n, g)
    pair = derivatives(field, method="spectral")
    Z = coordinates(L, n)
    b = np.exp(-np.abs(Z) ** 2 / sigma2)
    gz_exact = -0.5 * np.conj(Z) ** 2 * b / sigma2
    gzbar_exact = 0.5 * b * (1 - np.abs(Z) ** 2 / sigma2)
    assert np.abs(pair.fz.data - gz_exact).max() <= 1e-4
    assert np.abs(pair.fzbar.data - gzbar_exact).max() <= 1e-4


def test_fd_agrees_with_spectral_at_second_order():
    errs = []
    for n in (64, 128, 256):
        field = from_function(L, n, lambda z: np.exp(-np.abs(z) ** 2 / 0.1) * z)
        sp = derivatives(field, method="spectral")
        fd = derivatives(field, method="fd")
        errs.append(np.abs(sp.fzbar.data - fd.fzbar.data).max())
    assert errs[0] / errs[1] > 3.0      # roughly O(h^2)
    assert errs[1] / errs[2] > 3.0
