import struct

import numpy as np
import pytest

from beltrami_lab.grid import (
    DerivativePair,
    GridField,
    coordinates,
    from_function,
    l2_norm,
    load,
    zeros,
)


def test_coordinates_layout():
    Z = coordinates(2.0, 16)
    h = 4.0 / 16
    assert Z[0, 0] == -2 - 2j
    assert Z[0, 1] == -2 + h - 2j          # column index moves the real part
    assert Z[1, 0] == -2 + 1j * (-2 + h)   # row index moves the imaginary part
    assert Z[8, 8] == 0


def test_validation():
    with pytest.raises(ValueError):
        GridField(2.0, np.zeros((12, 12), dtype=complex))     # not >= 16
    with pytest.raises(ValueError):
        GridField(2.0, np.zeros((24, 24), dtype=complex))     # not a power of two
    with pytest.raises(ValueError):
        GridField(-1.0, np.zeros((16, 16), dtype=complex))
    bad = np.zeros((16, 16), dtype=complex)
    bad[3, 3] = np.nan
    with pytest.raises(ValueError):
        GridField(2.0, bad)


@pytest.mark.parametrize("sample", [complex(0.5, np.nan), complex(np.inf, 0.5),
                                    complex(-np.inf, 0.0), complex(0.0, -np.inf)])
def test_validation_checks_each_part(sample):
    # one non-finite part makes the sample non-finite, wherever it lies
    for index in [(0, 0), (7, 11), (15, 15)]:
        bad = np.zeros((16, 16), dtype=complex)
        bad[index] = sample
        with pytest.raises(ValueError, match="finite"):
            GridField(2.0, bad)


def test_fields_are_immutable():
    f = zeros(2.0, 16)
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    f = GridField(1.5, rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    path = tmp_path / "field.blgf"
    f.save(path)
    g = load(path)
    assert g.L == f.L and g.n == f.n
    np.testing.assert_array_equal(g.data, f.data)
    # header layout: magic, u32 n, f64 L
    raw = path.read_bytes()
    assert raw[:4] == b"BLGF"
    assert int.from_bytes(raw[4:8], "little") == 32
    assert len(raw) == 16 + 32 * 32 * 16


def _blgf(n, L, data):
    """A BLGF file's bytes, written without GridField's checks."""
    return b"BLGF" + struct.pack("<Id", n, L) + np.asarray(data, "<c16").tobytes()


def _one_nan(n):
    data = np.zeros((n, n), complex)
    data[3, 5] = np.nan
    return data


@pytest.mark.parametrize("raw, message", [
    (_blgf(12, 2.0, np.zeros((12, 12))), "grid size must be a power of two >= 16, got 12"),
    (_blgf(16, 0.0, np.zeros((16, 16))), "box half-side must be positive, got 0.0"),
    (_blgf(16, 2.0, _one_nan(16)), "grid samples must all be finite"),
], ids=["n-12", "L-0", "nan-sample"])
def test_load_names_the_file_of_an_invalid_grid(raw, message, tmp_path):
    # the header is whole and the payload has its length; the grid it describes is not valid
    path = tmp_path / "bad.blgf"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


def test_bilinear_interp_exact_on_bilinear_data():
    f = from_function(2.0, 32, lambda z: 3 * z.real + 1j * z.imag - 2)
    pts = np.array([0.13 + 0.4j, -1.1 - 0.77j, 0.0j])
    expected = 3 * pts.real + 1j * pts.imag - 2
    np.testing.assert_allclose(f.interp(pts), expected, atol=1e-13)


def test_derivative_pair_geometry_check():
    with pytest.raises(ValueError):
        DerivativePair(zeros(1.0, 16), zeros(2.0, 16))


@pytest.mark.parametrize("n", [16, 256])
def test_l2_norm_matches_numpy(n):
    rng = np.random.default_rng(n)
    data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ref = np.linalg.norm(data)
    assert abs(l2_norm(data) - ref) <= 1e-12 * ref
    assert l2_norm(np.zeros((n, n), dtype=complex)) == 0.0
    field = GridField(2.0, data)
    assert field.norm_l2() == pytest.approx(ref * field.h, rel=1e-12)
