from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    JacobiConvergenceError,
    determinant_exact,
    jacobi_eigenvalues,
    sample_matrix_reference,
    traced_peak_bytes,
)
from patrm.linkfns import LinkKind
from patrm.sampler import DEFAULT_SIZE_CAP, InputDistribution, sample_matrix, substream
from patrm.spectra import Histogram, _fourier_sum_eigenvalues, eigenvalues_symmetric, esd, sum_lsd_report

GAUSS = InputDistribution.GAUSSIAN


def _random_symmetric(n, rng):
    m = rng.standard_normal((n, n))
    return m + m.T


def test_eigenvalues_examples():
    assert np.allclose(eigenvalues_symmetric(np.eye(3)), [1, 1, 1])
    assert np.allclose(eigenvalues_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])
    assert np.allclose(jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])


def test_determinant_oracle_both_methods():
    # LAPACK and the Jacobi reference both reproduce the exact determinant
    rng = np.random.default_rng(8)
    for _ in range(5):
        scaled = rng.integers(-40, 40, size=(6, 6))
        sym = scaled + scaled.T
        m = sym / 16.0
        det = float(determinant_exact([[Fraction(int(v), 16) for v in row] for row in sym]))
        for eigs in (eigenvalues_symmetric(m), jacobi_eigenvalues(m)):
            prod = float(np.prod(eigs))
            assert prod == pytest.approx(det, rel=1e-6, abs=1e-9)


def test_trace_and_frobenius_consistency():
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = int(rng.integers(2, 65))
        m = _random_symmetric(n, rng)
        eigs = eigenvalues_symmetric(m)
        fro = np.linalg.norm(m)
        assert abs(eigs.sum() - np.trace(m)) <= 1e-8 * max(fro, 1.0)
        assert abs((eigs**2).sum() - fro**2) <= 1e-8 * max(fro, 1.0) * max(fro, 1.0)
        assert np.all(np.diff(eigs) >= 0)


def test_jacobi_agrees_with_lapack():
    rng = np.random.default_rng(11)
    for n in (3, 16, 40):
        m = _random_symmetric(n, rng)
        a = jacobi_eigenvalues(m)
        b = eigenvalues_symmetric(m)
        assert np.abs(a - b).max() < 1e-9 * max(np.abs(b).max(), 1.0)


def test_jacobi_nonconvergence_carries_residual():
    rng = np.random.default_rng(2)
    m = _random_symmetric(12, rng)
    with pytest.raises(JacobiConvergenceError) as exc:
        jacobi_eigenvalues(m, tol=1e-300, max_sweeps=1)
    assert exc.value.residual > 0


def test_rejects_asymmetric_and_oversized():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.eye(DEFAULT_SIZE_CAP + 1))


def _with_asymmetry(a, d):
    # A[0, 1] = d against A[1, 0] = 0: an asymmetry of exactly |d|
    m = np.array(a, dtype=float)
    m[0, 1], m[1, 0] = d, 0.0
    return m


def _accepted(m):
    try:
        eigenvalues_symmetric(m)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("largest", [4.0, -4.0, 3e7, -2.5e-20])
def test_symmetry_check_edge_is_relative_to_largest_magnitude(largest):
    a = np.diag([0.5 * largest, 0.0, largest])
    edge = 1e-10 * abs(largest)
    assert _accepted(_with_asymmetry(a, edge))
    assert _accepted(_with_asymmetry(a, -np.nextafter(edge, 0)))
    assert not _accepted(_with_asymmetry(a, np.nextafter(edge, np.inf)))
    assert not _accepted(_with_asymmetry(a, -np.nextafter(edge, np.inf)))


def test_symmetry_check_on_zero_and_integer_matrices():
    # the all-zero matrix has scale 0, which falls back to 1.0
    assert eigenvalues_symmetric(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]
    # an int matrix is checked as floats, at tolerance 1e-10 * 10**11 = 10.0
    big = 10**11
    assert eigenvalues_symmetric(np.array([[big, 10], [0, 1]])).dtype == float
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[big, 11], [0, 1]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize(
    "entries",
    [{(0, 1): np.nan, (0, 2): 5.0}, {(0, 0): np.nan}, {(1, 2): np.inf, (2, 1): np.inf}],
    ids=["nan-beside-asymmetry", "nan-on-diagonal", "inf"],
)
def test_symmetry_check_rejects_non_finite_input(entries):
    # a NaN makes both maxima NaN and NaN > NaN is false, so the asymmetry
    # test alone would pass it on to LAPACK, which reads one triangle only
    m = np.eye(3)
    for ij, value in entries.items():
        m[ij] = value
    with pytest.raises(FloatingPointError):
        eigenvalues_symmetric(m)


def test_eigenvalues_symmetric_allocates_one_scratch_matrix():
    n = 256
    m = _random_symmetric(n, np.random.default_rng(6))
    assert traced_peak_bytes(lambda: eigenvalues_symmetric(m)) <= 1.3 * n * n * 8


def test_oversized_matrix_is_rejected_before_any_scratch_buffer():
    n = DEFAULT_SIZE_CAP + 1
    m = np.eye(n)

    def rejected():
        with pytest.raises(ValueError, match="exceeds cap"):
            eigenvalues_symmetric(m)

    assert traced_peak_bytes(rejected) < 0.01 * n * n * 8


def test_sum_report_allocates_only_the_sum_and_one_summand():
    # A + B is formed in A's buffer; B and the check's scratch are freed in turn
    n = 256
    kind_t, kind_h = LinkKind.TOEPLITZ, LinkKind.HANKEL
    peak = traced_peak_bytes(lambda: sum_lsd_report(kind_t, kind_h, n, GAUSS, 1, seed=2))
    assert peak <= 3.3 * n * n * 8


def test_moment_esd_agreement():
    rng = np.random.default_rng(3)
    m = _random_symmetric(48, rng)
    eigs = eigenvalues_symmetric(m)
    power = np.eye(48)
    for k in range(1, 7):
        power = power @ m
        trace_moment = np.trace(power) / 48
        eig_moment = (eigs**k).mean()
        assert trace_moment == pytest.approx(eig_moment, rel=1e-6)


def test_esd_examples():
    # the 50 bins widen by 1 % of the span on each side: [-1.02, 1.02) in steps of 0.0408
    h = esd(np.array([-1.0, -1.0, 1.0, 1.0]))
    widths = np.diff(h.edges)
    assert np.allclose(h.edges, np.linspace(-1.02, 1.02, 51))
    assert h.counts.tolist() == [2] + [0] * 48 + [2]
    assert np.allclose(h.density, h.counts / (4 * 0.0408))
    assert (h.density * widths).sum() == pytest.approx(1.0, abs=1e-12)
    assert h.counts.sum() == 4


def test_esd_density_normalization_random():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(257)
    h = esd(values)
    span = values.max() - values.min()
    assert len(h.counts) == 50
    assert h.edges[[0, -1]] == pytest.approx([values.min() - 0.01 * span, values.max() + 0.01 * span], abs=1e-12)
    assert (h.density * np.diff(h.edges)).sum() == pytest.approx(1.0, abs=1e-12)
    assert h.counts.sum() == 257


def test_wigner_semicircle_support():
    m = sample_matrix(LinkKind.WIGNER, 512, GAUSS, substream(4, 0, LinkKind.WIGNER, 1))
    eigs = eigenvalues_symmetric(m / np.sqrt(512))
    outside = np.mean((eigs < -2.2) | (eigs > 2.2))
    assert outside <= 0.02


def test_polynomial_moment_stabilization():
    # m2/m4 of T+H drift by o(1) between n=256 and n=512 (trace route);
    # relative 10% bound, since m4 sits near 10 with per-rep noise ~1.6
    moments = {}
    for n in (256, 512):
        m2s, m4s = [], []
        for rep in range(24):
            t = sample_matrix(LinkKind.TOEPLITZ, n, GAUSS, substream(21, rep, LinkKind.TOEPLITZ, 1))
            h = sample_matrix(LinkKind.HANKEL, n, GAUSS, substream(21, rep, LinkKind.HANKEL, 1))
            m = (t + h) / np.sqrt(n)
            m2 = np.trace(m @ m) / n
            m4 = np.trace(np.linalg.matrix_power(m, 4)) / n
            m2s.append(m2)
            m4s.append(m4)
        moments[n] = (np.mean(m2s), np.mean(m4s))
    assert abs(moments[256][0] - moments[512][0]) <= 0.1 * moments[512][0]
    assert abs(moments[256][1] - moments[512][1]) <= 0.1 * moments[512][1]


def test_sum_report_fields():
    rep = sum_lsd_report(LinkKind.TOEPLITZ, LinkKind.HANKEL, 128, GAUSS, 4, seed=3)
    assert len(rep.beta) == 6
    assert rep.beta[1] == pytest.approx(2.0, abs=0.3)
    assert isinstance(rep.histogram, Histogram)


def test_sum_report_equal_kinds_use_two_copies():
    rep = sum_lsd_report(LinkKind.TOEPLITZ, LinkKind.TOEPLITZ, 128, GAUSS, 4, seed=3)
    # two independent copies: beta_2 -> 2, not 4
    assert rep.beta[1] == pytest.approx(2.0, abs=0.35)


@pytest.mark.parametrize("dist", list(InputDistribution), ids=lambda d: d.value)
@pytest.mark.parametrize("a,b", ["RS", "SR", "RR", "SS"])
def test_fourier_sum_eigenvalues_equal_dense_solves(a, b, dist):
    kind_a, kind_b = LinkKind.from_char(a), LinkKind.from_char(b)
    idx_b = 2 if a == b else 1
    for n in (1, 2, 3, 4, 5, 64, 65):
        got = _fourier_sum_eigenvalues(
            ((kind_a, substream(5, n, kind_a, 1)), (kind_b, substream(5, n, kind_b, idx_b))), n, dist
        )
        dense = sample_matrix_reference(kind_a, n, dist, substream(5, n, kind_a, 1))
        dense += sample_matrix_reference(kind_b, n, dist, substream(5, n, kind_b, idx_b))
        dense /= np.sqrt(n)
        scale = max(np.abs(dense).max(), 1.0)
        assert got.shape == (n,) and np.all(np.diff(got) >= 0)
        assert np.abs(got - np.linalg.eigvalsh(dense)).max() <= 1e-12 * scale, n
        if n <= 5:
            assert np.abs(got - jacobi_eigenvalues(dense)).max() <= 1e-9 * scale, n
