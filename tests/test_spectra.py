from fractions import Fraction

import numpy as np
import pytest

from oracles import JacobiConvergenceError, determinant_exact, jacobi_eigenvalues
from patrm.linkfns import LinkKind
from patrm.sampler import InputDistribution, sample_matrix, substream
from patrm.spectra import DEFAULT_SIZE_CAP, Histogram, eigenvalues_symmetric, esd, sum_lsd_report

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
    # bins widen by 1 % of the span on each side: [-1.02, 0) and [0, 1.02)
    h = esd(np.array([-1.0, -1.0, 1.0, 1.0]), bins=2)
    widths = np.diff(h.edges)
    assert np.allclose(h.edges, [-1.02, 0.0, 1.02])
    assert np.allclose(h.density, [0.5 / 1.02, 0.5 / 1.02])
    assert (h.density * widths).sum() == pytest.approx(1.0, abs=1e-12)
    assert h.total == 4


def test_esd_density_normalization_random():
    rng = np.random.default_rng(0)
    h = esd(rng.standard_normal(257), bins=31)
    assert (h.density * np.diff(h.edges)).sum() == pytest.approx(1.0, abs=1e-12)


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
    assert rep.n == 128 and rep.reps == 4
    assert len(rep.beta) == 6
    assert rep.beta[1] == pytest.approx(2.0, abs=0.3)
    assert isinstance(rep.histogram, Histogram)
    d = rep.to_json_dict()
    assert d["a"] == "T" and d["b"] == "H"


def test_sum_report_equal_kinds_use_two_copies():
    rep = sum_lsd_report(LinkKind.TOEPLITZ, LinkKind.TOEPLITZ, 128, GAUSS, 4, seed=3)
    # two independent copies: beta_2 -> 2, not 4
    assert rep.beta[1] == pytest.approx(2.0, abs=0.35)
