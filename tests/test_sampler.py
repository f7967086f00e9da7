import numpy as np
import pytest

from oracles import sample_matrix_reference, trace_moment_reference, traced_peak_bytes
from patrm.algebra import parse_monomial
from patrm.limits import alpha
from patrm.linkfns import ALL_KINDS, LinkKind, lvalue_key_grid
from patrm.sampler import (
    InputDistribution,
    empirical_trace_moment,
    sample_matrix,
    seed_sequence,
    substream,
    trace_moment_samples,
)

GAUSS = InputDistribution.GAUSSIAN


def test_pattern_examples():
    t = sample_matrix(LinkKind.TOEPLITZ, 4, GAUSS, substream(0, 0, LinkKind.TOEPLITZ, 1))
    assert t[0, 2] == t[1, 3]
    r = sample_matrix(LinkKind.REVERSE_CIRCULANT, 4, GAUSS, substream(0, 0, LinkKind.REVERSE_CIRCULANT, 1))
    assert r[0, 1] == r[3, 2]
    w = sample_matrix(LinkKind.WIGNER, 3, GAUSS, substream(0, 0, LinkKind.WIGNER, 1))
    upper = w[np.triu_indices(3)]
    assert len(set(upper.tolist())) == 6  # six independent draws


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", range(1, 33))
def test_pattern_invariant_exhaustive(kind, n):
    m = sample_matrix(kind, n, GAUSS, substream(1, 0, kind, 1))
    assert np.array_equal(m, m.T)
    size, keys = lvalue_key_grid(kind, n)
    by_key = {}
    for key, val in zip(keys.ravel().tolist(), m.ravel().tolist()):
        by_key.setdefault(key, set()).add(val)
    assert all(len(vals) == 1 for vals in by_key.values())
    # the slot encoding is dense: one draw per slot, every slot used
    assert np.array_equal(np.unique(keys), np.arange(size))


def test_determinism_bit_for_bit():
    a = empirical_trace_moment(parse_monomial("THTH"), 60, GAUSS, 5, seed=42)
    b = empirical_trace_moment(parse_monomial("THTH"), 60, GAUSS, 5, seed=42)
    assert a == b
    c = empirical_trace_moment(parse_monomial("THTH"), 60, GAUSS, 5, seed=43)
    assert a.mean != c.mean


def test_seed_sequence_is_the_plain_list_entropy():
    # one 32-bit word per key entry, after the seed mod 2^64 in one or two words
    for seed in (0, 21, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**40)):
        for key in [(), (0,), (3, 1, 2), (8, 0, 1, 2, 3, 0, 3, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2, 5)]:
            want = np.random.SeedSequence([seed % 2**64, *key]).generate_state(4)
            assert seed_sequence(seed, *key).generate_state(4).tolist() == want.tolist(), (seed, key)


def test_input_distributions_are_standardized():
    rng = np.random.default_rng(0)
    for dist in InputDistribution:
        x = dist.draw(rng, 200000)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02


def test_second_moment_is_one():
    for kind in ALL_KINDS:
        q = parse_monomial(kind.char * 2)
        est = empirical_trace_moment(q, 500, GAUSS, 50, seed=9)
        assert est.mean == pytest.approx(1.0, abs=0.1)


def test_moment_examples_match_limits():
    est = empirical_trace_moment(parse_monomial("THTH"), 400, GAUSS, 100, seed=5)
    assert est.mean == pytest.approx(2 / 3, abs=0.05)
    est = empirical_trace_moment(parse_monomial("WTWT"), 400, GAUSS, 100, seed=5)
    assert est.mean == pytest.approx(
        alpha(parse_monomial("WTWT"), "exact"), abs=0.05
    )


def test_distribution_freeness_of_limits():
    # the limit does not depend on the input law
    reps = 60
    for q_text in ("THTH", "TTHH", "WWTT"):
        q = parse_monomial(q_text)
        ests = [
            empirical_trace_moment(q, 400, dist, reps, seed=31)
            for dist in InputDistribution
        ]
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            ea, eb = ests[a], ests[b]
            combined = np.hypot(ea.stddev / np.sqrt(reps), eb.stddev / np.sqrt(reps))
            assert abs(ea.mean - eb.mean) <= 3 * combined


def test_variance_concentrates_with_n():
    lo = empirical_trace_moment(parse_monomial("THTH"), 100, GAUSS, 200, seed=17)
    hi = empirical_trace_moment(parse_monomial("THTH"), 400, GAUSS, 200, seed=17)
    assert hi.stddev <= 0.6 * lo.stddev


def test_trace_moment_samples_shape_and_consistency():
    vals = trace_moment_samples(parse_monomial("TT"), 100, GAUSS, 7, seed=2)
    assert vals.shape == (7,)
    est = empirical_trace_moment(parse_monomial("TT"), 100, GAUSS, 7, seed=2)
    assert est.mean == pytest.approx(float(vals.mean()))
    assert est.stddev == pytest.approx(float(vals.std(ddof=1)))


def test_single_letter_monomial_trace():
    vals = trace_moment_samples(parse_monomial("T"), 64, GAUSS, 3, seed=1)
    assert np.all(np.isfinite(vals))


def test_shared_copies_within_replicate():
    # W1 T1 W1 T1 uses one Wigner and one Toeplitz matrix per replicate;
    # its moment differs from the four-distinct-copies version
    est_same = empirical_trace_moment(parse_monomial("W1T1W1T1"), 200, GAUSS, 60, seed=3)
    est_diff = empirical_trace_moment(parse_monomial("W1T1W2T2"), 200, GAUSS, 60, seed=3)
    assert est_same.mean == pytest.approx(0.0, abs=0.08)
    assert est_diff.mean == pytest.approx(0.0, abs=0.08)


@pytest.mark.parametrize("dist", list(InputDistribution), ids=lambda d: d.value)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.char)
def test_sample_matrix_equals_key_grid_gather(kind, dist):
    for n in [*range(1, 34), 255, 256, 800, 1000]:
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        m = sample_matrix(kind, n, dist, rng)
        ref = sample_matrix_reference(kind, n, dist, ref_rng)
        assert m.shape == (n, n) and m.flags.c_contiguous
        assert m.tobytes() == ref.tobytes(), n
        # both consumed the same number of draws
        assert rng.random() == ref_rng.random(), n


@pytest.mark.parametrize("dist", list(InputDistribution), ids=lambda d: d.value)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.char)
def test_sample_matrix_fills_out_with_the_same_bytes(kind, dist):
    for n in (1, 2, 5, 64, 65):
        buf = np.full((n, n), np.nan)
        got = sample_matrix(kind, n, dist, np.random.default_rng(n), out=buf)
        assert got is buf
        assert buf.tobytes() == sample_matrix(kind, n, dist, np.random.default_rng(n)).tobytes(), n
    for bad in (np.empty((5, 6)), np.empty((6, 6)), np.empty((5, 5), dtype=np.float32)):
        with pytest.raises(ValueError):
            sample_matrix(kind, 5, dist, np.random.default_rng(0), out=bad)


def test_wigner_fill_allocates_no_key_grid():
    # the n(n+1)/2 draws and the output: no n x n int64 grid and no gather
    n = 256
    peak = traced_peak_bytes(lambda: sample_matrix(LinkKind.WIGNER, n, GAUSS, np.random.default_rng(3)))
    assert peak <= 1.6 * n * n * 8


# word -> dense products per replicate: matching halves need one half product, and
# words of R and S letters alone are traced in the Fourier basis with none
CONTRACTION_PRODUCTS = {
    "T": 0,
    "TT": 0,
    "THT": 1,
    "THTH": 1,
    "HHHH": 1,
    "S1S2S1S2": 0,
    "RRSS": 0,
    "THHT": 1,
    "W1T1W2T1": 2,
    "TTHTH": 3,
    "W1T1W2T2HH": 4,
}


# word -> traced peak of one call at n = 256, reps = 3, in n x n float64 arrays: the
# live letters and products, the contraction's output and a Wigner draw vector; an
# R/S word holds only length-n vectors, its letters' spectra and the mode weights
LIVE_MATRIX_PEAKS = {
    "T": 1.2,
    "TT": 2.3,
    "THT": 3.3,
    "THTH": 3.3,
    "S1S2S1S2": 0.04,
    "RRSS": 0.04,
    "THHT": 3.3,
    "HHHH": 2.3,
    "TTHTH": 4.3,
    "W1T1W2T1": 4.7,
    "W1T1W2T2HH": 4.7,
    "W1W2W3W4T1T2T3T4": 4.7,
}


@pytest.mark.parametrize("text", sorted(LIVE_MATRIX_PEAKS))
def test_trace_moment_samples_holds_only_live_matrices(text):
    n = 256
    q = parse_monomial(text)
    peak = traced_peak_bytes(lambda: trace_moment_samples(q, n, GAUSS, 3, 1))
    assert peak <= LIVE_MATRIX_PEAKS[text] * n * n * 8


@pytest.mark.parametrize("seed", [4, 29])
@pytest.mark.parametrize("dist", list(InputDistribution), ids=lambda d: d.value)
@pytest.mark.parametrize("text", sorted(CONTRACTION_PRODUCTS))
def test_trace_moment_samples_equals_product_chain(text, dist, seed):
    q = parse_monomial(text)
    got = trace_moment_samples(q, 24, dist, 3, seed)
    ref = trace_moment_reference(q, 24, dist, 3, seed)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
    if len(q) <= 2:
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
@pytest.mark.parametrize("dist", list(InputDistribution), ids=lambda d: d.value)
@pytest.mark.parametrize(
    "text", ["R", "S", "RR", "RSR", "RRR", "R1R2", "R1R2R3S1", "RRSS", "S1S2S1S2", "R1S1R2S2R1S1"]
)
def test_fourier_traces_equal_product_chain(text, dist, n):
    # odd R counts return only the modes m = -m; copies and a single letter included
    q = parse_monomial(text)
    got = trace_moment_samples(q, n, dist, 3, 12)
    ref = trace_moment_reference(q, n, dist, 3, 12)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("text", sorted(CONTRACTION_PRODUCTS))
def test_trace_moment_samples_product_count(monkeypatch, text):
    calls = []

    def counting_matmul(a, b, out=None):
        calls.append(1)
        if out is None:
            return a @ b
        out[...] = a @ b
        return out

    monkeypatch.setattr(np, "matmul", counting_matmul)
    trace_moment_samples(parse_monomial(text), 8, GAUSS, 2, 0)
    assert len(calls) == 2 * CONTRACTION_PRODUCTS[text]


@pytest.mark.parametrize("dist", list(InputDistribution), ids=lambda d: d.value)
@pytest.mark.parametrize("n", [1, 2, 5, 64, 65])
def test_circulant_copies_commute_and_reverse_circulant_triples_reverse(n, dist):
    # at every n: circulants commute, and R1 R2 is circulant, so R1 R2 R3 is
    # reverse circulant, hence symmetric, hence equal to its transpose R3 R2 R1
    def copy(kind, index):
        return sample_matrix(kind, n, dist, substream(8, 0, kind, index))

    s1, s2 = (copy(LinkKind.SYMMETRIC_CIRCULANT, i) for i in (1, 2))
    r1, r2, r3 = (copy(LinkKind.REVERSE_CIRCULANT, i) for i in (1, 2, 3))
    for a, b in ((s1 @ s2, s2 @ s1), (r1 @ r2 @ r3, r3 @ r2 @ r1)):
        if dist is InputDistribution.RADEMACHER:
            # integer entries well below 2^53: every product is exact
            assert np.array_equal(a, b)
        else:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
