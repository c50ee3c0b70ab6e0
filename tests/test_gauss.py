import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bayesgram.gauss import (Gaussian, cosine, cosine_rows, fold, kl_bounds, kl_divergence,
                             kl_parts, kl_rows, log_density, log_density_rows, log_det_cov)
from bayesgram.oracles import kl_quadrature_oracle
from bayesgram.serialize import EmbeddingView


def g(mean, log_var):
    return Gaussian(np.asarray(mean, dtype=float), np.asarray(log_var, dtype=float))


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = g([0.0], 0.0)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift(self):
        # closed form and quadrature both give 1/2
        p = g([0.0], 0.0)
        q = g([1.0], 0.0)
        assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-12)
        assert kl_divergence(p, q) == pytest.approx(
            kl_quadrature_oracle(p, q, 64), abs=1e-8)

    def test_variance_four_vs_one(self):
        p = g([0.0], np.log(4.0))
        q = g([0.0], 0.0)
        # 1-D form: log(s2/s1) + (s1^2 + (mu1-mu2)^2)/(2 s2^2) - 1/2
        by_hand = np.log(1.0 / 2.0) + (4.0 + 0.0) / 2.0 - 0.5
        assert kl_divergence(p, q) == pytest.approx(by_hand, abs=1e-12)
        assert kl_divergence(p, q) == pytest.approx(0.8068528, abs=1e-6)
        assert kl_divergence(p, q) == pytest.approx(
            kl_quadrature_oracle(p, q, 64), abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kl_divergence(g([0.0], 0.0), g([0.0, 0.0], 0.0))

    def test_non_negativity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10000):
            d = int(rng.integers(1, 6))
            p = g(rng.normal(size=d), rng.normal(size=d))
            q = g(rng.normal(size=d), rng.normal(size=d))
            assert kl_divergence(p, q) >= -1e-12

    def test_asymmetry_witness(self):
        p = g([0.0], np.log(2.0))
        q = g([1.0], np.log(0.5))
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_quadrature_equivalence_2d(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = g(rng.normal(size=2), rng.normal(scale=0.5, size=2))
            q = g(rng.normal(size=2), rng.normal(scale=0.5, size=2))
            assert kl_divergence(p, q) == pytest.approx(
                kl_quadrature_oracle(p, q, 64), abs=1e-6)


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        assert log_density(g([0.0], 0.0), [0.0]) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_at_mean_quadratic_term_vanishes(self):
        gg = g([1.0, -2.0, 3.0], [0.1, -0.4, 0.7])
        expect = -0.5 * np.sum(np.log(2 * np.pi) + np.array([0.1, -0.4, 0.7]))
        assert log_density(gg, gg.mean) == pytest.approx(expect, abs=1e-12)

    def test_hand_value(self):
        # N(1, 4) at z = 3: -0.5 log(8 pi) - 0.5
        gg = g([1.0], np.log(4.0))
        assert log_density(gg, [3.0]) == pytest.approx(
            -0.5 * np.log(8 * np.pi) - 0.5, abs=1e-12)

    def test_normalization_1d(self):
        gg = g([0.7], np.log(1.9))
        zs = np.linspace(-20, 20, 20001)
        total = np.trapezoid([np.exp(log_density(gg, [z])) for z in zs], zs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_normalization_2d(self):
        gg = g([0.2, -0.3], [np.log(0.8), np.log(1.4)])
        zs = np.linspace(-10, 10, 301)
        vals = np.array([[np.exp(log_density(gg, [x, y])) for y in zs] for x in zs])
        total = np.trapezoid(np.trapezoid(vals, zs, axis=1), zs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            log_density(g([0.0], 0.0), [0.0, 1.0])


class TestCosine:
    def test_self_and_negation(self):
        x = np.array([1.0, -2.0, 0.5])
        assert cosine(x, x) == pytest.approx(1.0)
        assert cosine(x, -x) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            np.sqrt(0.5), abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="undefined cosine"):
            cosine([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("d", [1, 5, 100, 101])
    def test_one_cosine_per_row(self, d):
        """A row's cosine has the same bits alone, in any block, and broadcast
        as add_mult_baseline broadcasts candidates against a table."""
        rng = np.random.default_rng(d)
        u, v = rng.normal(size=(2, 14, d))
        alone = np.array([cosine_rows(u[i], v[i]) for i in range(14)])
        for n in (1, 3, 7):
            blocks = np.concatenate([cosine_rows(u[lo:lo + n], v[lo:lo + n])
                                     for lo in range(0, 14, n)])
            assert blocks.tobytes() == alone.tobytes()
        table = cosine_rows(u[:5, None, :], v)             # (C, 1, d) against (R, d)
        pairs = np.array([[cosine_rows(a, b) for b in v] for a in u[:5]])
        assert table.shape == (5, 14) and table.tobytes() == pairs.tobytes()
        assert np.diagonal(table).tobytes() == alone[:5].tobytes()
        nu, nv = np.sqrt(np.sum(u * u, axis=-1)), np.sqrt(np.sum(v * v, axis=-1))
        summed = np.clip(np.sum(u * v, axis=-1) / (nu * nv), -1.0, 1.0)   # the sum form
        np.testing.assert_allclose(alone, summed, rtol=1e-12, atol=0)


class TestLogDetCov:
    def test_unit_spherical(self):
        assert log_det_cov(Gaussian(np.zeros(100), np.float64(0.0))) == 0.0

    def test_diagonal(self):
        assert log_det_cov(g([0.0, 0.0], [0.0, np.log(4.0)])) == pytest.approx(
            np.log(4.0), abs=1e-12)

    def test_variance_scaling(self):
        gg = g([0.0] * 3, [0.1, 0.2, 0.3])
        c = 2.5
        scaled = g([0.0] * 3, np.array([0.1, 0.2, 0.3]) + np.log(c))
        assert log_det_cov(scaled) == pytest.approx(
            log_det_cov(gg) + 3 * np.log(c), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_spherical_matches_diagonal(d, seed):
    # a spherical Gaussian rewritten as an equal-entries diagonal must agree
    rng = np.random.default_rng(seed)
    mean = rng.normal(size=d)
    lv = float(rng.normal())
    sph = Gaussian(mean, np.float64(lv))
    diag = Gaussian(mean, np.full(d, lv))
    other = Gaussian(rng.normal(size=d), rng.normal(size=d))
    z = rng.normal(size=d)
    assert abs(kl_divergence(sph, other) - kl_divergence(diag, other)) <= 1e-12
    assert abs(kl_divergence(other, sph) - kl_divergence(other, diag)) <= 1e-12
    assert abs(log_density(sph, z) - log_density(diag, z)) <= 1e-12
    assert abs(log_det_cov(sph) - log_det_cov(diag)) <= 1e-12


@pytest.mark.parametrize("lv_width", [1, 6])
def test_one_kl_value_with_and_without_partials(lv_width):
    # the read path's kl_rows is the training kernel's kl_parts value, bit for
    # bit, at the kernel's broadcast shapes: (B, 1, d) posteriors vs (B, P, d) rows
    rng = np.random.default_rng(lv_width)
    mu1, lv1 = rng.normal(size=(40, 1, 6)), rng.normal(size=(40, 1, lv_width))
    mu2, lv2 = rng.normal(size=(40, 3, 6)), rng.normal(size=(40, 3, lv_width))
    assert np.array_equal(kl_rows(mu1, lv1, mu2, lv2), kl_parts(mu1, lv1, mu2, lv2)[0])
    assert np.array_equal(kl_rows(mu2, lv2, mu1, lv1), kl_parts(mu2, lv2, mu1, lv1)[0])


def kl_formula(mu1, lv1, mu2, lv2, partials=True):
    """The KL, and its partials, as one expression per term, each operation on
    a fresh array: the oracle for the in-place terms of kl_rows and kl_parts."""
    dmu = mu1 - mu2
    inv2 = np.exp(-lv2)
    ratio = np.exp(lv1 - lv2)
    mahal = dmu * dmu * inv2
    val = 0.5 * np.sum(ratio + mahal - 1.0 + lv2 - lv1, axis=-1)
    if not partials:
        return val
    d = dmu.shape[-1]
    return (val, dmu * inv2, fold(0.5 * (ratio - 1.0), lv1, d),
            fold(0.5 * (1.0 - ratio - mahal), lv2, d))


@st.composite
def kl_inputs(draw):
    """(mu1, lv1, mu2, lv2): means (..., d), log-variances (..., 1) or (..., d)
    in [-30, 30], with leading axes of any broadcastable count and size."""
    d = draw(st.integers(1, 5))
    lead = draw(hnp.mutually_broadcastable_shapes(num_shapes=4, max_dims=3,
                                                  max_side=3)).input_shapes
    widths = (d, draw(st.sampled_from([1, d])), d, draw(st.sampled_from([1, d])))
    return tuple(draw(hnp.arrays(np.float64, s + (w,), elements=st.floats(-b, b)))
                 for s, w, b in zip(lead, widths, (10.0, 30.0, 10.0, 30.0)))


def outcome(f, args):
    """f(*args) and the RuntimeWarnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="warn", under="ignore"):
            got = f(*args)
    return got, [(w.category, str(w.message)) for w in caught]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(kl_inputs())
@example((np.zeros(3), np.zeros(1), np.ones(3),         # lv2 has more leading axes than
          np.linspace(-2.0, 2.0, 12).reshape(2, 2, 3)))  # the means, and widens mahal
@example((np.zeros((2, 3)), np.array([[800.0], [-800.0]]), np.zeros((1, 3)),
          np.array([-800.0, 0.0, 800.0])))              # inf and NaN terms, with warnings
def test_in_place_kl_terms_match_the_formula(args):
    want, want_warned = outcome(kl_formula, args)
    got, warned = outcome(kl_parts, args)
    assert warned == want_warned
    assert [same_bits(a, b) for a, b in zip(got, want)] == [True] * 4
    want, want_warned = outcome(lambda *a: kl_formula(*a, partials=False), args)
    got, warned = outcome(kl_rows, args)
    assert warned == want_warned and same_bits(got, want)


@st.composite
def bound_tables(draw):
    """(query mean, query log-variance, means, log-variances, block rows) of a finite
    float32 or float64 table, the query its row 0: means uniform in +-1e3 times a drawn
    scale, log-variances uniform in +-700 times another, then up to six entries set to
    +-700 or +-800; V from 1 to 12, d from 1 to 101, spherical or diagonal."""
    V, d = draw(st.integers(1, 12)), draw(st.integers(1, 101))
    w, dtype = draw(st.sampled_from([1, d])), draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mean = rng.uniform(-1e3, 1e3, (V, d)) * draw(st.sampled_from([1e-3, 0.1, 1.0]))
    lv = rng.uniform(-700.0, 700.0, (V, w)) * draw(st.sampled_from([1e-3, 0.1, 0.5, 1.0]))
    for _ in range(draw(st.integers(0, 6))):
        lv[draw(st.integers(0, V - 1)), draw(st.integers(0, w - 1))] = draw(
            st.sampled_from([-800.0, -700.0, 700.0, 800.0]))
    mean, lv = mean.astype(dtype), lv.astype(dtype)
    q_mu, q_lv = (t[:1].astype(np.float64) for t in (mean, lv))
    return q_mu, q_lv, mean, lv, draw(st.integers(1, V))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bound_tables())
def test_kl_bounds_hold_or_the_row_is_unsure(case):
    """Each row's (lo, hi) is (-inf, inf), or holds the bits kl_rows gives the row, for
    any split into blocks (the first, longest one tiles the query)."""
    q_mu, q_lv, mean, lv, n = case
    blocks = [(slice(i, i + n), (mean[i:i + n], lv[i:i + n])) for i in range(0, len(mean), n)]
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = kl_bounds(q_mu, q_lv, blocks, len(mean), {})
        kl = kl_rows(q_mu, q_lv, mean.astype(np.float64), lv.astype(np.float64))
    unsure = (lo == -np.inf) & (hi == np.inf)
    assert (unsure | ((lo <= kl) & (kl <= hi))).all()


def test_kl_bounds_are_unsure_exactly_past_1e300_or_not_finite():
    """A KL that overflows, is NaN, or passes 1e300 leaves its row unsure; a KL
    near 1e-3 or 1e299 gets a finite bound around it."""
    mu = np.zeros((5, 1))
    lv = np.array([[0.0], [-691.0], [-700.0], [-800.0], [np.nan]])   # 2K ~ e^(-lv2)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = kl_bounds(mu[:1], np.zeros((1, 1)), [(slice(0, 5), (mu, lv))], 5, {})
        kl = kl_rows(mu[:1], np.zeros((1, 1)), mu, lv)
    assert np.isfinite(lo[:2]).all() and np.isfinite(hi[:2]).all()
    assert (lo[:2] <= kl[:2]).all() and (kl[:2] <= hi[:2]).all()
    assert (lo[2:] == -np.inf).all() and (hi[2:] == np.inf).all()


@st.composite
def in_range_tables(draw):
    """(query mean, query log-variance, means, log-variances, block rows) of a float32 or
    float64 table inside kl_bounds's range and a query of the same dtype: means uniform in
    +-1e3 and log-variances in +-20, each times a drawn scale; then up to V rows the query's
    with each mean moved by up to 4 ulps (near-zero KLs, found by cancellation), and up to
    four log-variances set to L - 1 in a row (e^-lv near the least normal) or to 1 - L in the
    query, L = log(1/4 t), t the dtype's least normal; V from 1 to 12, d from 1 to 101."""
    V, d = draw(st.integers(1, 12)), draw(st.integers(1, 101))
    w, dtype = draw(st.sampled_from([1, d])), draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mean = (rng.uniform(-1e3, 1e3, (V + 1, d)) * draw(st.sampled_from([1e-3, 1.0]))).astype(dtype)
    lv = (rng.uniform(-20.0, 20.0, (V + 1, w)) * draw(st.sampled_from([1e-3, 0.1, 1.0]))).astype(
        dtype)
    near = draw(st.integers(0, V))
    mean[1:near + 1] = mean[0] + rng.integers(-4, 5, (near, d)) * np.spacing(mean[0])
    lv[1:near + 1] = lv[0]
    L = np.log(0.25 / np.finfo(dtype).tiny)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, V))
        lv[i, draw(st.integers(0, w - 1))] = 1 - L if i == 0 else L - 1
    return mean[:1].astype(np.float64), lv[:1].astype(np.float64), mean[1:], lv[1:], draw(
        st.integers(1, V))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(in_range_tables())
def test_kl_bounds_in_range_are_sure_and_hold(case):
    """Inside the range no row is unsure, and each row's (lo, hi) holds kl_rows's bits."""
    q_mu, q_lv, mean, lv, n = case
    blocks = [(slice(i, i + n), (mean[i:i + n], lv[i:i + n])) for i in range(0, len(mean), n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = kl_bounds(q_mu, q_lv, blocks, len(mean), {})
    kl = kl_rows(q_mu, q_lv, mean.astype(np.float64), lv.astype(np.float64))
    assert ((lo <= kl) & (kl <= hi)).all()


def table_bounds(q_mu, q_lv, mean, lv, n):
    """kl_bounds over a view's kl_tables of (mean, lv), with the sums a pass by blocks of n
    rows filled, as nearest's second and later queries run it."""
    blocks = [(slice(i, i + n), (mean[i:i + n], lv[i:i + n])) for i in range(0, len(mean), n)]
    sums = {}
    kl_bounds(q_mu, q_lv, blocks, len(mean), sums)
    return kl_bounds(q_mu, q_lv, blocks, len(mean), sums, EmbeddingView(None, mean, lv).kl_tables)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bound_tables())
def test_kl_bounds_on_the_tables_hold_or_the_row_is_unsure(case):
    """As test_kl_bounds_hold_or_the_row_is_unsure, through the tables."""
    q_mu, q_lv, mean, lv, n = case
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = table_bounds(q_mu, q_lv, mean, lv, n)
        kl = kl_rows(q_mu, q_lv, mean.astype(np.float64), lv.astype(np.float64))
    unsure = (lo == -np.inf) & (hi == np.inf)
    assert (unsure | ((lo <= kl) & (kl <= hi))).all()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(in_range_tables())
def test_kl_bounds_on_the_tables_in_range_are_sure_and_hold(case):
    """As test_kl_bounds_in_range_are_sure_and_hold, through the tables."""
    q_mu, q_lv, mean, lv, n = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = table_bounds(q_mu, q_lv, mean, lv, n)
    kl = kl_rows(q_mu, q_lv, mean.astype(np.float64), lv.astype(np.float64))
    assert ((lo <= kl) & (kl <= hi)).all()


def test_log_density_rows_spherical_column():
    # a (..., 1) log-variance is spherical, as in the ELBO's decoder scores
    rng = np.random.default_rng(3)
    mu, lv, z = rng.normal(size=(7, 4)), rng.normal(size=(7, 1)), rng.normal(size=(5, 1, 4))
    got = log_density_rows(mu, lv, z)
    assert got.shape == (5, 7)
    want = [[log_density(Gaussian(mu[v], lv[v, 0]), z[n, 0]) for v in range(7)]
            for n in range(5)]
    assert np.array_equal(got, want)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Gaussian(np.array([np.nan]), np.float64(0.0))
    with pytest.raises(ValueError):
        Gaussian(np.array([0.0]), np.array([0.0, 1.0]))
