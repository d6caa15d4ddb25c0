"""Dense primitive tests: normalization, covariance, spectra, cosines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import linalg
from gaplab.linalg import (
    EmbeddingMatrix,
    PairedEmbeddings,
    SpectralSummary,
    covariance,
    l2_normalize_rows,
    mean_pairwise_cosine,
    spectral_summary,
)


def jacobi_eigenvalues(a, sweeps=100, tol=1e-14):
    """Cyclic Jacobi rotations; an eigensolver independent of LAPACK."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt((a**2).sum() - (np.diag(a) ** 2).sum())
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestNormalize:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], rtol=0, atol=1e-15)
        assert out.unit_norm

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        once = l2_normalize_rows(rng.standard_normal((40, 9)))
        twice = l2_normalize_rows(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-12)

    def test_zero_row_rejected_with_index(self):
        m = np.ones((4, 3))
        m[2] = 0.0
        with pytest.raises(ValueError, match="index 2"):
            l2_normalize_rows(m)

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((20, 5)) * 10
        out = l2_normalize_rows(m).values
        cos = np.einsum("ij,ij->i", out, m) / np.linalg.norm(m, axis=1)
        np.testing.assert_allclose(cos, 1.0, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unit_norm_property(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((8, 6)) * rng.uniform(0.1, 100)
        norms = np.linalg.norm(l2_normalize_rows(m).values, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12


def counted(monkeypatch, name):
    """The shapes ``linalg.<name>`` is called with from now on, in order."""
    calls = []
    fn = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda m: calls.append(m.shape) or fn(m))
    return calls


NON_FINITE = "embedding matrix contains non-finite values"


def shape_message(shape):
    return f"embedding matrix must be n x d with n,d >= 1, got shape {shape}"


def norm_message(row, norm):
    return f"unit_norm contract violated at row {row}: norm={np.float64(norm)!r}"


# The messages of EmbeddingMatrix, EmbeddingMatrix(unit_norm=True),
# l2_normalize_rows and _unit_rows_into on each input; None where it passes.
ROW_CHECK_CASES = [
    (np.array([[1.0, 2.0], [np.nan, 1.0]]), [NON_FINITE] * 4),
    (np.array([[1.0, 2.0], [np.inf, 1.0]]), [NON_FINITE] * 4),
    (np.full((3, 4), 1e-160),
     [None, norm_message(0, 1.999988867151698e-160)] + [norm_message(0, 1.0000055664551362)] * 2),
    (np.full((3, 4), 1e155), [None, norm_message(0, np.inf)] + [norm_message(0, 0.0)] * 2),
    (np.array([[0.6, 0.8], [1e200, 1e200]]),
     [None, norm_message(1, np.inf)] + [norm_message(1, 0.0)] * 2),
    (np.ones((0, 4)), [shape_message((0, 4))] * 4),
    (np.ones((2, 0)), [shape_message((2, 0))] * 2 + ["cannot normalize zero row at index 0"] * 2),
    (np.array([[1.0, 2.0], [0.0, 0.0], [np.nan, 1.0]]),
     [NON_FINITE] * 2 + ["cannot normalize zero row at index 1"] * 2),
    (np.array([[3.0, 4.0], [np.nan, 1.0]]), [NON_FINITE] * 4),
    (np.array([[0.6, 0.8], [np.nan, 1.0]]), [NON_FINITE] * 4),
    (np.array([[0.6, 0.8], [1.0, 0.0]]), [None] * 4),
]


class TestCheckRows:
    """``_check_rows`` is the one row check: in band a unit-norm check
    measures the norms once and never scans for non-finite entries; out of
    band the messages and their precedence are the ones pinned here."""

    def test_in_band_measures_once_and_never_scans(self, monkeypatch):
        a = l2_normalize_rows(np.random.default_rng(5).standard_normal((300, 64))).values
        norms, scans = counted(monkeypatch, "_row_norms"), counted(monkeypatch, "_first_nonfinite")
        EmbeddingMatrix(a, unit_norm=True)
        assert (norms, scans) == ([a.shape], [])

    @pytest.mark.parametrize("rows,messages", ROW_CHECK_CASES)
    def test_messages(self, rows, messages):
        checks = [EmbeddingMatrix, lambda a: EmbeddingMatrix(a, unit_norm=True),
                  l2_normalize_rows, lambda a: linalg._unit_rows_into(a, np.empty_like(a))]
        for check, message in zip(checks, messages):
            with np.errstate(over="ignore", invalid="ignore"):
                if message is None:
                    check(rows.copy())
                    continue
                with pytest.raises(ValueError) as err:
                    check(rows.copy())
            assert str(err.value) == message

    def test_one_dimensional_input(self):
        with pytest.raises(ValueError) as err:
            l2_normalize_rows(np.ones(4))
        assert str(err.value) == "expected a 2-d matrix, got shape (4,)"


class TestUnitRowsInto:
    """``_unit_rows_into`` owns the unit-norm contract: in band it proves it
    without measuring again; out of band it raises what
    ``EmbeddingMatrix(out, unit_norm=True)`` raises."""

    @pytest.mark.parametrize("scale", [2.0**-390, 1e-3, 1.0, 1e150])
    def test_in_band_measures_once(self, monkeypatch, scale):
        a = scale * np.random.default_rng(4).standard_normal((300, 64))
        want = l2_normalize_rows(a).values
        calls = counted(monkeypatch, "_row_norms")
        out = np.empty_like(a)
        linalg._unit_rows_into(a, out)
        assert np.array_equal(out, want)
        assert calls == [a.shape]
        calls.clear()
        got = l2_normalize_rows(a)
        assert np.array_equal(got.values, want) and got.unit_norm
        assert calls == [a.shape]
        linalg._unit_rows_into(a, a)
        assert np.array_equal(a, want)

    @pytest.mark.parametrize("rows,message", [
        (np.full((3, 4), 1e-160),
         f"unit_norm contract violated at row 0: norm={np.float64(1.0000055664551362)!r}"),
        (np.full((3, 4), 1e155), f"unit_norm contract violated at row 0: norm={np.float64(0.0)!r}"),
        (np.array([[1.0, 2.0], [np.nan, 1.0]]), "embedding matrix contains non-finite values"),
        (np.array([[1.0, 2.0], [np.inf, 1.0]]), "embedding matrix contains non-finite values"),
        (np.array([[1.0, 2.0], [0.0, 0.0], [np.nan, 1.0]]), "cannot normalize zero row at index 1"),
    ])
    def test_out_of_band_errors_unchanged(self, rows, message):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(rows, axis=1)
            zero = np.flatnonzero(norms == 0.0)
            with pytest.raises(ValueError) as want:
                if zero.size:
                    raise ValueError(f"cannot normalize zero row at index {zero[0]}")
                EmbeddingMatrix(rows / norms[:, None], unit_norm=True)
            with pytest.raises(ValueError) as got:
                linalg._unit_rows_into(rows, np.empty_like(rows))
        assert str(want.value) == message
        assert str(got.value) == message


class TestCovariance:
    def test_constant_rows_zero(self):
        m = np.tile([1.5, -2.0, 0.25], (6, 1))
        np.testing.assert_array_equal(covariance(m), np.zeros((3, 3)))

    def test_two_point_diag(self):
        np.testing.assert_allclose(
            covariance([[1.0, 0.0], [-1.0, 0.0]]), np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((50, 8))
        mean = m.mean(axis=0)
        brute = np.zeros((8, 8))
        for row in m:
            brute += np.outer(row - mean, row - mean)
        brute /= 50
        np.testing.assert_allclose(covariance(m), brute, atol=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((30, 5))
        shifted = m + rng.standard_normal(5) * 100
        np.testing.assert_allclose(covariance(m), covariance(shifted), atol=1e-10)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            covariance([[1.0, 2.0]])

    @staticmethod
    def averaged(m):
        """The covariance averaged with its own transpose, as it once was."""
        a = np.asarray(m, dtype=np.float64)
        centered = a - a.mean(axis=0)
        c = centered.T @ centered / a.shape[0]
        return (c + c.T) / 2.0

    @pytest.mark.parametrize("make", [
        *[lambda rng, s=s: rng.standard_normal(s) * 3.0 + 1.0
          for s in [(1000, 512), (100, 512), (2, 3), (5000, 64), (37, 129), (1000, 1)]],
        lambda rng: rng.standard_normal((300, 200))[::3, 1::2],  # strided, not contiguous
        lambda rng: rng.standard_normal((200, 48)).astype(np.float32),
    ])
    def test_exactly_symmetric_without_averaging(self, make):
        m = make(np.random.default_rng(1))
        c = covariance(m)
        assert np.array_equal(c, c.T)
        assert np.array_equal(c, self.averaged(m))


class TestSpectralSummary:
    def test_four_value_spectrum(self):
        s = spectral_summary(np.diag([4.0, 3.0, 2.0, 1.0]), gamma=0.9)
        assert s.effective_dim == 3
        np.testing.assert_allclose(s.singular_values, [4, 3, 2, 1], atol=1e-12)

    def test_identity_covariance(self):
        s = spectral_summary(np.eye(100), gamma=0.99)
        assert s.effective_dim == 99

    def test_eigenvalues_match_jacobi_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((6, 6))
        c = a @ a.T / 6
        expected = jacobi_eigenvalues(c)
        got = spectral_summary(c, gamma=0.99).singular_values
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(2)
        c = covariance(rng.standard_normal((200, 32)))
        s = spectral_summary(c, 0.99)
        total = s.singular_values.sum()
        assert abs(total - np.trace(c)) <= 1e-8 * abs(np.trace(c))

    def test_rank_k_construction(self):
        rng = np.random.default_rng(13)
        for k in (3, 8):
            q, _ = np.linalg.qr(rng.standard_normal((40, k)))
            m = rng.standard_normal((500, k)) @ q.T + rng.standard_normal(40)
            c = covariance(m)
            for gamma in (0.99, 1.0 - 1e-9):
                assert spectral_summary(c, gamma).effective_dim == k

    @pytest.mark.parametrize("shape", [(1000, 512), (100, 512), (2, 3), (37, 129), (1000, 1)])
    def test_covariance_spectrum_is_its_eigvalsh(self, shape):
        c = covariance(np.random.default_rng(3).standard_normal(shape) * 3.0 + 1.0)
        got = spectral_summary(c, 0.99).singular_values
        assert np.array_equal(got, np.clip(np.linalg.eigvalsh(c)[::-1], 0.0, None))
        # the averaged copy it once decomposed has the same bits
        assert np.array_equal((c + c.T) / 2.0, c)

    def test_rejects_non_symmetric(self):
        c = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_summary(c, 0.99)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral_summary(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.99)

    def test_rejects_zero_spectrum(self):
        with pytest.raises(ValueError, match="zero total"):
            spectral_summary(np.zeros((3, 3)), 0.99)

    @given(st.integers(0, 5_000), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_effective_dim_monotone_in_gamma(self, seed, g1, g2):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6))
        c = a @ a.T
        lo, hi = sorted((g1, g2))
        s_lo = spectral_summary(c, lo)
        s_hi = spectral_summary(c, hi)
        assert 1 <= s_lo.effective_dim <= s_hi.effective_dim <= 6


class TestMeanPairwiseCosine:
    def test_identical_rows(self):
        m = np.tile([1.0, 2.0, 2.0], (5, 1))
        mean, std = mean_pairwise_cosine(m, seed=0)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_standard_basis(self):
        mean, std = mean_pairwise_cosine(np.eye(6), seed=0)
        assert mean == 0.0
        assert std == 0.0

    def test_isotropic_gaussian_near_zero(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((1000, 512))
        mean, _ = mean_pairwise_cosine(m, seed=0)
        # oracle: full enumeration through the Gram matrix
        unit = m / np.linalg.norm(m, axis=1)[:, None]
        gram = unit @ unit.T
        full_mean = gram[np.triu_indices(1000, k=1)].mean()
        assert abs(full_mean) < 0.05
        assert abs(mean - full_mean) < 0.02

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((300, 8))
        assert mean_pairwise_cosine(m, seed=5) == mean_pairwise_cosine(m, seed=5)

    def test_rejects_zero_rows(self):
        m = np.ones((3, 2))
        m[1] = 0.0
        with pytest.raises(ValueError):
            mean_pairwise_cosine(m, seed=0)

    def test_enumerates_every_pair_up_to_the_budget(self):
        # 141 rows give 9,870 pairs, under the 10,000 budget: the seed is unused
        m = np.random.default_rng(29).standard_normal((141, 8))
        unit = m / np.linalg.norm(m, axis=1)[:, None]
        full = (unit @ unit.T)[np.triu_indices(141, k=1)]
        mean, std = mean_pairwise_cosine(m, seed=0)
        assert (mean, std) == mean_pairwise_cosine(m, seed=1)
        assert mean == pytest.approx(full.mean(), abs=1e-12)
        assert std == pytest.approx(full.std(), abs=1e-12)

    def test_samples_beyond_the_budget(self):
        # 142 rows give 10,011 pairs, over the budget: a seeded sample is drawn
        m = np.random.default_rng(29).standard_normal((142, 8))
        assert mean_pairwise_cosine(m, seed=0) != mean_pairwise_cosine(m, seed=1)


class TestContainers:
    def test_unit_norm_contract_enforced(self):
        with pytest.raises(ValueError, match="unit_norm"):
            EmbeddingMatrix(np.array([[1.0, 1.0]]), unit_norm=True)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.array([[np.inf, 0.0]]))

    def test_paired_shape_checks(self):
        a = EmbeddingMatrix(np.ones((3, 2)))
        b = EmbeddingMatrix(np.ones((4, 2)))
        with pytest.raises(ValueError):
            PairedEmbeddings(x=a, y=b)

    def test_spectral_summary_validates_order(self):
        with pytest.raises(ValueError):
            SpectralSummary(singular_values=np.array([1.0, 2.0]), gamma=0.9)
