import math

import numpy as np
import pytest

from cmvlq import measure
from cmvlq.measure import EmpiricalMeasure, tree_mean, tree_sum

from reference import AffineMap, l2_norm, pushforward, quad_moment, save_csv, variance_form


def cloud(*vals):
    return EmpiricalMeasure(np.asarray(vals, dtype=float))


def pairwise(v, i, n):
    """numpy's pairwise sum of v[i:i+n] (float64 add), scalar python.

    Below 8 elements one running sum; up to 128, eight interleaved
    accumulators added as a balanced tree, then the tail of fewer than 8;
    above that, split at n/2 rounded down to a multiple of 8.
    """
    if n < 8:
        res = 0.0
        for j in range(i, i + n):
            res += v[j]
        return res
    if n <= 128:
        r = v[i:i + 8]
        j = 8
        while j < n - n % 8:
            r = [r[q] + v[i + j + q] for q in range(8)]
            j += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for j in range(j, n):
            res += v[i + j]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise(v, i, n2) + pairwise(v, i + n2, n - n2)


class TestTreeSum:
    def test_matches_reference_order(self):
        # numpy's pairwise tree, scalar python; the reduction starts from 0.0
        def ref(vals):
            return 0.0 + pairwise(vals.tolist(), 0, len(vals))

        rng = np.random.default_rng(0)
        for n in [1, 2, 3, 5, 8, 17, 100, 1023, 8191, 8192, 8193, 20000, 100001]:
            v = rng.standard_normal(n)
            assert tree_sum(v) == ref(v)
        # any alignment of the first element, and any row of a stack
        for n in [7, 9, 129, 2001]:
            buf = rng.standard_normal(n + 8)
            for off in range(8):
                assert tree_sum(buf[off:off + n]) == ref(buf[off:off + n]), (n, off)
            stack = rng.standard_normal((3, 4, n))
            sums = tree_sum(stack, axis=-1)
            for p in range(3):
                for r in range(4):
                    assert sums[p, r] == ref(stack[p, r]), (n, p, r)

    def test_accuracy_vs_fsum(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(10_000) * 1e6
        assert abs(tree_sum(v) - math.fsum(v)) < 1e-4

    def test_axis(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((9, 3))
        col = tree_sum(a, axis=0)
        for j in range(3):
            assert col[j] == tree_sum(a[:, j])


def strided_tree_sum(a, axis=0):
    """numpy's pairwise tree as strided elementwise adds over every row at once.

    The same additions as `pairwise`: running sums are np.add.accumulate,
    which adds strictly in sequence, and the eight accumulators meet in
    three levels of strided adds.
    """
    w = np.moveaxis(np.asarray(a, dtype=np.float64), axis, -1)

    def run(start, vals):
        # start + vals[0] + vals[1] + ..., left to right
        terms = np.concatenate((start[..., None], vals), axis=-1)
        return np.add.accumulate(terms, axis=-1)[..., -1]

    def rows(i, n):
        if n < 8:
            return run(np.zeros(w.shape[:-1]), w[..., i:i + n])
        if n <= 128:
            blocks = w[..., i:i + n - n % 8].reshape(*w.shape[:-1], -1, 8)
            r = np.add.accumulate(blocks, axis=-2)[..., -1, :]
            while r.shape[-1] > 1:
                r = r[..., 0::2] + r[..., 1::2]
            return run(r[..., 0], w[..., i + n - n % 8:i + n])
        n2 = n // 2
        n2 -= n2 % 8
        return rows(i, n2) + rows(i + n2, n - n2)

    return 0.0 + rows(0, w.shape[-1])


def test_tree_sum_matches_strided_loop_bitwise():
    rng = np.random.default_rng(5)
    layouts = [((1,), 0), ((1, 3), 0), ((2, 1), 1), ((2, 1), -1),
               ((2, 1, 3), 1), ((1, 2, 2), 0), ((2, 3, 1), -1)]
    for n in range(1, 2050):
        for shape, axis in layouts:
            shape = tuple(n if s == 1 and i == axis % len(shape) else s
                          for i, s in enumerate(shape))
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            got, want = tree_sum(a, axis), strided_tree_sum(a, axis)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64)), (shape, axis)


class TestMean:
    def test_point_mass(self):
        assert measure.mean(cloud(0.0)) == 0.0

    def test_two_points(self):
        assert measure.mean(cloud(1.0, 3.0)) == pytest.approx(2.0, abs=0)

    def test_symmetric_2d(self):
        mu = EmpiricalMeasure([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(measure.mean(mu), [0.0, 0.0], atol=0)


class TestQuadMoment:
    def test_zero_point(self):
        assert quad_moment(cloud(0.0), 1.0) == 0.0

    def test_two_points(self):
        assert quad_moment(cloud(1.0, 3.0), 1.0) == pytest.approx(5.0, abs=0)

    def test_zero_form(self):
        rng = np.random.default_rng(3)
        mu = EmpiricalMeasure(rng.standard_normal((20, 2)))
        assert quad_moment(mu, np.zeros((2, 2))) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            quad_moment(cloud(1.0, 3.0), np.eye(2))


class TestVarianceForm:
    def test_point_mass_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(3)
            L = rng.standard_normal((3, 3))
            L = L + L.T
            mu = EmpiricalMeasure(np.tile(x, (7, 1)))
            assert variance_form(mu, L) == pytest.approx(0.0, abs=1e-12)

    def test_two_points(self):
        assert variance_form(cloud(1.0, 3.0), 1.0) == pytest.approx(1.0, abs=1e-15)
        assert variance_form(cloud(1.0, 3.0), -1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_psd_form_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            A = rng.standard_normal((d, d))
            L = A @ A.T
            mu = EmpiricalMeasure(rng.standard_normal((int(rng.integers(1, 40)), d)))
            assert variance_form(mu, L) >= -1e-12

    def test_translation_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pts = rng.standard_normal((15, 2))
            L = rng.standard_normal((2, 2))
            L = L + L.T
            c = rng.uniform(-5, 5, size=2)
            v0 = variance_form(EmpiricalMeasure(pts), L)
            v1 = variance_form(EmpiricalMeasure(pts + c), L)
            assert v1 == pytest.approx(v0, abs=1e-10)


class TestPushforward:
    def test_identity(self):
        mu = cloud(1.0, 3.0)
        out = pushforward(mu, AffineMap(np.eye(1)))
        assert np.array_equal(out.points, mu.points)

    def test_constant(self):
        mu = cloud(1.0, 3.0, 7.0)
        out = pushforward(mu, AffineMap.constant([4.0], 1))
        assert out.n == 3
        assert np.all(out.points == 4.0)

    def test_doubling(self):
        out = pushforward(cloud(1.0, 3.0), AffineMap(2.0))
        assert np.array_equal(out.points[:, 0], [2.0, 6.0])

    def test_mean_maps_affinely(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mu = EmpiricalMeasure(rng.standard_normal((13, 3)))
            K = rng.standard_normal((2, 3))
            k = rng.standard_normal(2)
            out = pushforward(mu, AffineMap(K, k))
            assert np.allclose(measure.mean(out), K @ measure.mean(mu) + k,
                               rtol=1e-12, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            pushforward(cloud(1.0), AffineMap(np.eye(2)))


class TestL2Norm:
    def test_values(self):
        assert l2_norm(cloud(0.0)) == 0.0
        assert l2_norm(cloud(1.0, 3.0)) == pytest.approx(math.sqrt(5.0), abs=0)
        assert l2_norm(EmpiricalMeasure([[3.0, 4.0]])) == pytest.approx(5.0, abs=0)

    def test_squared_equals_identity_moment(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            mu = EmpiricalMeasure(rng.standard_normal((9, d)))
            assert l2_norm(mu) ** 2 == pytest.approx(
                quad_moment(mu, np.eye(d)), rel=1e-14)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([[np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([np.inf, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((0, 1)))

    def test_immutable(self):
        mu = cloud(1.0, 2.0)
        with pytest.raises(ValueError):
            mu.points[0, 0] = 5.0


class TestCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(12)
        mu = EmpiricalMeasure(rng.standard_normal((17, 3)) * 1e-7)
        path = tmp_path / "cloud.csv"
        save_csv(mu, path)
        back = measure.load_csv(path)
        assert np.array_equal(back.points, mu.points)
        assert path.read_text().splitlines()[0] == "x0,x1,x2"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            measure.load_csv(path)


def test_tree_mean_consistency():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(37)
    assert tree_mean(v) == tree_sum(v) / 37
