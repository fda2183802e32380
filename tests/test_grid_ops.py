import math

import numpy as np
import pytest

from fremond.errors import ConfigError
from fremond.grid import (
    Field,
    Grid,
    integrate,
    laplacian_neumann,
    norm,
    read_snapshots,
    same_grid,
    write_snapshots,
)
from fremond.grid import _dirichlet_values, _grad_sq_values, _lap_values


def reference_laplacian_1d(v, h):
    """Independent stencil: explicit loop with mirrored ghost values."""
    n = len(v)
    out = np.empty(n)
    for i in range(n):
        left = v[i - 1] if i > 0 else v[0]
        right = v[i + 1] if i < n - 1 else v[n - 1]
        out[i] = (left + right - 2 * v[i]) / h**2
    return out


def reference_laplacian_2d(v, hx, hy):
    nx, ny = v.shape
    out = np.empty_like(v)
    for i in range(nx):
        for j in range(ny):
            xm = v[i - 1, j] if i > 0 else v[0, j]
            xp = v[i + 1, j] if i < nx - 1 else v[nx - 1, j]
            ym = v[i, j - 1] if j > 0 else v[i, 0]
            yp = v[i, j + 1] if j < ny - 1 else v[i, ny - 1]
            out[i, j] = (xm + xp - 2 * v[i, j]) / hx**2 + (ym + yp - 2 * v[i, j]) / hy**2
    return out


def padded_laplacian(v, grid):
    """The np.pad(mode="edge") stencil, same arithmetic in the same order."""
    out = np.zeros_like(v)
    for axis in range(grid.dim):
        p = np.pad(v, [(1, 1) if a == axis else (0, 0) for a in range(grid.dim)], mode="edge")
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out += (p[tuple(lo)] + p[tuple(hi)] - 2.0 * v) / grid.h[axis] ** 2
    return out


def padded_grad_sq(v, grid):
    """The zero-padded face-square stencil, same arithmetic in the same order."""
    out = np.zeros_like(v)
    for axis in range(grid.dim):
        d = np.diff(v, axis=axis) / grid.h[axis]
        d2 = d * d
        pad_lo = [(1, 0) if a == axis else (0, 0) for a in range(grid.dim)]
        pad_hi = [(0, 1) if a == axis else (0, 0) for a in range(grid.dim)]
        out += 0.5 * (np.pad(d2, pad_lo) + np.pad(d2, pad_hi))
    return out


class TestGrid:
    def test_spacing_matches_extent(self):
        g = Grid.line(10, 2.5)
        assert g.h[0] * g.n[0] == pytest.approx(2.5, abs=1e-15)
        assert g.num_cells == 10

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Grid.line(1)
        with pytest.raises(ValueError):
            Grid((4, 4, 4), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Grid.line(8, -1.0)

    def test_same_grid_of_one_grid_and_of_equal_ones(self):
        for g in (Grid.line(10, 2.5), Grid((8, 12), (1.0, 2.0))):
            twin = Grid(g.n, g.extent)
            assert twin is not g and twin == g
            assert same_grid(g, g) and same_grid(g, twin) and same_grid(twin, g)
        assert not same_grid(Grid.line(10), Grid.line(10, 2.0))
        assert not same_grid(Grid.line(10), Grid.line(11))

    def test_field_count_mismatch(self):
        g = Grid.line(8)
        with pytest.raises(ValueError):
            Field(g, np.zeros(7))

    def test_field_rejects_nan(self):
        g = Grid.line(8)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, vals)


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = Grid.line(16)
        out = laplacian_neumann(Field.full(g, 3.7))
        assert np.all(out.values == 0.0)

    def test_cosine_eigenfunction_1d(self):
        # discrete eigenvalue computed independently of the stencil code
        g = Grid.line(64)
        h = g.h[0]
        (x,) = g.meshgrid()
        f = Field(g, np.cos(np.pi * x))
        lam_h = -(2.0 / h**2) * (1.0 - math.cos(math.pi * h))
        out = laplacian_neumann(f)
        rel = np.max(np.abs(out.values - lam_h * f.values)) / np.max(np.abs(lam_h * f.values))
        assert rel < 1e-12
        # and lam_h itself is second-order close to -pi^2
        assert lam_h == pytest.approx(-math.pi**2, rel=4e-4)

    def test_matches_reference_loop_1d(self):
        g = Grid.line(17, 1.3)
        rng = np.random.default_rng(7)
        v = rng.normal(size=17)
        out = laplacian_neumann(Field(g, v))
        assert np.allclose(out.values, reference_laplacian_1d(v, g.h[0]), rtol=1e-13, atol=1e-10)

    def test_matches_reference_loop_2d(self):
        g = Grid((4, 5), (1.0, 2.0))
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4, 5))
        out = laplacian_neumann(Field(g, v))
        assert np.allclose(out.values, reference_laplacian_2d(v, g.h[0], g.h[1]), rtol=1e-13, atol=1e-10)

    @pytest.mark.parametrize("grid", [Grid.line(2), Grid.line(64), Grid((16, 16), (1.0, 1.0)),
                                      Grid((8, 12), (1.0, 2.0))],
                             ids=["line2", "line64", "box16x16", "box8x12"])
    def test_slice_stencil_equals_padded_reference_bitwise(self, grid):
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.normal(size=grid.shape) * rng.uniform(1e-3, 1e3)
            for op, reference in ((_lap_values, padded_laplacian), (_grad_sq_values, padded_grad_sq)):
                assert np.array_equal(op(v, grid), reference(v, grid)), op.__name__

    @pytest.mark.parametrize("grid", [Grid.line(2), Grid.line(64), Grid((8, 12), (1.0, 2.0))],
                             ids=["line2", "line64", "box8x12"])
    @pytest.mark.parametrize("lead", [(2,), (2, 3)], ids=["pair", "pair_of_members"])
    def test_stacked_input_is_each_slice_alone_bitwise(self, grid, lead):
        """The stepper takes one Laplacian of phi and theta stacked, (2, *shape) or (2, m, *shape):
        each leading slice of it is the padded reference of that slice alone."""
        rng = np.random.default_rng(12)
        for _ in range(5):
            v = rng.normal(size=lead + grid.shape) * rng.uniform(1e-3, 1e3)
            out = _lap_values(v, grid)
            assert out.shape == v.shape
            for k in np.ndindex(lead):
                assert out[k].tobytes() == padded_laplacian(v[k], grid).tobytes(), k

    def test_tensor_eigenfunction_2d(self):
        g = Grid((4, 4), (1.0, 1.0))
        X, Y = g.meshgrid()
        f = Field(g, np.cos(np.pi * X) * np.cos(np.pi * Y))
        h = g.h[0]
        lam_axis = -(2.0 / h**2) * (1.0 - math.cos(math.pi * h))
        out = laplacian_neumann(f)
        assert np.allclose(out.values, 2 * lam_axis * f.values, atol=1e-12)

    def test_discrete_conservation(self):
        rng = np.random.default_rng(21)
        for g in (Grid.line(33), Grid((7, 9), (1.0, 1.0))):
            for _ in range(20):
                f = Field(g, rng.normal(size=g.shape))
                lap = laplacian_neumann(f)
                bound = 1e-12 * norm(f, "L1") / min(g.h) ** 2
                assert abs(integrate(lap)) <= max(bound, 1e-13)

    def test_second_order_convergence(self):
        errs = []
        for n in (16, 32, 64):
            g = Grid.line(n)
            (x,) = g.meshgrid()
            f = Field(g, np.cos(np.pi * x))
            lap = laplacian_neumann(f)
            # Rayleigh estimate of the eigenvalue vs the continuum -pi^2
            lam_est = integrate(Field(g, f.values * lap.values)) / integrate(Field(g, f.values**2))
            errs.append(abs(lam_est + math.pi**2))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert 1.8 < order1 < 2.2
        assert 1.8 < order2 < 2.2


class TestGradSq:
    def test_constant_is_zero(self):
        g = Grid((6, 6), (1.0, 1.0))
        assert np.all(_grad_sq_values(np.full(g.shape, -2.0), g) == 0.0)

    def test_linear_profile_hand_stencil(self):
        # f(x) = x on n=8: interior cells see two unit face slopes, ends one
        g = Grid.line(8)
        (x,) = g.meshgrid()
        out = _grad_sq_values(x, g)
        expected = np.ones(8)
        expected[0] = expected[-1] = 0.5
        assert np.allclose(out, expected, atol=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        g = Grid((5, 8), (1.0, 1.0))
        f = Field(g, rng.normal(size=g.shape))
        assert _grad_sq_values(f.values, g).min() >= 0.0

    def test_summation_by_parts_100_random_fields(self):
        rng = np.random.default_rng(42)
        for k in range(100):
            g = Grid.line(24) if k % 2 == 0 else Grid((6, 5), (1.0, 1.0))
            f = Field(g, rng.normal(size=g.shape))
            lhs = integrate(Field(g, f.values * (-laplacian_neumann(f).values)))
            rhs = integrate(Field(g, _grad_sq_values(f.values, g)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert rhs == pytest.approx(_dirichlet_values(f.values, f.values, g), rel=1e-13, abs=1e-13)


class TestIntegrate:
    def test_constant(self):
        g = Grid.line(10)
        assert integrate(Field.full(g, 4.2)) == pytest.approx(4.2, abs=1e-14)

    def test_linear_exact(self):
        g = Grid.line(10)
        (x,) = g.meshgrid()
        assert integrate(Field(g, x)) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_known_midpoint_defect(self):
        for n in (4, 10, 37):
            g = Grid.line(n)
            (x,) = g.meshgrid()
            h = g.h[0]
            # cross-checked by direct summation for n=4:
            # h*sum((i+.5)^2 h^2) = 1/3 - h^2/12 exactly
            assert integrate(Field(g, x**2)) == pytest.approx(1 / 3 - h**2 / 12, abs=1e-14)


class TestNorms:
    def test_zero_field(self):
        g = Grid.line(9)
        z = Field.zeros(g)
        for kind in ("L1", "L2"):
            assert norm(z, kind) == 0.0

    def test_constant_on_unit_domain(self):
        g = Grid.line(12)
        c = Field.full(g, -3.0)
        assert norm(c, "L1") == pytest.approx(3.0, abs=1e-13)
        assert norm(c, "L2") == pytest.approx(3.0, abs=1e-13)

    def test_cosine_l2_is_half(self):
        # cos^2 = 1/2 + cos(2 pi x)/2 and the lattice sum of the oscillatory
        # part cancels exactly, so the midpoint L2^2 hits 1/2 at every n
        for n in (16, 32, 37, 64):
            g = Grid.line(n)
            (x,) = g.meshgrid()
            assert norm(Field(g, np.cos(np.pi * x)), "L2") ** 2 == pytest.approx(0.5, abs=1e-13)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm(Field.zeros(Grid.line(4)), "Linf")


class TestSnapshots:
    def test_roundtrip_1d(self, tmp_path):
        g = Grid.line(13, 2.0)
        rng = np.random.default_rng(11)
        f = Field(g, rng.normal(size=13))
        path = tmp_path / "f.field"
        write_snapshots(Field(g, f.values[None]), path, [0.375])
        g2, t2 = read_snapshots(path)
        assert t2.tolist() == [0.375]
        assert same_grid(g2.grid, g)
        assert np.array_equal(g2.values, f.values[None])

    def test_roundtrip_2d_row_major(self, tmp_path):
        g = Grid((3, 4), (1.0, 1.0))
        f = Field(g, np.arange(12.0).reshape(3, 4))
        path = tmp_path / "f.field"
        write_snapshots(Field(g, f.values[None]), path, [0.0])
        text = path.read_text().splitlines()
        assert text[0].startswith("FIELD dim=2 n=3,4 h=")
        flat = [float(x) for line in text[1:] for x in line.split()]
        assert flat == list(range(12))  # row-major order on disk
        back, _ = read_snapshots(path)
        assert np.array_equal(back.values, f.values[None])

    def test_concatenated_records(self, tmp_path):
        g = Grid.line(5)
        path = tmp_path / "two.field"
        write_snapshots(Field(g, np.array([np.full(5, 1.0), np.full(5, 2.0)])), path, [0.0, 0.1])
        assert path.read_text().count("FIELD") == 2
        recs, times = read_snapshots(path)
        assert recs.values.shape == (2, 5)
        assert recs.values[0, 0] == 1.0 and recs.values[1, 0] == 2.0
        assert times.tolist() == [0.0, 0.1]

    def test_stacked_roundtrip_2d_bitwise(self, tmp_path):
        g = Grid((3, 4), (0.3, 1.7))
        rng = np.random.default_rng(5)
        values = rng.normal(size=(6, 3, 4)) * 10.0 ** rng.integers(-30, 30, size=(6, 3, 4))
        times = rng.random(6) * 1e-3
        path = tmp_path / "stack.field"
        write_snapshots(Field(g, values), path, times)
        back, back_times = read_snapshots(path)
        assert same_grid(back.grid, g)
        assert np.array_equal(back.values.view(np.int64), values.view(np.int64))
        assert np.array_equal(back_times.view(np.int64), times.view(np.int64))

    def test_records_on_two_grids_rejected(self, tmp_path):
        a, b = tmp_path / "a.field", tmp_path / "b.field"
        write_snapshots(Field(Grid.line(5), np.ones((1, 5))), a, [0.0])
        write_snapshots(Field(Grid.line(5, 2.0), np.ones((1, 5))), b, [0.1])
        path = tmp_path / "mixed.field"
        path.write_text(a.read_text() + b.read_text())
        with pytest.raises(ConfigError, match="mixed.field: record 1 is on another grid than record 0"):
            read_snapshots(path)

    @staticmethod
    def _three_records(tmp_path, edit_header=None, edit_values=None):
        """Three records on one grid, record 2's header or value line edited; the path."""
        path = tmp_path / "three.field"
        write_snapshots(Field(Grid.line(4), np.arange(12.0).reshape(3, 4) / 7.0), path, [0.0, 0.5, 1.0])
        lines = path.read_text().splitlines()
        if edit_header:
            lines[4] = edit_header(lines[4])
        if edit_values:
            lines[5] = edit_values(lines[5])
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("edit_header, edit_values, message", [
        (lambda hd: hd.rsplit(" t=", 1)[0], None, "snapshot header lacks t"),
        (lambda hd: hd.replace("FIELD", "FIELDS"), None, "bad snapshot header"),
        (lambda hd: hd.replace("n=4", "n=3"), None, "record 2 is on another grid"),
        (None, lambda vals: vals + " 1.0", "trailing values"),
    ], ids=["no_t", "tag", "grid", "count"])
    def test_a_later_record_is_checked_in_full(self, tmp_path, edit_header, edit_values, message):
        path = self._three_records(tmp_path, edit_header, edit_values)
        with pytest.raises(ConfigError, match=message):
            read_snapshots(path)

    def test_a_header_in_another_key_order_or_spelling_reads_bitwise_equal(self, tmp_path):
        want, want_t = read_snapshots(self._three_records(tmp_path))
        reordered = lambda hd: "FIELD " + " ".join(reversed(hd.split()[1:])).replace("h=0.25", "h=2.5e-1")
        path = self._three_records(tmp_path, edit_header=reordered)
        assert path.read_text().splitlines()[4] == "FIELD t=1.0 h=2.5e-1 n=4 dim=1"
        got, got_t = read_snapshots(path)
        assert same_grid(got.grid, want.grid) and got.grid.n == want.grid.n
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
        assert np.array_equal(got_t.view(np.int64), want_t.view(np.int64))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.field"
        path.write_text("\n")
        with pytest.raises(ConfigError, match="empty.field: empty snapshot file"):
            read_snapshots(path)

    def test_values_and_times_must_agree(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshots(Field(Grid.line(5), np.ones((2, 5))), tmp_path / "f.field", [0.0])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("NOTAFIELD dim=1\n")
        with pytest.raises(ConfigError, match="bad.field"):
            read_snapshots(path)
