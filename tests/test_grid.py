import numpy as np
import pytest
import scipy.fft

from sixch import grid as gr
from sixch.errors import MeanError, ShapeError
from sixch.grid import Grid, ScalarField, constant_field
from sixch.snapshots import read_snapshot, write_snapshot


def random_field(grid, seed=0, zero_mean=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    if zero_mean:
        vals -= vals.mean()
    return ScalarField(grid, vals)


def band_limited(grid, seed=0, cutoff=8, amplitude=1.0):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex if grid.bc == gr.PERIODIC else float)
    box = tuple(slice(0, cutoff) for _ in grid.shape)
    coeffs[box] = rng.standard_normal(coeffs[box].shape)
    coeffs.flat[0] = 0.0
    u = gr.transform_backward(coeffs, grid)
    peak = np.max(np.abs(u))
    return ScalarField(grid, amplitude * u / peak)


class TestGridValidation:
    def test_counts_floor(self):
        with pytest.raises(ValueError):
            Grid((1.0,), (3,))

    def test_dim_range(self):
        with pytest.raises(ValueError):
            Grid((1.0,) * 4, (8,) * 4)

    def test_mismatched_axes(self):
        with pytest.raises(ValueError):
            Grid((1.0, 2.0), (8,))

    def test_cell_volume(self):
        g = Grid((2.0, 3.0), (8, 16), gr.NEUMANN)
        assert g.cell_volume == pytest.approx((2.0 / 8) * (3.0 / 16), rel=1e-15)
        assert g.volume == pytest.approx(6.0)

    def test_field_shape_check(self):
        g = Grid((1.0,), (8,))
        with pytest.raises(ShapeError):
            ScalarField(g, np.zeros(9))
        with pytest.raises(ShapeError):
            ScalarField(g, np.full(8, np.nan))


class TestTransforms:
    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_round_trip_white_noise(self, bc):
        grid = Grid((1.0,), (256,), bc)
        u = random_field(grid, seed=1)
        v = gr.transform_backward(gr.transform_forward(u.values, grid), grid)
        assert np.max(np.abs(v - u.values)) <= 1e-12

    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_round_trip_3d(self, bc):
        grid = Grid((1.0, 1.5, 0.7), (8, 4, 16), bc)
        u = random_field(grid, seed=2)
        v = gr.transform_backward(gr.transform_forward(u.values, grid), grid)
        assert np.max(np.abs(v - u.values)) <= 1e-13

    def test_constant_goes_to_mode_zero(self):
        grid = Grid((2.0,), (32,), gr.NEUMANN)
        coeffs = gr.transform_forward(constant_field(grid, 3.5).values, grid)
        others = coeffs.copy()
        others.flat[0] = 0.0
        assert np.max(np.abs(others)) <= 1e-13 * abs(coeffs.flat[0])
        assert coeffs.flat[0] == pytest.approx(3.5 * np.sqrt(32), rel=1e-14)

    def test_single_cosine_is_single_mode(self):
        grid = Grid((2.0,), (32,), gr.NEUMANN)
        x = grid.axis_coords(0)
        coeffs = gr.transform_forward(np.cos(np.pi * x / 2.0), grid)
        mask = np.ones(32, bool)
        mask[1] = False
        assert abs(coeffs[1]) > 1.0
        assert np.max(np.abs(coeffs[mask])) <= 1e-14 * abs(coeffs[1])


class TestOperatorA:
    def test_eigenfunction_periodic(self):
        grid = Grid((1.0,), (64,), gr.PERIODIC)
        k = 2 * np.pi * 3
        u = ScalarField(grid, np.cos(k * grid.axis_coords(0)))
        au = gr.apply_A(u)
        assert np.allclose(au.values, k**2 * u.values, rtol=1e-10, atol=1e-10)

    def test_constant_in_kernel(self):
        grid = Grid((1.0, 1.0), (8, 8), gr.NEUMANN)
        c = constant_field(grid, 2.0)
        assert np.max(np.abs(gr.apply_A(c).values)) == 0.0

    def test_apply_A_zero_mean(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        u = random_field(grid, 4)
        au = gr.apply_A(u)
        assert abs(gr.mean(au)) <= 1e-13 * gr.lp_norm(au, np.inf)

    def test_self_adjoint_and_positive(self):
        grid = Grid((1.3,), (64,), gr.NEUMANN)
        u, v = random_field(grid, 5), random_field(grid, 6)
        lhs, rhs = gr.inner(gr.apply_A(u), v), gr.inner(u, gr.apply_A(v))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert gr.inner(gr.apply_A(u), u) >= 0.0
        assert gr.inner(gr.apply_A(constant_field(grid, 1.0)), constant_field(grid, 1.0)) == 0.0


class TestInverseLaplacian:
    def test_eigenfunction(self):
        grid = Grid((1.0,), (64,), gr.PERIODIC)
        k = 2 * np.pi * 2
        g = ScalarField(grid, np.cos(k * grid.axis_coords(0)))
        v = gr.inv_A_zero_mean(g)
        assert np.allclose(v.values, g.values / k**2, atol=1e-12)

    def test_round_trip(self):
        grid = Grid((1.0,), (128,), gr.NEUMANN)
        u = band_limited(grid, seed=7, cutoff=30)
        dev = ScalarField(grid, u.values - gr.mean(u))
        back = gr.inv_A_zero_mean(gr.apply_A(u))
        assert np.max(np.abs(back.values - dev.values)) <= 1e-12

    def test_mean_precondition(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        with pytest.raises(MeanError):
            gr.inv_A_zero_mean(constant_field(grid, 0.1))

    def test_propN1(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        u = random_field(grid, 8)
        g = random_field(grid, 9, zero_mean=True)
        lhs = gr.inner(gr.apply_A(u), gr.inv_A_zero_mean(g))
        rhs = gr.inner(g, u)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    def test_propN2_symmetry(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        g = random_field(grid, 10, zero_mean=True)
        h = random_field(grid, 11, zero_mean=True)
        assert gr.inner(g, gr.inv_A_zero_mean(h)) == pytest.approx(
            gr.inner(h, gr.inv_A_zero_mean(g)), rel=1e-11, abs=1e-13)


class TestResolvent:
    def test_constant_unchanged(self):
        grid = Grid((1.0,), (16,), gr.NEUMANN)
        c = constant_field(grid, 0.7)
        out = gr.resolvent(c, 2.5)
        assert np.allclose(out.values, 0.7, atol=1e-15)

    def test_eigenfunction(self):
        grid = Grid((2 * np.pi,), (64,), gr.PERIODIC)
        u = ScalarField(grid, np.cos(grid.axis_coords(0)))
        out = gr.resolvent(u, 1.0)
        assert np.allclose(out.values, u.values / 2.0, atol=1e-13)

    def test_mean_preserved(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        u = random_field(grid, 12)
        assert gr.mean(gr.resolvent(u, 0.37)) == pytest.approx(gr.mean(u), abs=1e-14)


class TestNormsAndMeans:
    def test_constant(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        u = constant_field(grid, 3.0)
        assert gr.mean(u) == 3.0
        assert gr.integral(u) == pytest.approx(3.0, rel=1e-14)
        assert gr.lp_norm(u, 2) == pytest.approx(3.0, rel=1e-14)
        assert gr.lp_norm(u, 1) == pytest.approx(3.0, rel=1e-14)
        assert gr.lp_norm(u, np.inf) == 3.0

    def test_cosine_l2(self):
        grid = Grid((1.0,), (64,), gr.PERIODIC)
        u = ScalarField(grid, np.cos(2 * np.pi * grid.axis_coords(0)))
        assert gr.mean(u) == pytest.approx(0.0, abs=1e-15)
        assert gr.lp_norm(u, 2) == pytest.approx(1 / np.sqrt(2), rel=1e-13)

    def test_h1_matches_quadratic_form(self):
        grid = Grid((1.7,), (128,), gr.NEUMANN)
        u = random_field(grid, 13)
        qf = gr.inner(gr.apply_A(u), u)
        assert gr.h1_seminorm(u) ** 2 == pytest.approx(qf, rel=1e-12)

    def test_h1_cosine_closed_form(self):
        L = 2.0
        grid = Grid((L,), (64,), gr.NEUMANN)
        k = 3 * np.pi / L
        u = ScalarField(grid, np.cos(k * grid.axis_coords(0)))
        assert gr.h1_seminorm(u) == pytest.approx(k * np.sqrt(L / 2), rel=1e-12)


class TestDualNorm:
    def test_cosine_closed_form(self):
        L, alpha, j = 3.0, 0.8, 2
        grid = Grid((L,), (64,), gr.NEUMANN)
        k = j * np.pi / L
        g = ScalarField(grid, alpha * np.cos(k * grid.axis_coords(0)))
        assert gr.v0_dual_norm(g) == pytest.approx((alpha / k) * np.sqrt(L / 2), rel=1e-12)

    def test_zero(self):
        grid = Grid((1.0,), (16,), gr.NEUMANN)
        assert gr.v0_dual_norm(constant_field(grid, 0.0)) == 0.0

    def test_interpolation_inequality(self):
        grid = Grid((1.5,), (64,), gr.NEUMANN)
        for seed in range(100):
            g = random_field(grid, seed, zero_mean=True)
            lhs = gr.lp_norm(g, 2) ** 2
            rhs = gr.v0_dual_norm(g) * gr.h1_seminorm(g)
            assert lhs <= rhs * (1 + 1e-10)

    def test_mean_error(self):
        grid = Grid((1.0,), (16,), gr.NEUMANN)
        with pytest.raises(MeanError):
            gr.v0_dual_norm(constant_field(grid, 0.1))


class TestGradients:
    def test_constant_gives_zero(self):
        grid = Grid((1.0, 2.0), (16, 8), gr.NEUMANN)
        out = gr.grad_norm_sq(constant_field(grid, 1.2).values, grid)
        assert np.max(out) == 0.0

    def test_sine_closed_form(self):
        grid = Grid((1.0,), (128,), gr.PERIODIC)
        k = 2 * np.pi * 3
        x = grid.axis_coords(0)
        u = ScalarField(grid, np.sin(k * x))
        out = gr.grad_norm_sq(u.values, grid)
        assert np.max(np.abs(out - k**2 * np.cos(k * x) ** 2)) <= 1e-10 * k**2

    def test_cosine_neumann(self):
        L = 2.0
        grid = Grid((L,), (128,), gr.NEUMANN)
        k = 5 * np.pi / L
        x = grid.axis_coords(0)
        u = ScalarField(grid, np.cos(k * x))
        out = gr.gradient_axis(u.values, grid, 0)
        assert np.max(np.abs(out + k * np.sin(k * x))) <= 1e-11 * k

    def test_integral_matches_h1(self):
        for bc in (gr.NEUMANN, gr.PERIODIC):
            grid = Grid((1.0, 1.3), (32, 32), bc)
            u = band_limited(grid, seed=14, cutoff=10)
            integral = gr.integral(ScalarField(grid, gr.grad_norm_sq(u.values, grid)))
            assert integral == pytest.approx(gr.h1_seminorm(u) ** 2, rel=1e-10, abs=1e-12)

    def test_nonnegative(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        out = gr.grad_norm_sq(random_field(grid, 15).values, grid)
        assert np.min(out) >= 0.0


class TestPoincare:
    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_wirtinger_bound(self, bc):
        grid = Grid((2.0, 0.9), (32, 16), bc)
        cp = max(grid.lengths) / np.pi
        for seed in range(25):
            u = random_field(grid, seed)
            dev = ScalarField(grid, u.values - gr.mean(u))
            assert gr.lp_norm(dev, 2) <= cp * gr.h1_seminorm(u) * (1 + 1e-12)


class TestSpectrum:
    def test_neumann_symbol_monotone_per_axis(self):
        grid = Grid((1.0, 2.0), (16, 8), gr.NEUMANN)
        ev = grid.eigenvalues
        assert ev.flat[0] == 0.0
        assert np.all(ev >= 0.0)
        for ax in range(2):
            assert np.all(np.diff(ev, axis=ax) >= 0.0)

    def test_periodic_symbol_kernel_and_sign(self):
        grid = Grid((1.0,), (16,), gr.PERIODIC)
        ev = grid.eigenvalues
        assert ev.flat[0] == 0.0
        assert np.all(ev >= 0.0)

    def test_neumann_basis_has_zero_boundary_derivative(self):
        # every basis function is cos(m*pi*x/L); its derivative is a sine
        # series, which vanishes identically at x = 0 and x = L
        L, n = 1.7, 16
        m = np.arange(n)
        assert np.all(np.sin(m * np.pi * 0.0 / L) == 0.0)
        assert np.max(np.abs(np.sin(m * np.pi * L / L))) <= 1e-14


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        grid = Grid((1.0, 2.0), (8, 16), gr.PERIODIC)
        u = random_field(grid, 17)
        write_snapshot(u, tmp_path / "snap", time=0.25, label="x")
        v, meta = read_snapshot(tmp_path / "snap")
        assert np.array_equal(v.values, u.values)
        assert v.grid == grid
        assert meta["time"] == 0.25 and meta["label"] == "x"
        assert meta["dim"] == 2 and meta["bc"] == gr.PERIODIC

    def test_raw_is_little_endian_row_major(self, tmp_path):
        grid = Grid((1.0,), (4,), gr.NEUMANN)
        u = ScalarField(grid, np.array([1.0, 2.0, 3.0, 4.0]))
        raw, _ = write_snapshot(u, tmp_path / "s")
        data = np.frombuffer(raw.read_bytes(), dtype="<f8")
        assert np.array_equal(data, u.values)


class TestBatch:
    """A batch is an explicit leading axis of rows, each acted on as one field."""

    GRIDS = [Grid((1.0,), (64,), gr.NEUMANN), Grid((1.0,), (64,), gr.PERIODIC),
             Grid((1.0, 2.0), (8, 12), gr.PERIODIC), Grid((1.0,) * 3, (8,) * 3, gr.NEUMANN)]

    def test_shape_never_inferred(self):
        g = Grid((1.0,), (8,))
        with pytest.raises(ShapeError):
            ScalarField(g, np.zeros((8, 8)))  # a batch only when asked for
        with pytest.raises(ShapeError):
            ScalarField(g, np.zeros(8), batch=True)  # a batch needs its row axis
        with pytest.raises(ShapeError):
            ScalarField(g, np.zeros((2, 9)), batch=True)
        with pytest.raises(ShapeError):
            ScalarField(g, np.full((2, 8), np.inf), batch=True)

    def test_stack_needs_single_fields_on_one_grid(self):
        g = Grid((1.0,), (8,))
        u = constant_field(g, 0.1)
        pair = ScalarField.stack([u, u])
        assert pair.batch and pair.values.shape == (2, 8)
        with pytest.raises(ShapeError):
            ScalarField.stack([pair, pair])
        with pytest.raises(ShapeError):
            ScalarField.stack([u, constant_field(Grid((2.0,), (8,)), 0.1)])

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.bc}{g.dim}d")
    def test_rows_transform_and_differentiate_bitwise_alone(self, grid):
        rows = [band_limited(grid, seed=s, cutoff=4) for s in (1, 2, 3)]
        batch = ScalarField.stack(rows)
        coeffs = gr.transform_forward(batch.values, grid)
        back = gr.transform_backward(coeffs, grid)
        smooth = gr.resolvent(batch, 0.1)
        gsq = gr.grad_norm_sq(batch.values, grid)
        assert smooth.batch and back.shape == gsq.shape == batch.values.shape
        for i, u in enumerate(rows):
            c = gr.transform_forward(u.values, grid)
            assert np.array_equal(coeffs[i], c)
            assert np.array_equal(back[i], gr.transform_backward(c, grid))
            assert np.array_equal(smooth.values[i], gr.resolvent(u, 0.1).values)
            assert np.array_equal(gsq[i], gr.grad_norm_sq(u.values, grid))
            for ax in range(grid.dim):
                assert np.array_equal(gr.gradient_axis(batch.values, grid, ax)[i],
                                      gr.gradient_axis(u.values, grid, ax))


class TestKernels:
    """`grid`'s transform kernels, which call pocketfft's binding directly, are
    bit-equal to the public scipy.fft functions on every call form the
    engine makes: each axis counted from the end, with or without a leading
    batch axis, on views, and in place."""

    SHAPES = [(16,), (8, 6), (6, 5, 4)]

    @staticmethod
    def arrays(shape):
        rng = np.random.default_rng(sum(shape))
        yield rng.standard_normal(shape)
        yield rng.standard_normal((3,) + shape)  # a batch
        yield rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]  # a strided view

    @pytest.mark.parametrize("shape", SHAPES, ids=len)
    @pytest.mark.parametrize("norm", [None, "ortho"])
    @pytest.mark.parametrize("kind", [2, 3])
    @pytest.mark.parametrize("name", ["dct", "dst"])
    def test_r2r_is_the_public_call(self, name, kind, norm, shape):
        ours, public = getattr(gr, name), getattr(scipy.fft, name)
        for x in self.arrays(shape):
            for ax in range(-len(shape), 0):
                kw = dict(type=kind, axis=ax, norm=norm)
                before = x.copy()
                assert np.array_equal(ours(x, **kw), public(x, **kw))
                assert np.array_equal(x, before)  # the input is left alone
                y = x.copy()
                out = ours(y, overwrite_x=True, **kw)
                assert out is y  # transformed in place
                assert np.array_equal(out, public(x.copy(), overwrite_x=True, **kw))

    @pytest.mark.parametrize("shape", SHAPES, ids=len)
    @pytest.mark.parametrize("name", ["fftn", "ifftn"])
    def test_c2c_is_the_public_call(self, name, shape):
        ours, public = getattr(gr, name), getattr(scipy.fft, name)
        grid_axes = tuple(range(-len(shape), 0))
        forms = [dict(axes=grid_axes, norm="ortho")] + [dict(axes=(ax,)) for ax in grid_axes]
        for x in self.arrays(shape):
            for arr in (x, x + 0.5j * x[..., ::-1]):
                for kw in forms:
                    assert np.array_equal(ours(arr, **kw), public(arr, **kw))

    def test_one_binding_behind_both_lookups(self):
        # grid loads pocketfft's binding from its file; scipy.fft imports the
        # same cached extension module, so either lookup calls the same kernels
        assert gr._PFFT is scipy.fft._pocketfft.basic.pfft
        assert gr._pfft() is gr._PFFT

    def test_a_wrapper_on_basic_sees_every_transform(self, monkeypatch):
        # a profiler times the binding by replacing `basic.pfft`
        binding, calls = scipy.fft._pocketfft.basic.pfft, []

        class Counting:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(binding, name)

        grids = [Grid((1.0, 2.0), (8, 6), gr.NEUMANN), Grid((1.0, 2.0), (8, 6), gr.PERIODIC)]
        fields = [random_field(g, seed=5).values for g in grids]
        expected = [gr.gradient_axis(u, g, 0) for g, u in zip(grids, fields)]
        monkeypatch.setattr(scipy.fft._pocketfft.basic, "pfft", Counting())
        for g, u, want in zip(grids, fields, expected):
            gr.transform_backward(gr.transform_forward(u, g), g)
            assert np.array_equal(gr.gradient_axis(u, g, 0), want)
        assert calls == ["dct"] * 4 + ["dct", "dst"] + ["c2c"] * 4

    def test_a_missing_binding_names_its_directory(self, tmp_path, monkeypatch):
        class Spec:
            submodule_search_locations = [str(tmp_path)]

        monkeypatch.setattr(gr, "find_spec", lambda name: Spec)
        with pytest.raises(ImportError, match=str(tmp_path / "fft" / "_pocketfft")):
            gr._load_pocketfft()

    def test_periodic_wavenumbers_are_the_public_fftfreq(self):
        grid = Grid((1.0, 2.5, 7.0), (8, 7, 6), gr.PERIODIC)
        for k, l, n in zip(grid.wavenumbers, grid.lengths, grid.counts):
            assert np.array_equal(k, 2.0 * np.pi * scipy.fft.fftfreq(n, d=l / n))

    def test_a_scipy_fft_backend_does_not_reach_the_engine(self):
        class Refusing:
            __ua_domain__ = "numpy.scipy.fft"

            @staticmethod
            def __ua_function__(method, args, kwargs):
                raise RuntimeError(f"backend called for {method.__name__}")

        grids = [Grid((1.0,), (32,), gr.NEUMANN), Grid((1.0, 2.0), (8, 12), gr.PERIODIC),
                 Grid((1.0,) * 3, (6,) * 3, gr.NEUMANN)]
        fields = [random_field(g, seed=4).values for g in grids]

        def run():
            out = []
            for g, u in zip(grids, fields):
                c = gr.transform_forward(u, g)
                out += [c, gr.transform_backward(c, g)]
                out += [gr.gradient_axis(u, g, ax) for ax in range(g.dim)]
            return out

        expected = run()
        with scipy.fft.set_backend(Refusing):
            with pytest.raises(RuntimeError, match="backend called"):
                scipy.fft.dct(fields[0])
            got = run()
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
