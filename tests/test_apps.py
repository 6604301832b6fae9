"""Tests for the benchmark applications: every app's StreamIt program must
match its numpy reference through BOTH the interpreter and the compiler."""

import numpy as np
import pytest

import repro.apps as apps
from repro import api
from repro.compiler import AdapticCompiler
from repro.gpu import TESLA_C2050
from repro.streamit import run_program


class TestBlas1:
    PARAMS = {"n": 20, "r": 2, "alpha": 1.5, "c": 0.8, "s": 0.6}

    @pytest.mark.parametrize("name", apps.blas1.NAMES)
    def test_interpreter_matches_reference(self, name, rng):
        prog = apps.blas1.build(name)
        data = apps.blas1.make_input(name, 20, 2, rng)
        params = {k: v for k, v in self.PARAMS.items()
                  if k in prog.params}
        out = run_program(prog, data, params)
        ref = apps.blas1.reference(name, data, self.PARAMS)
        assert np.allclose(out, ref)

    @pytest.mark.parametrize("name", apps.blas1.NAMES)
    def test_compiled_matches_reference(self, name, rng):
        prog = apps.blas1.build(name)
        data = apps.blas1.make_input(name, 20, 1, rng)
        params = {k: v for k, v in {**self.PARAMS, "r": 1}.items()
                  if k in prog.params}
        compiled = api.compile(prog)
        result = compiled.run(data, params)
        ref = apps.blas1.reference(name, data, {**self.PARAMS, "r": 1})
        assert np.allclose(result.output, ref, rtol=1e-6)

    def test_flop_counters_positive(self):
        for name in apps.blas1.NAMES:
            assert apps.blas1.FLOPS[name]({"n": 100}) > 0


class TestTMV:
    def test_compiled_tmv(self, rng):
        rows, cols = 8, 48
        matrix, vec, params = apps.tmv.make_input(rows, cols, rng)
        compiled = api.compile(apps.tmv.build())
        result = compiled.run(matrix, params)
        expected = apps.tmv.reference(matrix, vec, rows, cols)
        assert np.allclose(result.output, expected)

    def test_shape_sweep_covers_factorizations(self):
        shapes = apps.tmv.shape_sweep(1 << 12)
        assert all(r * c == 1 << 12 for r, c in shapes)
        assert shapes[0][0] == 4
        assert shapes[-1][1] == 4


class TestScalarProductAndMonteCarlo:
    def test_scalar_product_compiled(self, rng):
        data = apps.scalar_product.make_input(4, 40, rng)
        compiled = api.compile(apps.scalar_product.build())
        result = compiled.run(data, {"pairs": 4, "n": 40})
        assert np.allclose(result.output,
                           apps.scalar_product.reference(data, 4, 40))

    def test_montecarlo_compiled(self, rng):
        params = apps.montecarlo.make_params(paths=80, options=3)
        data = apps.montecarlo.make_input(80, 3, rng)
        compiled = api.compile(apps.montecarlo.build())
        result = compiled.run(data, params)
        ref = apps.montecarlo.reference(data, params)
        assert np.allclose(result.output, ref, rtol=1e-6)

    def test_montecarlo_price_is_sane(self, rng):
        params = apps.montecarlo.make_params(paths=4000, options=1)
        data = apps.montecarlo.make_input(4000, 1, rng)
        (price,) = apps.montecarlo.reference(data, params)
        # Black-Scholes ATM call at these defaults is ~10.45.
        assert 8 < price < 13


class TestStencilApps:
    def test_stencil2d_compiled_both_variants(self, rng):
        data, params = apps.stencil2d.make_input(16, 8, rng)
        compiled = api.compile(apps.stencil2d.build())
        ref = apps.stencil2d.reference(data, 16)
        seg = compiled.segments[0]
        for plan in seg.plans:
            result = compiled.run(data, params,
                                  force={seg.name: plan.strategy})
            assert np.allclose(result.output, ref), plan.strategy

    def test_convolution_compiled(self, rng):
        prog = apps.convolution.build(radius=2)
        data, params = apps.convolution.make_input(16, 6, rng)
        compiled = api.compile(prog)
        assert len(compiled.segments) == 2  # row pass + column pass
        result = compiled.run(data, params)
        ref = apps.convolution.reference(data, 16, radius=2)
        assert np.allclose(result.output, ref, rtol=1e-6)

    def test_convolution_taps_normalized(self):
        taps = apps.convolution._taps(4)
        assert taps.sum() == pytest.approx(1.0)


class TestBiCGSTAB:
    def test_steps_classify_as_expected(self):
        kinds = {}
        compiler = AdapticCompiler(TESLA_C2050)
        for step in apps.bicgstab.step_specs():
            compiled = compiler.compile(step.program)
            kinds[step.name] = [s.kind for s in compiled.segments]
        assert kinds["gemv_v"] == ["reduction"]
        assert kinds["rho_dot"] == ["reduction"]
        assert kinds["s_update"] == ["map"]      # two actors fused
        assert kinds["omega_dots"] == ["multi_reduce"]
        assert kinds["x_update"] == ["map"]

    def test_solver_converges(self, rng):
        compiler = AdapticCompiler(TESLA_C2050)
        steps = {s.name: compiler.compile(s.program)
                 for s in apps.bicgstab.step_specs()}
        a, b, x_true = apps.bicgstab.make_system(10, rng)
        x = apps.bicgstab.solve(a, b, steps, max_iterations=60)
        assert np.linalg.norm(a @ x - b) < 1e-6

    def test_interleave_helper(self):
        out = apps.bicgstab.interleave(np.array([1., 2.]),
                                       np.array([3., 4.]))
        assert np.array_equal(out, [1, 3, 2, 4])


class TestSVM:
    def test_kernel_row_matches_reference(self, rng):
        data = apps.svm.make_dataset("web", rng, max_samples=10)
        x = data["x"][:, :8]
        norms = (x * x).sum(axis=1)
        compiled = api.compile(apps.svm.build_kernel_row())
        i = 4
        params = {"nfeat": 8, "m": 10, "gamma": 0.1, "norm_i": norms[i],
                  "xi": x[i], "norms": norms}
        result = compiled.run(x.reshape(-1), params)
        expected = np.exp(-0.1 * (norms + norms[i] - 2 * (x @ x[i])))
        assert np.allclose(result.output, expected, rtol=1e-6)

    def test_pair_search_horizontal_integration(self, rng):
        compiled = api.compile(apps.svm.build_pair_search())
        assert compiled.segments[0].kind == "multi_reduce"
        f = rng.standard_normal(48)
        result = compiled.run(f, {"m": 48})
        assert int(result.output[0]) == int(np.argmax(f))
        assert int(result.output[1]) == int(np.argmin(f))

    def test_f_update(self, rng):
        compiled = api.compile(apps.svm.build_f_update())
        f = rng.standard_normal(12)
        ki = rng.standard_normal(12)
        kj = rng.standard_normal(12)
        stream = np.column_stack([f, ki, kj]).reshape(-1)
        result = compiled.run(stream, {"m": 12, "di": 0.5, "dj": -0.25})
        assert np.allclose(result.output, f + 0.5 * ki - 0.25 * kj)

    def test_dataset_shapes_published(self):
        assert apps.svm.DATASETS["adult"].samples == 32561
        assert apps.svm.DATASETS["mnist"].features == 784
        for ds in apps.svm.DATASETS.values():
            assert 0 <= ds.duplicate_rate < 1


class TestInsensitive:
    def test_blackscholes_compiled(self, rng):
        data, params = apps.insensitive.blackscholes_input(30, rng)
        compiled = api.compile(apps.insensitive.build_blackscholes())
        result = compiled.run(data, params)
        ref = apps.insensitive.blackscholes_reference(data, params)
        assert np.allclose(result.output, ref, rtol=1e-6)

    def test_blackscholes_put_call_parity(self, rng):
        data, params = apps.insensitive.blackscholes_input(50, rng)
        out = apps.insensitive.blackscholes_reference(data, params)
        triples = data.reshape(-1, 3)
        call, put = out[0::2], out[1::2]
        s, x, t = triples[:, 0], triples[:, 1], triples[:, 2]
        parity = call - put - s + x * np.exp(-params["rate"] * t)
        assert np.allclose(parity, 0, atol=1e-9)

    def test_dct_compiled(self, rng):
        data = rng.standard_normal(64 * 2)
        compiled = api.compile(apps.insensitive.build_dct8x8())
        result = compiled.run(data, {"k": 0, "blocks": 2})
        assert np.allclose(result.output,
                           apps.insensitive.dct8x8_reference(data),
                           atol=1e-9)

    def test_dct_preserves_energy(self, rng):
        data = rng.standard_normal(64)
        out = apps.insensitive.dct8x8_reference(data)
        assert np.sum(out ** 2) == pytest.approx(np.sum(data ** 2))

    def test_histogram_compiled(self, rng):
        data, params = apps.insensitive.histogram_input(3, rng)
        compiled = api.compile(apps.insensitive.build_histogram())
        result = compiled.run(data, params)
        ref = apps.insensitive.histogram_reference(data)
        assert np.allclose(result.output, ref)
        assert result.output.sum() == len(data)

    def test_vectoradd_and_quasirandom(self, rng):
        data = rng.standard_normal(40)
        compiled = api.compile(apps.insensitive.build_vectoradd())
        result = compiled.run(data, {"n": 20})
        assert np.allclose(result.output, data[0::2] + data[1::2])

        compiled = api.compile(apps.insensitive.build_quasirandom())
        base = rng.uniform(0, 1, 16)
        result = compiled.run(base, {"n": 16, "alpha": 0.618})
        assert np.allclose(result.output,
                           (base + np.arange(16) * 0.618) % 1.0)
