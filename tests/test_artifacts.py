"""Zero-cold-start artifact bundles: round-trip fidelity and rejection.

Covers the persistence tentpole end to end: atomic JSON writing (a
failed save preserves the previous good file), `CalibrationStore`
save→load→to_dict equality with version/arch gates, `ArtifactBundle`
payload round trips, loud rejection of truncated/stale/cross-arch
bundles (each its own `BundleError` subclass, nothing half-applied),
and the counter-asserted contract itself — a bundle-loaded program
serves its first request with zero perf-model evaluations and zero
expression compiles, bit-identical to a cold-compiled run, both
in-process and from a genuinely fresh interpreter.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import api
from repro.apps import tmv
from repro.artifacts import (ArtifactBundle, atomic_write_json,
                             decode_ndarray, decode_scalars, encode_ndarray,
                             encode_scalars, program_fingerprint)
from repro.compiler.exprgen import COMPILE_COUNTER, SOURCE_REGISTRY
from repro.errors import (BundleArchError, BundleError, BundleFormatError,
                          BundleProgramError, BundleVersionError,
                          CalibrationError)
from repro.gpu import DeviceArray, GTX_285, TESLA_C2050
from repro.perfmodel import CalibrationStore

pytestmark = pytest.mark.artifacts


@pytest.fixture(autouse=True)
def _isolated_source_registry():
    """Drop bundle-carried sources after every test.

    The hydration registry is process-global by design (a served bundle
    should keep hydrating for the process lifetime); tests must not
    leak that state into each other or into the rest of the suite,
    where cold-run assertions count real compiles.
    """
    yield
    SOURCE_REGISTRY.clear_loaded()

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _warm_tmv(rows=8, cols=64, spec=TESLA_C2050, prune=True):
    """Compile + prune + serve one TMV shape; returns (program, io)."""
    DeviceArray.reset_base_allocator()
    compiled = api.compile(tmv.build(), arch=spec)
    if prune:
        compiled.prune_variants(samples=4)
    rng = np.random.default_rng(7)
    matrix, _vec, params = tmv.make_input(rows, cols, rng)
    out = np.asarray(compiled.run(matrix, params).output)
    return compiled, (matrix, params, out)


def _records(store: CalibrationStore) -> int:
    """Raw observation records a store holds (proof a payload loaded)."""
    return len(store.to_dict()["observations"])


@pytest.fixture
def saved_bundle(tmp_path):
    compiled, (matrix, params, out) = _warm_tmv()
    path = str(tmp_path / "tmv.bundle.json")
    compiled.save_bundle(path, meta={"app": "tmv"})
    return path, matrix, params, out


class TestAtomicWrite:
    def test_writes_readable_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": [1, 2]})
        with open(path) as handle:
            assert json.load(handle) == {"a": [1, 2]}

    def test_failed_write_preserves_previous_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"good": True})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        with open(path) as handle:
            assert json.load(handle) == {"good": True}

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, object())
        assert os.listdir(str(tmp_path)) == ["out.json"]

    def test_calibration_save_failure_preserves_previous(self, tmp_path):
        path = str(tmp_path / "cal.json")
        store = CalibrationStore()
        store.observe("fam", (("n", 8),), 3, 2.0, 1.0)
        store.save(path)
        before = open(path).read()
        bad = CalibrationStore()
        bad.observe("fam", (("n", object()),), 3, 2.0, 1.0)
        with pytest.raises(TypeError):
            bad.save(path)
        assert open(path).read() == before


class TestCodecs:
    def test_ndarray_round_trip_bit_exact(self):
        for array in (np.arange(7, dtype=np.intp),
                      np.random.default_rng(0).random((3, 5)),
                      np.array([np.inf, -np.inf, 0.0])):
            back = decode_ndarray(encode_ndarray(array))
            assert back.dtype == array.dtype
            assert back.tobytes() == array.tobytes()

    def test_scalars_round_trip_with_numpy_values(self):
        scalars = (("cols", np.int64(128)), ("rows", 8), ("x", 1.5))
        back = decode_scalars(encode_scalars(scalars))
        assert back == (("cols", 128), ("rows", 8), ("x", 1.5))
        assert all(not isinstance(v, np.generic) for _k, v in back)


class TestProgramFingerprint:
    def test_stable_across_rebuilds(self):
        # Auto-generated container ids advance between builds; the
        # fingerprint must not see them.
        assert (program_fingerprint(tmv.build(), "opts")
                == program_fingerprint(tmv.build(), "opts"))

    def test_differs_across_programs_and_options(self):
        from repro.apps import blas1
        base = program_fingerprint(tmv.build(), "opts")
        assert program_fingerprint(blas1.build("sdot"), "opts") != base
        assert program_fingerprint(tmv.build(), "other") != base
        assert program_fingerprint(tmv.build(), "opts", threads=64) != base


class TestCalibrationStoreRoundTrip:
    def _populated(self):
        store = CalibrationStore()
        store.set_model_bias("reduce.two_kernel", 3.0)
        for i in range(40):   # overflow one observation window
            store.observe("reduce.two_kernel", (("n", 1 << i % 5),),
                          bucket=9, observed_seconds=2.0 + i,
                          predicted_seconds=1.0,
                          variant="reduce.two_kernel@128")
        store.note_probe("seg0", 9)
        store.note_probe("seg0", 9)
        store.quarantine("reduce.single_kernel", 9, reason="raise")
        store.arch_fingerprint = TESLA_C2050.fingerprint()
        return store

    def test_save_load_to_dict_equality(self, tmp_path):
        store = self._populated()
        path = str(tmp_path / "cal.json")
        store.save(path)
        loaded = CalibrationStore()
        loaded.load(path, expected_arch=TESLA_C2050.fingerprint())
        assert loaded.to_dict() == store.to_dict()
        assert loaded.ewma("reduce.two_kernel", 9) == \
            store.ewma("reduce.two_kernel", 9)
        assert loaded.probes_used("seg0", 9) == 2
        assert loaded.is_quarantined("reduce.single_kernel", 9)
        assert loaded.observations("reduce.two_kernel@128",
                                   (("n", 1),), 9)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "cal.json")
        self._populated().save(path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[:len(text) // 2])
        with pytest.raises(CalibrationError):
            CalibrationStore().load(path)

    def test_unknown_version_rejected_naming_versions(self, tmp_path):
        payload = self._populated().to_dict()
        payload["version"] = 99
        path = str(tmp_path / "cal.json")
        atomic_write_json(path, payload)
        with pytest.raises(CalibrationError) as err:
            CalibrationStore().load(path)
        assert "99" in str(err.value) and "[1]" in str(err.value)

    def test_missing_version_defaults_to_v1(self):
        payload = self._populated().to_dict()
        del payload["version"]
        assert _records(CalibrationStore.from_dict(payload)) == 40

    def test_arch_mismatch_rejected_with_force_escape(self, tmp_path):
        path = str(tmp_path / "cal.json")
        self._populated().save(path)
        other = GTX_285.fingerprint()
        with pytest.raises(CalibrationError) as err:
            CalibrationStore().load(path, expected_arch=other)
        assert "force=True" in str(err.value)
        forced = CalibrationStore()
        forced.load(path, expected_arch=other, force=True)
        assert _records(forced) == 40

    def test_unstamped_store_loads_anywhere(self, tmp_path):
        store = self._populated()
        store.arch_fingerprint = None
        path = str(tmp_path / "cal.json")
        store.save(path)
        loaded = CalibrationStore()
        loaded.load(path, expected_arch=GTX_285.fingerprint())
        assert _records(loaded) == 40

    def test_program_save_calibration_stamps_arch(self, tmp_path):
        compiled, _io = _warm_tmv(prune=False)
        path = str(tmp_path / "cal.json")
        compiled.save_calibration(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["arch_fingerprint"] == TESLA_C2050.fingerprint()
        other = api.compile(tmv.build(), arch=GTX_285)
        with pytest.raises(CalibrationError):
            other.load_calibration(path)
        other.load_calibration(path, force=True)


class TestBundleRoundTrip:
    def test_payload_round_trip_equality(self, saved_bundle):
        path, _matrix, _params, _out = saved_bundle
        bundle = ArtifactBundle.load(path)
        again = ArtifactBundle.from_payload(bundle.to_payload())
        assert again.to_payload() == bundle.to_payload()

    def test_save_is_atomic_over_previous_bundle(self, saved_bundle):
        path, _matrix, _params, _out = saved_bundle
        before = open(path).read()
        bundle = ArtifactBundle.load(path)
        bundle.meta["boom"] = object()   # not JSON-serializable
        with pytest.raises(TypeError):
            bundle.save(path)
        assert open(path).read() == before

    def test_inspect_names_key_and_contents(self, saved_bundle):
        path, _matrix, _params, _out = saved_bundle
        text = ArtifactBundle.load(path).inspect()
        assert "tmv" in text and "tesla-c2050" in text
        assert "schema=2" in text and "segment" in text


class TestBundleRejection:
    def test_truncated_file(self, saved_bundle, tmp_path):
        path, _matrix, _params, _out = saved_bundle
        bad = str(tmp_path / "trunc.json")
        with open(path) as handle:
            text = handle.read()
        with open(bad, "w") as handle:
            handle.write(text[:200])
        with pytest.raises(BundleFormatError):
            ArtifactBundle.load(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BundleFormatError):
            ArtifactBundle.load(str(tmp_path / "nope.json"))

    def test_missing_fields(self, saved_bundle, tmp_path):
        path, _matrix, _params, _out = saved_bundle
        payload = json.loads(open(path).read())
        del payload["segments"]
        bad = str(tmp_path / "missing.json")
        atomic_write_json(bad, payload)
        with pytest.raises(BundleFormatError) as err:
            ArtifactBundle.load(bad)
        assert "segments" in str(err.value)

    def _rewrite(self, path, tmp_path, **changes):
        payload = json.loads(open(path).read())
        payload.update(changes)
        bad = str(tmp_path / "stale.json")
        atomic_write_json(bad, payload)
        return bad

    def test_schema_version_mismatch(self, saved_bundle, tmp_path):
        path, _matrix, _params, _out = saved_bundle
        bad = self._rewrite(path, tmp_path, schema_version=99)
        with pytest.raises(BundleVersionError) as err:
            ArtifactBundle.load(bad)
        assert "99" in str(err.value)

    def test_v1_table_bundle_rejected_before_any_mutation(
            self, saved_bundle, tmp_path):
        # Schema 1 carried a separate one-axis "table" payload; schema 2
        # reads only region tables, so a v1 bundle fails whole.
        path, _matrix, _params, _out = saved_bundle
        payload = json.loads(open(path).read())
        strategy = payload["segments"][0]["strategies"][0]
        payload["schema_version"] = 1
        payload["segments"][0]["dispatch"] = [{
            "axis": "rows", "lo": 4, "hi": 1 << 20,
            "extras": [["cols", 64]], "from_host": True, "samples": 4,
            "table": {"points": [4, 1 << 20], "choices": [], "times": [],
                      "subranges": [[4, 1 << 20, strategy]]}}]
        bad = str(tmp_path / "v1.json")
        atomic_write_json(bad, payload)
        compiled = api.compile(tmv.build())
        plans_before = list(compiled.segments[0].plans)
        memo_before = len(compiled.cost)
        with pytest.raises(BundleVersionError) as err:
            compiled.load_bundle(bad)
        assert "1" in str(err.value) and "re-save" in str(err.value)
        assert compiled.segments[0].plans == plans_before
        assert compiled.segments[0].dispatch is None
        assert len(compiled.cost) == memo_before
        assert compiled.calibration.is_identity()

    def test_repro_version_mismatch_and_force(self, saved_bundle,
                                              tmp_path):
        path, _matrix, _params, _out = saved_bundle
        bad = self._rewrite(path, tmp_path, repro_version="0.0.1")
        with pytest.raises(BundleVersionError) as err:
            api.load_bundle(bad)
        assert "0.0.1" in str(err.value)
        assert api.load_bundle(bad, force=True).program.name == "tmv"

    def test_arch_fingerprint_mismatch(self, saved_bundle):
        path, _matrix, _params, _out = saved_bundle
        with pytest.raises(BundleArchError) as err:
            api.load_bundle(path, arch=GTX_285)
        message = str(err.value)
        assert "tesla-c2050" in message and "re-save" in message
        # force does NOT override arch identity
        with pytest.raises(BundleArchError):
            api.load_bundle(path, arch=GTX_285, force=True)

    def test_program_fingerprint_mismatch(self, saved_bundle):
        from repro.apps import blas1
        path, _matrix, _params, _out = saved_bundle
        with pytest.raises(BundleProgramError):
            api.load_bundle(path, program=blas1.build("sdot"))

    def test_options_change_is_program_mismatch(self, saved_bundle):
        path, _matrix, _params, _out = saved_bundle
        with pytest.raises(BundleProgramError):
            api.load_bundle(
                path, options=api.AdapticOptions(threads=64))

    def test_unknown_strategy_rejected_before_any_mutation(
            self, saved_bundle, tmp_path):
        path, _matrix, _params, _out = saved_bundle
        payload = json.loads(open(path).read())
        payload["segments"][0]["strategies"][0] = "reduce.nonexistent"
        bad = str(tmp_path / "strategies.json")
        atomic_write_json(bad, payload)
        compiled = api.compile(tmv.build())
        plans_before = list(compiled.segments[0].plans)
        memo_before = len(compiled.cost)
        with pytest.raises(BundleProgramError) as err:
            compiled.load_bundle(bad)
        assert "reduce.nonexistent" in str(err.value)
        # nothing half-applied
        assert compiled.segments[0].plans == plans_before
        assert compiled.segments[0].dispatch is None
        assert len(compiled.cost) == memo_before
        assert compiled.calibration.is_identity()

    def test_meta_without_app_needs_explicit_program(self, saved_bundle,
                                                     tmp_path):
        path, _matrix, _params, _out = saved_bundle
        bad = self._rewrite(path, tmp_path, meta={})
        with pytest.raises(BundleProgramError) as err:
            api.load_bundle(bad)
        assert "program=" in str(err.value)

    def test_all_rejections_are_bundle_errors(self):
        for cls in (BundleFormatError, BundleVersionError,
                    BundleArchError, BundleProgramError):
            assert issubclass(cls, BundleError)
            assert issubclass(cls, api.ReproError)


class TestZeroColdStart:
    def test_in_process_first_run_zero_counters_bit_identical(
            self, saved_bundle):
        path, matrix, params, cold_out = saved_bundle
        SOURCE_REGISTRY.clear()   # drop self-recorded sources: hydration
        warm = api.load_bundle(path)   # must come from the bundle alone
        compile_before = COMPILE_COUNTER.snapshot()
        stats_before = warm.stats.snapshot()
        out = np.asarray(warm.run(matrix, dict(params)).output)
        compiled_delta = COMPILE_COUNTER.since(compile_before)
        stats = warm.stats.since(stats_before)
        assert stats.model_evals == 0
        assert compiled_delta.total == 0
        assert compiled_delta.hydrated > 0
        assert stats.expr_compiles == 0
        assert stats.expr_hydrations == compiled_delta.hydrated
        assert stats.restructure_builds == 0
        assert out.tobytes() == cold_out.tobytes()

    def test_fresh_process_first_run_zero_counters(self, saved_bundle):
        path, _matrix, _params, cold_out = saved_bundle
        script = """
import json, numpy as np
from repro import api
from repro.apps import tmv
from repro.compiler.exprgen import COMPILE_COUNTER
warm = api.load_bundle({path!r})
before = COMPILE_COUNTER.snapshot()
stats0 = warm.stats.snapshot()
rng = np.random.default_rng(7)
matrix, _vec, params = tmv.make_input(8, 64, rng)
out = np.asarray(warm.run(matrix, params).output)
delta = COMPILE_COUNTER.since(before)
stats = warm.stats.since(stats0)
print(json.dumps({{"out": out.tolist(),
                   "compiles": delta.total,
                   "hydrated": delta.hydrated,
                   "model_evals": stats.model_evals,
                   "perm_builds": stats.restructure_builds}}))
""".format(path=path)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["compiles"] == 0
        assert report["model_evals"] == 0
        assert report["perm_builds"] == 0
        assert report["hydrated"] > 0
        assert np.asarray(report["out"]).tobytes() == cold_out.tobytes()

    def test_cold_rerun_after_clear_still_counts_compiles(self):
        # The registry must never let self-recorded sources masquerade
        # as bundle hydrations: a cold re-run recompiles for real.
        compiled, (matrix, params, _out) = _warm_tmv()
        compiled.clear_warm_caches()
        before = COMPILE_COUNTER.snapshot()
        compiled.run(matrix, dict(params))
        delta = COMPILE_COUNTER.since(before)
        assert delta.total > 0
        assert delta.hydrated == 0

    def test_table_backed_bundle_serves_by_bisect(self, tmp_path):
        # Pin cols so a one-axis dispatch table bakes over rows; the
        # bundle then carries the table and the loaded program selects
        # by table lookup.
        DeviceArray.reset_base_allocator()
        compiled = api.compile(tmv.build())
        compiled.prune_variants(samples=4, extra_params={"cols": 64})
        rng = np.random.default_rng(3)
        matrix, _vec, params = tmv.make_input(16, 64, rng)
        cold_out = np.asarray(compiled.run(matrix, params).output)
        assert compiled.segments[0].dispatch is not None
        path = str(tmp_path / "table.bundle.json")
        compiled.save_bundle(path, meta={"app": "tmv"})
        warm = api.load_bundle(path)
        dispatch = warm.segments[0].dispatch
        assert dispatch is not None
        assert dispatch.region.names == ("rows",)
        assert dispatch.region.to_payload() == \
            compiled.segments[0].dispatch.region.to_payload()
        runs = [box["rows"] for box, _winner in dispatch.region.leaves()]
        for (_lo, hi), (lo, _hi) in zip(runs, runs[1:]):
            assert lo == hi + 1
        stats_before = warm.stats.snapshot()
        out = np.asarray(warm.run(matrix, dict(params)).output)
        stats = warm.stats.since(stats_before)
        assert stats.table_hits >= 1
        assert stats.model_evals == 0
        assert out.tobytes() == cold_out.tobytes()

    def test_bundle_restores_quarantines_and_calibration(self, tmp_path):
        compiled, (matrix, params, _out) = _warm_tmv()
        compiled.calibration.observe(
            "reduce.two_kernel", (("cols", 64), ("rows", 8)), 9, 2.0, 1.0)
        compiled.calibration.quarantine("reduce.single_kernel", 9, "raise")
        path = str(tmp_path / "cal.bundle.json")
        compiled.save_bundle(path, meta={"app": "tmv"})
        warm = api.load_bundle(path)
        assert warm.calibration.is_quarantined("reduce.single_kernel", 9)
        assert warm.calibration.ewma("reduce.two_kernel", 9) == \
            compiled.calibration.ewma("reduce.two_kernel", 9)
        assert warm.calibration.arch_fingerprint == \
            TESLA_C2050.fingerprint()

    def test_run_many_after_bundle_load_is_warm(self, saved_bundle):
        path, _matrix, _params, _out = saved_bundle
        warm = api.load_bundle(path)
        rng = np.random.default_rng(7)
        inputs, bindings = [], []
        for rows, cols in ((8, 64), (8, 64)):
            matrix, _vec, params = tmv.make_input(rows, cols, rng)
            inputs.append(matrix)
            bindings.append(params)
        stats_before = warm.stats.snapshot()
        results = warm.run_many(inputs, bindings)
        stats = warm.stats.since(stats_before)
        assert len(results) == 2
        assert stats.model_evals == 0
        assert stats.expr_compiles == 0
