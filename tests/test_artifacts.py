"""Zero-cold-start artifact bundles: round-trip fidelity and rejection.

Covers the persistence tentpole end to end: atomic JSON writing (a
failed save preserves the previous good file), `CalibrationStore`
save→load→to_dict equality with version/arch gates, `ArtifactBundle`
payload round trips, loud rejection of truncated/stale/cross-arch
bundles (each its own `BundleError` subclass, nothing half-applied),
and the counter-asserted contract itself — a bundle-loaded program's
first requests run no prune or bake, make exactly the model
evaluations, permutation builds and expression compiles the same
requests make after ``clear_warm_caches()``, and are bit-identical to
a cold-compiled run, both in-process and from a genuinely fresh
interpreter.  A bundle holds decisions, not caches: what a program has
served never changes the bytes it saves, and the cost memo entries
and permutations older bundles carried are ignored.  Bundles saved by
older code (``tests/data/``) still serve, or are refused, by the same
checks, and the kernel source they carry never runs.
"""

import base64
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import Filter, Pipeline, StreamProgram, api
from repro.apps import tmv
from repro.artifacts import (ArtifactBundle, BUNDLE_SCHEMA_VERSION,
                             atomic_write_json, decode_scalars,
                             encode_scalars, program_fingerprint)
from repro.compiler.exprgen import COMPILE_COUNTER
from repro.errors import (BundleArchError, BundleError, BundleFormatError,
                          BundleProgramError, BundleVersionError,
                          CalibrationError)
from repro.gpu import DeviceArray, GTX_285, TESLA_C2050
from repro.perfmodel import CalibrationStore

from workloads import SCALE_SRC, SQUARE_SRC, SUM_SRC

pytestmark = pytest.mark.artifacts

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _compiles(call):
    """``(result, expression compiles)`` of one call."""
    before = COMPILE_COUNTER.snapshot()
    result = call()
    return result, COMPILE_COUNTER.since(before).total


def _work(program, call):
    """``(result, counters)`` of one call on ``program``: the model
    evaluations it made (and the compile-time ones among them), the
    permutations it built and the expression functions it compiled."""
    stats_before = program.stats.snapshot()
    result, compiles = _compiles(call)
    stats = program.stats.since(stats_before)
    return result, {"model_evals": stats.model_evals,
                    "compile_evals": stats.compile_evals,
                    "perm_builds": stats.restructure_builds,
                    "compiles": compiles}


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
        store.observe("fam", 3, 2.0, 1.0)
        store.save(path)
        before = open(path).read()
        bad = CalibrationStore()
        bad.quarantine("fam", 3, reason=object())   # not JSON-serializable
        with pytest.raises(TypeError):
            bad.save(path)
        assert open(path).read() == before


class TestCodecs:
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
        for i in range(3):
            store.observe("reduce.two_kernel", bucket=9,
                          observed_seconds=2.0 + i, predicted_seconds=1.0)
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

    def test_retired_observation_log_is_ignored(self):
        """Stores saved with the raw observation log still load; the
        ``observations`` key is ignored."""
        store = self._populated()
        payload = store.to_dict()
        payload["observations"] = [{
            "variant": "reduce.two_kernel@128", "scalars": [["n", 1]],
            "bucket": 9, "observed_seconds": 2.0, "predicted_seconds": 1.0,
            "restructure_seconds": 0.0, "transfer_seconds": 0.0}]
        assert CalibrationStore.from_dict(payload).to_dict() == \
            store.to_dict()

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
        store = self._populated()
        payload = store.to_dict()
        del payload["version"]
        assert CalibrationStore.from_dict(payload).to_dict() == \
            store.to_dict()

    def test_arch_mismatch_rejected_with_force_escape(self, tmp_path):
        path = str(tmp_path / "cal.json")
        store = self._populated()
        store.save(path)
        other = GTX_285.fingerprint()
        with pytest.raises(CalibrationError) as err:
            CalibrationStore().load(path, expected_arch=other)
        assert "force=True" in str(err.value)
        forced = CalibrationStore()
        forced.load(path, expected_arch=other, force=True)
        assert forced.to_dict() == store.to_dict()

    def test_unstamped_store_loads_anywhere(self, tmp_path):
        store = self._populated()
        store.arch_fingerprint = None
        path = str(tmp_path / "cal.json")
        store.save(path)
        loaded = CalibrationStore()
        loaded.load(path, expected_arch=GTX_285.fingerprint())
        assert loaded.to_dict() == store.to_dict()

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
    """The first run after a load runs no prune or bake, and makes
    exactly the model evaluations, permutation builds and expression
    compiles the same run makes after ``clear_warm_caches()``."""

    def test_in_process_first_run_matches_cleared_run_bit_identical(
            self, saved_bundle):
        path, matrix, params, cold_out = saved_bundle
        warm = api.load_bundle(path)
        stats_before = warm.stats.snapshot()
        result, loaded = _work(warm, lambda: warm.run(matrix, dict(params)))
        assert warm.stats.since(stats_before).expr_compiles == \
            loaded["compiles"]
        assert loaded["compile_evals"] == 0
        assert np.asarray(result.output).tobytes() == cold_out.tobytes()
        warm.clear_warm_caches()
        again, cleared = _work(warm, lambda: warm.run(matrix, dict(params)))
        assert loaded == cleared
        assert loaded["compiles"] > 0
        assert np.asarray(again.output).tobytes() == cold_out.tobytes()
        assert again.predicted_kernel_seconds == \
            result.predicted_kernel_seconds

    def test_fresh_process_first_run_matches_cleared_run(self, saved_bundle):
        path, _matrix, _params, cold_out = saved_bundle
        script = """
import json, numpy as np
from repro import api
from repro.apps import tmv
from repro.compiler.exprgen import COMPILE_COUNTER
warm = api.load_bundle({path!r})
rng = np.random.default_rng(7)
matrix, _vec, params = tmv.make_input(8, 64, rng)

def work():
    before = COMPILE_COUNTER.snapshot()
    stats0 = warm.stats.snapshot()
    out = np.asarray(warm.run(matrix, params).output)
    stats = warm.stats.since(stats0)
    return out, {{"model_evals": stats.model_evals,
                 "compile_evals": stats.compile_evals,
                 "perm_builds": stats.restructure_builds,
                 "compiles": COMPILE_COUNTER.since(before).total,
                 "table_hits": stats.table_hits}}

out, loaded = work()
warm.clear_warm_caches()
again, cleared = work()
print(json.dumps({{"out": out.tolist(), "again": again.tolist(),
                   "loaded": loaded, "cleared": cleared}}))
""".format(path=path)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["loaded"] == report["cleared"]
        assert report["loaded"]["compile_evals"] == 0
        assert report["loaded"]["table_hits"] == 1
        assert report["loaded"]["compiles"] > 0
        for key in ("out", "again"):
            assert np.asarray(report[key]).tobytes() == cold_out.tobytes()

    def test_cold_rerun_after_clear_still_counts_compiles(self):
        compiled, (matrix, params, _out) = _warm_tmv()
        compiled.clear_warm_caches()
        _result, compiles = _compiles(
            lambda: compiled.run(matrix, dict(params)))
        assert compiles > 0

    def test_table_backed_bundle_serves_by_bisect(self, tmp_path):
        # Pin cols so a one-axis dispatch table bakes over rows; the
        # bundle then carries the table and the loaded program selects
        # by table lookup, with zero model evaluations.
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
        warm.select(dict(params))
        selected = warm.stats.since(stats_before)
        assert selected.table_hits == 1
        assert selected.model_evals == 0
        stats_before = warm.stats.snapshot()
        result, loaded = _work(warm, lambda: warm.run(matrix, dict(params)))
        assert warm.stats.since(stats_before).table_hits >= 1
        assert loaded["compile_evals"] == 0
        assert np.asarray(result.output).tobytes() == cold_out.tobytes()
        warm.clear_warm_caches()
        _again, cleared = _work(warm, lambda: warm.run(matrix, dict(params)))
        assert loaded == cleared

    def test_bundle_restores_quarantines_and_calibration(self, tmp_path):
        compiled, (matrix, params, _out) = _warm_tmv()
        compiled.calibration.observe("reduce.two_kernel", 9, 2.0, 1.0)
        compiled.calibration.quarantine("reduce.single_kernel", 9, "raise")
        path = str(tmp_path / "cal.bundle.json")
        compiled.save_bundle(path, meta={"app": "tmv"})
        warm = api.load_bundle(path)
        assert warm.calibration.is_quarantined("reduce.single_kernel", 9)
        assert warm.calibration.ewma("reduce.two_kernel", 9) == \
            compiled.calibration.ewma("reduce.two_kernel", 9)
        assert warm.calibration.arch_fingerprint == \
            TESLA_C2050.fingerprint()

    def test_run_many_after_bundle_load_matches_cleared_run(
            self, saved_bundle):
        path, _matrix, _params, _out = saved_bundle
        warm = api.load_bundle(path)
        rng = np.random.default_rng(7)
        inputs, bindings = [], []
        for rows, cols in ((8, 64), (8, 64)):
            matrix, _vec, params = tmv.make_input(rows, cols, rng)
            inputs.append(matrix)
            bindings.append(params)
        results, loaded = _work(warm,
                                lambda: warm.run_many(inputs, bindings))
        assert len(results) == 2
        assert loaded["compile_evals"] == 0
        warm.clear_warm_caches()
        again, cleared = _work(warm,
                               lambda: warm.run_many(inputs, bindings))
        assert loaded == cleared
        for first, second in zip(results, again):
            assert np.asarray(first.output).tobytes() == \
                np.asarray(second.output).tobytes()


class TestBundlesCarryDecisionsNotCaches:
    """A bundle holds surviving variants, tables and calibration, never
    the warm caches a fresh process recomputes from the IR."""

    def test_saved_bytes_do_not_depend_on_what_was_served(self, tmp_path):
        """Saved after one served shape and after all twelve of the
        serving benchmark's shapes, the bundle is the same file."""
        DeviceArray.reset_base_allocator()
        compiled = api.compile(tmv.build())
        compiled.prune_variants()
        shapes = tmv.shape_sweep(1 << 8) + tmv.shape_sweep(1 << 10)
        assert len(shapes) == 12
        rng = np.random.default_rng(11)
        saved = []
        for served in (shapes[:1], shapes[1:]):
            for rows, cols in served:
                matrix, _vec, params = tmv.make_input(rows, cols, rng)
                compiled.run(matrix, params)
            path = tmp_path / f"served{len(saved)}.bundle.json"
            compiled.save_bundle(str(path), meta={"app": "tmv"})
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]
        payload = json.loads(saved[0])
        assert "costs" not in payload
        assert all("permutations" not in segment
                   for segment in payload["segments"])

    def test_carried_costs_and_permutations_are_ignored(self, tmp_path):
        """Older bundles carried cost memo entries and restructure
        permutations.  Reverse the permutation a 256x4 request stages
        its input with and set that request's cost entry to -1.0: the
        loaded run still computes and prices what an honest program
        does."""
        from repro.compiler.plans.base import freeze_scalars

        DeviceArray.reset_base_allocator()
        honest = api.compile(tmv.build())
        honest.prune_variants(samples=4)
        matrix, _vec, params = tmv.make_input(256, 4,
                                              np.random.default_rng(5))
        expected = honest.run(matrix, dict(params))
        plan, = honest.select(params)
        perm = plan.restructure_permutation(matrix.size, params)
        assert perm is not None
        path = str(tmp_path / "tampered.bundle.json")
        honest.save_bundle(path, meta={"app": "tmv"})
        with open(path) as handle:
            payload = json.load(handle)
        scalars = encode_scalars(freeze_scalars(params))
        reverse = np.ascontiguousarray(perm[::-1], dtype=np.intp)
        segment = payload["segments"][0]
        segment["permutations"] = [{
            "strategy": plan.strategy, "size": int(matrix.size),
            "scalars": scalars,
            "perm": {"dtype": reverse.dtype.str,
                     "shape": list(reverse.shape),
                     "data": base64.b64encode(
                         reverse.tobytes()).decode("ascii")}}]
        payload["costs"] = [{"segment": segment["name"],
                             "strategy": plan.strategy,
                             "scalars": scalars, "seconds": -1.0}]
        atomic_write_json(path, payload)
        result = api.load_bundle(path).run(matrix, dict(params))
        assert np.asarray(result.output).tobytes() == \
            np.asarray(expected.output).tobytes()
        assert result.predicted_kernel_seconds == \
            expected.predicted_kernel_seconds > 0


class TestBundlesSavedBeforeChainFusionRemoval:
    """Bundles saved at commit ``5667b6f``, before the runtime's own
    segment-chain fusion option (options label ``+fuse``) was deleted,
    by one vectorized run of :meth:`_compat_program` at n=256, a=1.75
    (input ``default_rng(6).standard_normal(256)``) and ``save_bundle``
    with that run's output in ``meta``.  The schema did not change."""

    def _compat_program(self):
        return StreamProgram(
            Pipeline(Filter(SCALE_SRC, pop="n", push="n"),
                     Filter(SQUARE_SRC, pop="n", push="n"),
                     Filter(SUM_SRC, pop="n", push=1)),
            params=["n", "a"], input_size="n", name="chain_compat")

    def _load(self, bundle):
        """Load ``bundle`` into a fresh program; returns the program and
        a call that runs the bundle's recorded request on it."""
        compiled = api.compile(self._compat_program())
        compiled.load_bundle(bundle)
        params = bundle.meta["params"]
        data = np.random.default_rng(bundle.meta["seed"]).standard_normal(
            params["n"])
        return compiled, lambda: compiled.run(
            data, params,
            options=api.RunOptions(exec_mode=api.ExecMode.VECTORIZED))

    def test_default_options_bundle_serves_bit_identically(self):
        bundle = ArtifactBundle.load(
            os.path.join(DATA, "chain_compat_default.json"))
        assert bundle.schema_version == BUNDLE_SCHEMA_VERSION
        compiled, run = self._load(bundle)
        result, loaded = _work(compiled, run)
        assert loaded["compile_evals"] == 0
        expected = np.asarray(bundle.meta["output"], dtype=np.float64)
        assert result.output.tobytes() == expected.tobytes()
        compiled.clear_warm_caches()
        again, cleared = _work(compiled, run)
        assert loaded == cleared
        assert loaded["compiles"] > 0
        assert again.output.tobytes() == expected.tobytes()

    def test_carried_kernel_source_never_runs(self, tmp_path):
        """The compat bundle still carries the kernel ``sources`` older
        builds wrote.  Rewrite the vector element function the recorded
        request runs so that executing it writes a file and raises: the
        load ignores the key, and the run renders its functions from
        the program's IR."""
        with open(os.path.join(DATA, "chain_compat_default.json")) as f:
            payload = json.load(f)
        marker = tmp_path / "bundle-code-ran"
        key, = [k for k in payload["sources"]
                if k.startswith("vector|velem|")]
        payload["sources"][key] = (
            f"open({str(marker)!r}, 'w').write('ran')\n"
            "def velem(_x0, _i):\n"
            "    raise RuntimeError('bundle-carried code ran')\n")
        path = str(tmp_path / "tampered.bundle.json")
        atomic_write_json(path, payload)
        bundle = ArtifactBundle.load(path)
        _compiled, run = self._load(bundle)
        result = run()
        expected = np.asarray(bundle.meta["output"], dtype=np.float64)
        assert result.output.tobytes() == expected.tobytes()
        assert not marker.exists()

    def test_runtime_fusion_bundle_is_refused(self):
        """Its options label ends in ``+fuse``, which no program has
        now, so the program fingerprint check refuses it."""
        path = os.path.join(DATA, "chain_compat_fuse.json")
        assert ArtifactBundle.load(path).options_label.endswith("+fuse")
        compiled = api.compile(self._compat_program(),
                               options=api.AdapticOptions(integration=False))
        with pytest.raises(BundleProgramError):
            compiled.load_bundle(path)
