from __future__ import annotations

import json
import multiprocessing
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

import genquot as gq
from genquot.experiments import DEFAULT_THRESHOLDS, SuiteConfig


REPO = Path(__file__).resolve().parent.parent


def tiny(suite, **kw):
    defaults = dict(master_seed=202, trials=3)
    defaults.update(kw)
    return gq.default_config(suite, **defaults)


def test_suite_ids_agree_with_schema_and_readme():
    schema = json.loads((REPO / "report-schema.json").read_text())
    assert tuple(schema["properties"]["suite"]["enum"]) == gq.SUITE_IDS
    readme = (REPO / "README.md").read_text().split("## Verification suites", 1)[1]
    table = {line.split("`")[1] for line in readme.splitlines() if line.startswith("| `")}
    assert table == set(gq.SUITE_IDS)


class TestFitConstant:
    def test_exact_exp_decay(self):
        xs = np.arange(1, 8, dtype=float)
        pts = [(x, np.exp(-0.3 * x)) for x in xs]
        fit = gq.fit_constant(pts)
        assert fit.constant == pytest.approx(0.3, abs=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_noisy_decay_recovers_truth(self):
        rng = np.random.default_rng(99)
        true_c = 0.42
        xs = np.arange(1.0, 30.0)
        ys = np.exp(-true_c * xs) * np.exp(rng.normal(0, 0.05, size=xs.size))
        fit = gq.fit_constant(list(zip(xs, ys)))
        # least-squares slope error ~ sigma / (sqrt(n) * std(x))
        assert abs(fit.constant - true_c) <= 3 * 0.05 / (np.sqrt(xs.size) * np.std(xs))
        assert fit.residual > 0

    def test_degenerate_data(self):
        with pytest.raises(gq.FitError):
            gq.fit_constant([(1.0, 2.0)])
        with pytest.raises(gq.FitError):
            gq.fit_constant([(1.0, 0.0), (2.0, 1.0)])
        with pytest.raises(gq.FitError):
            gq.fit_constant([(1.0, 1.0), (1.0, 2.0)])


class TestSuiteConfig:
    def test_unknown_suite_rejected(self):
        with pytest.raises(gq.UsageError):
            SuiteConfig(suite_id="nosuch", trials=1, master_seed=0, size_grid=((2, 4),))
        with pytest.raises(gq.UsageError):
            gq.default_config("nosuch", master_seed=0)

    @pytest.mark.parametrize("suite", ["lemmaB", "thm22"])
    def test_empty_size_grid_rejected(self, suite):
        with pytest.raises(gq.UsageError, match="size_grid"):
            gq.default_config(suite, master_seed=0, size_grid=())

    @pytest.mark.parametrize("suite", ["lemmaA", "fact31"])
    def test_sampled_suite_needs_samples(self, suite):
        with pytest.raises(gq.UsageError, match="samples"):
            SuiteConfig(suite_id=suite, trials=1, master_seed=1, size_grid=((10,),))
        assert SuiteConfig(suite_id=suite, trials=1, master_seed=1, size_grid=((10,),),
                           samples=1).samples == 1
        assert SuiteConfig(suite_id="corC", trials=1, master_seed=1,
                           size_grid=((4, 8),)).samples == 0

    def test_missing_calibrated_threshold(self):
        cfg = tiny("prop41")
        with pytest.raises(gq.UsageError):
            cfg.threshold("l1_iso_max")

    def test_builtin_threshold_fallback(self):
        cfg = tiny("corC")
        assert cfg.threshold("corC_stability") == DEFAULT_THRESHOLDS["corC_stability"]


# Small configs in which every trial of grid cell 1 fails: suite id ->
# (config overrides, failed trials, {(report part, key): value after the
# failure}). thm22 is absent: its identity check builds each cell's body
# outside the trial guard, so the injected error propagates from run_suite.
_MISSING_CELL = {
    "lemmaA": (dict(trials=2, samples=200, size_grid=((10,), (20,))), 2, {
        ("aggregate", "cells"): {"d=10": ANY, "d=20": {
            "d": 20, "samples": 0, "mean_sq": 0.0, "freq_ge2": 1.0,
            "freq_le_half": 1.0, "freq_out": 1.0}}}),
    "lemmaB": (dict(trials=2, size_grid=((4, 8), (5, 10))), 2, {
        ("aggregate", "cells"): {"4x8": ANY,
                                 "5x10": {"violations": 1, "min_sv": 0.0, "max_sv": 0.0}}}),
    "corC": (dict(trials=2, size_grid=((4, 8), (5, 10))), 2, {
        ("aggregate", "cells"): {"4x8": ANY, "5x10": {
            "c_median": 0.0, "c_min": 0.0, "frac_above_floor": 0.0}}}),
    "lemmaD": (dict(trials=2, samples=10_000, size_grid=((3, 48), (9, 36))), 2, {
        ("aggregate", "cells"): {"3x48": ANY, "9x36": {"kind": "missing"}}}),
    "fact31": (dict(trials=1, samples=1_000, size_grid=((6, 24), (6, 36))), 1, {
        ("aggregate", "cells"): {"6x24": ANY, "6x36": {
            "mw_ratio_max": 1e30, "section_C_max": 1e30, "fact32_c1": 0.0}}}),
    "thm32": (dict(trials=2, size_grid=((6, 24), (8, 32))), 2, {
        ("aggregate", "cells"): {"6x24": ANY, "8x32": {"c_fit": 0.0, "floor_fit": 0.0}}}),
    "prop41": (dict(trials=2, size_grid=((9, 81), (16, 128))), 2, {}),
    "prop42": (dict(trials=2, size_grid=((9, 81), (16, 256))), 4, {
        ("fitted", "compl_alpha_0.5"): 0.0, ("aggregate", "alpha_monotone"): False}),
    "hsbound": (dict(trials=2, size_grid=((4, 8), (5, 10))), 2, {}),
    "thm22": (dict(trials=2, size_grid=((6, 24), (8, 32))), 2, {
        ("aggregate", "cells"): {"6x24": ANY, "8x32": {
            "K_fit": 0.0, "K_bracket_fit": 0.0, "identity_ratio": None}},
        ("aggregate", "identity_exact"): False}),
}


class TestRunSuite:
    def test_deterministic_rerun(self, tmp_path):
        cfg = tiny("lemmaA", trials=5, samples=200)
        r1 = gq.run_suite(cfg)
        r2 = gq.run_suite(cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        gq.write_report(r1, "json", p1)
        gq.write_report(r2, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trial_errors_recorded_and_fail_suite(self, monkeypatch):
        import genquot.experiments as ex

        real = ex.make_body
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise gq.NumericError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(ex, "make_body", flaky)
        rep = gq.run_suite(tiny("corC", trials=4, size_grid=((4, 8),)))
        assert rep.aggregate["error_count"] == 2
        assert not rep.passed
        assert any("error" in r for r in rep.trials)

    def test_thread_counts_do_not_change_bytes(self, tmp_path, thresholds):
        # el2_sigma_min above 1 fails every prop41 retry: ConditionFailed records
        failing = {**thresholds, "el2_sigma_min": 2.0}
        for cfg in (tiny("lemmaB", trials=4, size_grid=((5, 10), (8, 16))),
                    tiny("prop41", trials=2, size_grid=((9, 81), (16, 128)),
                         thresholds=failing)):
            blobs = []
            for threads in (1, 2, 8):
                rep = gq.run_suite(cfg, threads=threads)
                path = tmp_path / f"{cfg.suite_id}-t{threads}.json"
                gq.write_report(rep, "json", path)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2]
        assert {r["failed_tag"] for r in rep.trials} == {"el2"}

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patched module reaches workers only by fork")
    def test_error_records_pass_through_workers(self, monkeypatch):
        import genquot.experiments as ex

        real = ex.make_body

        def odd_trials_fail(n, big_n, sd):
            if (sd.stream_index // (1 << 16)) % 2:
                raise gq.SolverStall("synthetic stall")
            return real(n, big_n, sd)

        monkeypatch.setattr(ex, "make_body", odd_trials_fail)
        cfg = tiny("hsbound", trials=4, size_grid=((4, 8), (5, 10)))
        one, two = gq.run_suite(cfg, threads=1), gq.run_suite(cfg, threads=2)
        assert two == one
        assert two.aggregate["error_count"] == 4
        assert [r.get("error") for r in two.trials[:2]] == [None, "SolverStall: synthetic stall"]

    @staticmethod
    def fail_grid_cell_1(monkeypatch):
        """Every body and Gaussian matrix drawn for grid cell 1 (prop42: alpha
        cell 1) raises NumericError."""
        import genquot.experiments as ex

        real_body, real_gaussian = ex.make_body, ex.gaussian_matrix

        def fail_cell(sd):
            if sd.stream_index // (1 << 32) in (1, 101):
                raise gq.NumericError("injected failure")

        monkeypatch.setattr(ex, "make_body",
                            lambda n, big_n, sd: fail_cell(sd) or real_body(n, big_n, sd))
        monkeypatch.setattr(ex, "gaussian_matrix",
                            lambda r, c, v, sd: fail_cell(sd) or real_gaussian(r, c, v, sd))

    @pytest.mark.parametrize("suite", list(_MISSING_CELL))
    def test_cell_with_every_trial_failed(self, monkeypatch, tmp_path, thresholds, suite):
        kw, failures, placeholders = _MISSING_CELL[suite]
        self.fail_grid_cell_1(monkeypatch)
        rep = gq.run_suite(gq.default_config(suite, master_seed=7, thresholds=thresholds, **kw))
        path = tmp_path / "rep.json"
        gq.write_report(rep, "json", path)  # refuses NaN and infinities
        payload = json.loads(path.read_text())
        assert payload["pass"] is False
        assert payload["aggregate"]["error_count"] == failures
        for (part, key), expected in placeholders.items():
            assert payload[part][key] == expected

    def test_lemma_d_missing_volume_cell_joins_volume_family(self, monkeypatch, thresholds):
        # cell 1 (3x48) is a volume cell by the grid, whatever its records say
        self.fail_grid_cell_1(monkeypatch)
        rep = gq.run_suite(gq.default_config("lemmaD", master_seed=7, thresholds=thresholds,
                                             trials=2, samples=10_000,
                                             size_grid=((9, 36), (3, 48))))
        assert rep.aggregate["cells"]["3x48"] == {"kind": "missing"}
        assert rep.fitted["cprime"] == rep.aggregate["cells"]["9x36"]["cprime_median"]
        assert rep.fitted["Cprime_stability"] == 1e30
        assert rep.passed is False

    def test_usage_error_in_pooled_trial_reaches_parent(self):
        # prop42 main trials read l2_distortion_max, which no default supplies
        with pytest.raises(gq.UsageError, match="l2_distortion_max"):
            gq.run_suite(tiny("prop42", trials=2, size_grid=((9, 81),)), threads=2)


class TestReportIo:
    def test_json_roundtrip(self, tmp_path):
        rep = gq.run_suite(tiny("lemmaB", trials=3, size_grid=((4, 8),)))
        path = tmp_path / "rep.json"
        gq.write_report(rep, "json", path)
        loaded = gq.read_report(path)
        assert loaded == rep
        payload = json.loads(path.read_text())
        assert payload["schema"] == "genquot-report/1"
        assert set(payload) == {"schema", "suite", "config", "trials", "aggregate",
                                "fitted", "pass", "artifact_version"}

    def test_csv_row_count(self, tmp_path):
        rep = gq.run_suite(tiny("lemmaB", trials=4, size_grid=((4, 8), (5, 10))))
        path = tmp_path / "rep.csv"
        gq.write_report(rep, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(rep.trials) + 1
        assert lines[0].split(",")[0] <= lines[0].split(",")[1]  # sorted header

    def test_unwritable_path(self):
        rep = gq.run_suite(tiny("lemmaB", trials=2, size_grid=((4, 8),)))
        with pytest.raises(gq.IoError) as err:
            gq.write_report(rep, "json", "/nonexistent-dir/report.json")
        assert "/nonexistent-dir/report.json" in str(err.value)

    def test_unknown_format(self, tmp_path):
        rep = gq.run_suite(tiny("lemmaB", trials=2, size_grid=((4, 8),)))
        with pytest.raises(gq.UsageError):
            gq.write_report(rep, "xml", tmp_path / "rep.xml")

    def test_thresholds_roundtrip(self, tmp_path):
        path = tmp_path / "th.json"
        data = {"l1_iso_max": 1.25, "c_cal": 0.25}
        gq.write_thresholds(data, path)
        assert gq.read_thresholds(path) == data


class TestSmallSuiteRuns:
    """Cheap smoke runs; acceptance-scale runs live in test_acceptance."""

    def test_lemma_a_small(self):
        rep = gq.run_suite(tiny("lemmaA", trials=20, samples=500,
                                size_grid=((10,), (20,), (40,))))
        assert set(rep.aggregate["cells"]) == {"d=10", "d=20", "d=40"}

    def test_cor_c_small(self):
        rep = gq.run_suite(tiny("corC", trials=6, size_grid=((9, 18), (16, 32))))
        assert rep.fitted["c"] > 0
        assert rep.passed

    def test_lemma_d_small(self):
        rep = gq.run_suite(tiny("lemmaD", trials=5, samples=10_000,
                                size_grid=((16, 118), (16, 874), (3, 48))))
        assert rep.fitted["cprime"] > 0
        assert rep.fitted["Cprime"] > 0

    def test_fact31_small(self):
        rep = gq.run_suite(tiny("fact31", trials=2, samples=2_000,
                                size_grid=((8, 64),)))
        assert rep.fitted["c2_meanwidth"] > 0
        assert rep.fitted["c1_fact32"] > 0

    def test_thm22_small(self):
        rep = gq.run_suite(tiny("thm22", trials=4, size_grid=((8, 16), (16, 32))))
        assert rep.aggregate["identity_exact"]
        assert rep.fitted["K"] > 0

    def test_thm32_small(self):
        rep = gq.run_suite(tiny("thm32", trials=4, size_grid=((8, 64),)))
        assert rep.fitted["c"] > 0

    def test_thm32_runs_no_inradius_estimate(self, monkeypatch):
        # Theorem 3.2's trend is on the Euclidean shifted s-number sum alone
        def no_radii(*args, **kwargs):
            raise AssertionError("thm32 must not estimate the inradius")

        monkeypatch.setattr(gq.experiments, "radii", no_radii)
        rep = gq.run_suite(tiny("thm32", trials=1, size_grid=((8, 64),)))
        assert rep.aggregate["error_count"] == 0
        assert rep.trials[0]["sum_value"] > 0

    def test_thm22_runs_no_inradius_estimate(self, no_radii):
        # the Gelfand bracket is built on the body's certified inradius floor
        rep = gq.run_suite(tiny("thm22", trials=1, size_grid=((8, 16),)))
        assert rep.aggregate["error_count"] == 0
        assert rep.trials[0]["bracket_upper_ratio"] > 0

    def test_thm22_lapack_failure_is_a_trial_error(self, svd_fails_on_square):
        rep = gq.run_suite(tiny("thm22", trials=1, size_grid=((8, 16),)))
        assert rep.aggregate["error_count"] == 1
        assert rep.trials[0]["error"].startswith("NumericError: SVD did not converge")
        assert not rep.passed

    def test_fact31_lapack_failure_is_a_trial_error(self, svd_fails_on_square):
        # the body's SVD (n < N) succeeds; the square T's fails inside the trial
        rep = gq.run_suite(tiny("fact31", trials=1, samples=1_000, size_grid=((6, 24),)))
        assert rep.aggregate["error_count"] == 1 and len(rep.trials) == 1
        assert rep.trials[0]["error"].startswith("NumericError: SVD did not converge")

    def test_lemma_b_lapack_failure_is_a_trial_error(self, svd_always_fails):
        rep = gq.run_suite(tiny("lemmaB", trials=1, size_grid=((5, 10),)))
        assert rep.aggregate["error_count"] == 1 and len(rep.trials) == 1
        assert rep.trials[0]["error"].startswith("NumericError: SVD did not converge")

    def test_hsbound_small(self):
        rep = gq.run_suite(tiny("hsbound", trials=5, size_grid=((6, 24),)))
        assert rep.passed
        assert rep.aggregate["violations"] == 0

    def test_prop41_small(self, thresholds):
        rep = gq.run_suite(tiny("prop41", trials=6, size_grid=((25, 200),),
                                thresholds=thresholds))
        assert rep.fitted["success_rate"] >= 0.8

    def test_prop42_small(self, thresholds):
        rep = gq.run_suite(tiny("prop42", trials=4, size_grid=((9, 81),),
                                thresholds=thresholds))
        assert rep.fitted["success_rate"] >= 0.75
        assert "compl_alpha_0.5" in rep.fitted


class TestCalibrate:
    def test_calibrate_writes_usable_thresholds(self, tmp_path):
        th = gq.calibrate(master_seed=31415, trials=4)
        for key in ("l1_iso_max", "l1_compl_max", "l2_distortion_max", "l2_compl_max"):
            assert th[key] > 0
        path = tmp_path / "th.json"
        gq.write_thresholds(th, path)
        again = gq.read_thresholds(path)
        assert again == th
        rep = gq.run_suite(tiny("prop41", trials=4, size_grid=((36, 1296),),
                                master_seed=31415, thresholds=again))
        assert rep.passed  # same seed as calibration, margin 1.5x
