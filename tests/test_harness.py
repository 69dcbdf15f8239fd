"""Harness behavior: runs, sweeps, oracle reports, CLI, reproducibility."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mgdm
from mgdm import harness, priors
from mgdm.cli import build_parser, main
from mgdm.sampler import IndexDistribution


def compare_config(n_runs=2000, K=8, R=2, backend="exact"):
    return {
        "prior": {"kind": "gaussian", "mean": [1.0, -0.5], "cov": [[1.0, 0.3], [0.3, 0.7]]},
        "likelihood": {"kind": "linear", "A": [[1.0, 0.4], [0.0, 0.8]], "y": [2.4, -1.6], "sigma_y": 0.5},
        "schedule": {"family": "linear", "T": 1000},
        "sampler": {
            "algorithm": "mgdm",
            "K": K,
            "R": R,
            "backend": backend,
            "index": {"kind": "fixed-midpoint"},
        },
        "n_runs": n_runs,
        "master_seed": 11,
    }


class TestRunExperiment:
    def test_smoke_completes_quickly_with_row_per_run(self, tmp_path):
        config = harness.smoke_config()
        started = time.perf_counter()
        summary = harness.run_experiment(config, tmp_path)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + config["n_runs"]
        assert summary["aggregate"]["n_runs"] == config["n_runs"]
        assert summary["config_hash"] == harness.config_hash(config)

    def test_byte_identical_outputs_for_same_seed(self, tmp_path):
        config = harness.smoke_config()
        harness.run_experiment(config, tmp_path / "a")
        harness.run_experiment(config, tmp_path / "b")
        assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        config = harness.smoke_config()
        harness.run_experiment(config, tmp_path / "a")
        config2 = dict(config, master_seed=8)
        harness.run_experiment(config2, tmp_path / "b")
        assert (tmp_path / "a/results.csv").read_bytes() != (tmp_path / "b/results.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["smoke", "sweep", "dps"])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_jobs_preserve_order_and_values(self, tmp_path, jobs, kind):
        """10 runs over 2 workers, or 3 with uneven chunks (4, 3, 3): the files of the in-process runs."""
        config, run, files = harness.smoke_config(), harness.run_experiment, ("results.csv", "summary.json")
        if kind == "sweep":
            config["sweep"], run, files = {"R": [1, 2]}, harness.run_sweep, ("sweep.csv", "summary.json")
        if kind == "dps":
            config["sampler"] = {"algorithm": "dps", "K": 10, "zeta": 0.5}
        run(config, tmp_path / "serial", jobs=1)
        run(config, tmp_path / "pool", jobs=jobs)
        for name in files:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()

    def test_summary_memory_stays_small(self, tmp_path):
        """100 smoke runs peak under 5 MB of traced memory; projecting all 512 sliced-W2
        directions at once took 25.8 MB."""
        config = harness.smoke_config()
        config["n_runs"] = 100
        harness.run_experiment(config, tmp_path / "warm")  # lazy imports and first-call set-up
        tracemalloc.start()
        try:
            harness.run_experiment(config, tmp_path / "traced")
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 5.0

    def test_dps_algorithm_path(self, tmp_path):
        config = harness.smoke_config()
        config["sampler"] = {"algorithm": "dps", "K": 10, "zeta": 0.5}
        summary = harness.run_experiment(config, tmp_path)
        assert summary["aggregate"]["n_runs"] == config["n_runs"]


class TestSweep:
    def test_sweep_emits_aggregate_rows_with_monotone_flag(self, tmp_path):
        config = harness.smoke_config()
        config["n_runs"] = 6
        config["sweep"] = {"R": [1, 2]}
        summary = harness.run_sweep(config, tmp_path)
        assert len(summary["rows"]) == 2
        header, *rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert "sw2_nonincreasing" in header
        assert len(rows) == 2

    def test_sweep_scores_no_run_under_the_posterior(self, tmp_path, monkeypatch):
        """A sweep reports aggregates alone, so it evaluates no run's log posterior density; a run does, once a run."""
        calls = []
        density = priors.GaussianPrior.log_density
        monkeypatch.setattr(priors.GaussianPrior, "log_density", lambda self, x: calls.append(x) or density(self, x))
        config = harness.smoke_config()
        config["n_runs"], config["sweep"] = 4, {"R": [1, 2]}
        harness.run_sweep(config, tmp_path / "sweep")
        assert calls == []
        harness.run_experiment(config, tmp_path / "run")
        assert len(calls) == 4

    def test_sweep_requires_sweep_section(self, tmp_path):
        with pytest.raises(ValueError):
            harness.run_sweep(harness.smoke_config(), tmp_path)

    def test_null_index_runs_and_labels_the_default_kind(self, tmp_path):
        """``"index": null`` runs the default law, as ``mgdm run`` does; each row names the kind its combo ran."""
        config = harness.smoke_config()
        config["n_runs"], config["sampler"]["index"] = 4, None
        config["sweep"] = {"R": [1, 2], "index": [None, "near-zero"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        header, *rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        column = header.split(",").index("index_dist")
        assert [row.split(",")[column] for row in rows] == ["uniform-mix", "near-zero"] * 2

    @pytest.mark.parametrize("kind", ["uniform-mix", "near-zero"])
    def test_index_axis_keeps_the_base_index_keys(self, kind):
        """A swept index kind replaces the base law's kind alone, so its row runs tau = 5, not the default 10."""
        config = harness.smoke_config()
        config["sampler"]["index"]["late_fraction"] = 0.5
        experiment = harness._combo_experiment(config, 1, None, kind)
        assert experiment.mgdm.index_dist == IndexDistribution(kind=kind, tau=5, late_fraction=0.5)


class TestOracleReport:
    def test_report_contents(self, tmp_path):
        report = harness.run_oracle(compare_config(), tmp_path)
        for key in ("mean", "cov", "index_sequence", "config_hash", "timesteps"):
            assert key in report
        on_disk = json.loads((tmp_path / "oracle.json").read_text())
        assert on_disk["config_hash"] == report["config_hash"]
        assert len(on_disk["index_sequence"]) == len(on_disk["timesteps"]) - 1

    def test_random_index_kind_realized_and_recorded(self, tmp_path):
        config = compare_config()
        config["sampler"]["index"] = {"kind": "uniform-mix", "tau": 10}
        report = harness.run_oracle(config, tmp_path)
        assert len(report["index_sequence"]) == len(report["timesteps"]) - 1
        again = harness.run_oracle(config, tmp_path)
        assert report["index_sequence"] == again["index_sequence"]


class TestCompare:
    def test_exact_backend_passes(self, tmp_path):
        report = harness.compare_to_oracle(compare_config(), tmp_path)
        assert report["passed"] is True
        assert np.max(np.abs(report["z_mean"])) < 3.0

    def test_z_cov_uses_analytic_standard_errors(self, tmp_path):
        report = harness.compare_to_oracle(compare_config(), tmp_path)
        oracle_cov = np.asarray(report["oracle_cov"])
        se = np.sqrt((np.outer(np.diag(oracle_cov), np.diag(oracle_cov)) + oracle_cov**2) / (2000 - 1))
        want = (np.asarray(report["empirical_cov"]) - oracle_cov) / se
        np.testing.assert_allclose(report["z_cov"], want, rtol=1e-12, atol=0)

    def test_analytic_se_matches_bootstrap(self):
        """On one n = 10,000 exact-backend run of the flagship config, the closed-form
        sample-covariance SE is within 10% of a 2,000-resample bootstrap."""
        from mgdm.oracle import oracle_recursion
        from mgdm.sampler import IndexDistribution, MgdmConfig, mgdm_run_batch

        config = compare_config(n_runs=10_000, K=25, R=4)
        prior, lik, sched = harness.build_problem(config)
        mcfg = harness.build_mgdm_config(config["sampler"], sched)
        seq = tuple(max(2, mcfg.timesteps[i - 2] // 2) for i in range(mcfg.K, 1, -1))
        samples = mgdm_run_batch(lik, prior, sched, mcfg, 10_000, np.random.default_rng(2024))
        oracle = oracle_recursion(prior, lik, sched, MgdmConfig(
            timesteps=mcfg.timesteps, R=4, index_dist=IndexDistribution(kind="fixed", values=seq)
        ))
        rng = np.random.default_rng(2025)
        boots = np.stack([np.cov(samples[rng.integers(0, 10_000, size=10_000)].T) for _ in range(2000)])
        ratio = harness.covariance_se(oracle.cov, 10_000) / boots.std(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1.0) < 0.10), ratio

    def test_refuses_vi_backend_without_flag(self, tmp_path):
        with pytest.raises(ValueError):
            harness.compare_to_oracle(compare_config(backend="vi"), tmp_path)

    def test_vi_error_measurement_mode(self, tmp_path):
        config = compare_config(n_runs=300, backend="vi")
        config["sampler"]["vi"] = {"eta_early": 0.01, "eta": 0.03, "steps_late": 10, "steps": 5}
        report = harness.compare_to_oracle(config, tmp_path, measure_vi_error=True)
        assert report["passed"] is None
        assert "mean_rel_error" in report

    def test_vi_error_small_with_generous_step_budget(self, tmp_path):
        """A G = 200 fit keeps the mean discrepancy to the oracle below
        0.05 relative on the 2-D reference instance."""
        config = compare_config(n_runs=800, K=10, backend="vi")
        config["sampler"]["vi"] = {"eta_early": 0.03, "eta": 0.03, "steps_late": 200, "steps": 200}
        report = harness.compare_to_oracle(config, tmp_path, measure_vi_error=True)
        assert report["mean_rel_error"] < 0.05

    def test_refuses_single_run(self, tmp_path):
        with pytest.raises(ValueError):
            harness.compare_to_oracle(compare_config(n_runs=1), tmp_path)


class TestCli:
    def test_smoke_subcommand(self, tmp_path, capsys):
        code = main(["smoke", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("run ") >= 10

    def test_run_requires_config(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "--out", str(tmp_path)])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--confg", "x.json"],
            ["run", "--config", "x.json", "--bogus"],
            ["oracle", "--config", "x.json", "--jobs", "2"],
            ["compare", "--config", "x.json", "--jobs", "2"],
            ["nosuchcommand"],
            [],
        ],
        ids=["misspelt-flag", "unknown-flag", "oracle-jobs", "compare-jobs", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        """A usage error exits 1, like a config error: 2 is the runtime-failure code.  Only run,
        sweep and smoke take --jobs."""
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "usage: mgdm" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["compare", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert "usage: mgdm" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "sweep", "smoke"])
    def test_jobs_is_read_by_the_commands_that_run_the_sampler(self, command):
        args = build_parser().parse_args([command, "--config", "x.json", "--jobs", "3"])
        assert args.jobs == 3

    @pytest.mark.parametrize("jobs", ["0", "-3", "2.5"])
    @pytest.mark.parametrize("command", ["run", "sweep", "smoke"])
    def test_jobs_below_one_is_a_usage_error(self, command, jobs, tmp_path, capsys):
        """--jobs N takes an integer N >= 1; the parser rejects 0, negative and non-integer counts
        before any run starts."""
        with pytest.raises(SystemExit) as err:
            main([command, "--config", "x.json", "--jobs", jobs, "--out", str(tmp_path / "out")])
        assert err.value.code == 1
        assert f"argument --jobs: N must be an integer >= 1, got '{jobs}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_code_of_the_process(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "mgdm.cli", "run", "--confg", "x.json"], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(Path(mgdm.__file__).parents[1])),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr

    def test_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(harness.smoke_config()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out/results.csv").exists()

    def test_compare_enforces_backend_precondition(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(compare_config(backend="vi", n_runs=50)))
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_compare_passes_on_exact_backend(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(compare_config(n_runs=1500)))
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_numerical_failure_exits_as_runtime_failure(self, tmp_path, capsys, monkeypatch):
        """LinAlgError subclasses ValueError, yet a failure mid-run is not a config error."""

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(harness, "run_experiment", fail)
        assert main(["smoke", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "mgdm: runtime failure: Matrix is not positive definite" in err
        assert "config error" not in err

    def test_run_and_compare_accept_level_one(self, tmp_path):
        """The near-zero index draws s = 1 on this config; run and compare both accept it."""
        config = {
            "prior": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
            "likelihood": {"kind": "linear", "A": [[1.0]], "y": [1.0], "sigma_y": 0.5},
            "schedule": {"family": "linear", "T": 100},
            "sampler": {"algorithm": "mgdm", "K": 20, "R": 1, "backend": "exact", "index": {"kind": "near-zero"}},
            "master_seed": 3,
        }
        for command, n_runs in (("run", 20), ("compare", 2000)):
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(dict(config, n_runs=n_runs)))
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)]) == 0
        report = json.loads((tmp_path / "compare/compare.json").read_text())
        assert 1 in report["index_sequence"]
        assert report["passed"] is True

    def test_non_finite_state_exits_as_runtime_failure(self, tmp_path, capsys, monkeypatch):
        """A denoiser that returns NaN at the top level stops the first outer step."""
        from mgdm.priors import DenoiserOutput, GaussianPrior

        denoise = GaussianPrior.denoise

        def poisoned(self, schedule, t, x_t):
            out = denoise(self, schedule, t, x_t)
            return DenoiserOutput(np.full_like(out.value, np.nan), out.vjp) if t == schedule.T else out

        monkeypatch.setattr(GaussianPrior, "denoise", poisoned)
        assert main(["smoke", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "mgdm: runtime failure: non-finite state at outer step i=10 (t=200, s=" in err

    @staticmethod
    def bad_configs():
        """(config, extra args, message): each must fail before any run, naming its cause."""
        gmm_exact = compare_config(n_runs=50)
        gmm_exact["prior"] = {"kind": "gmm", "weights": [0.5, 0.5], "means": [[-1.0, 0.0], [1.0, 0.0]],
                              "covs": [np.eye(2).tolist(), np.eye(2).tolist()]}
        high_tau = harness.smoke_config()
        high_tau["sampler"]["index"]["tau"] = 50  # T = 200, K = 10: t_prev = 40 at outer step 3
        gmm_dims = compare_config(n_runs=50)
        gmm_dims["prior"] = {**gmm_exact["prior"], "means": [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}
        return [(gmm_exact, [], "exact conditional requires a Gaussian prior"),
                (high_tau, ["--backend", "exact"], "t_prev=40 < tau=50"),
                (gmm_dims, [], "means and covs dimensions disagree")]

    @staticmethod
    def assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, extra, message):
        """``mgdm <command>`` exits 1 naming ``message`` without calling any sampler."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("mgdm_run", "mgdm_run_batch", "dps_run", "oracle_recursion"):
            monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")] + extra) == 1
        err = capsys.readouterr().err
        assert message in err
        assert calls == []
        return err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_bad_config_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, case):
        config, extra, message = self.bad_configs()[case]
        extra = extra if command == "compare" else []
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, extra, message)

    @pytest.mark.parametrize("command,sampler,message", [
        ("run", {"K": 1}, "need K >= 2"),
        ("run", {"zeta": -1.0}, "zeta must be >= 0"),
        ("run", {"K": 500}, "cannot place 500 distinct timesteps"),  # T = 200
        ("oracle", {}, "the moment oracle models the MGDM sampler, not algorithm 'dps'"),
        ("compare", {}, "the moment oracle models the MGDM sampler, not algorithm 'dps'"),
        ("run", {"backend": "exact"}, "unknown key 'backend' in sampler; known keys: algorithm, K, zeta"),
        ("compare", {"index": {"kind": "bogus"}}, "unknown key 'index' in sampler; known keys: algorithm, K, zeta"),
        ("run", {"R": 4}, "unknown key 'R' in sampler; known keys: algorithm, K, zeta"),
    ], ids=["K-1", "negative-zeta", "K-above-T", "oracle", "compare", "backend", "index", "R"])
    def test_bad_dps_config_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, sampler, message):
        """A DPS grid or zeta that dps_run would refuse, a DPS config handed to the oracle, and one that
        names a key of the MGDM sampler, which DPS would not read, fail before any run."""
        config = harness.smoke_config()
        config["sampler"] = {"algorithm": "dps", "K": 10, "zeta": 0.5, **sampler}
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], message)

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("vi,message", [
        ({"steps_late": -1}, "sampler.vi.steps_late must be >= 0"),
        ({"eta": 0.0}, "sampler.vi.eta must be positive"),
        ({"mc_samples_per_step": 2}, "unknown key 'mc_samples_per_step' in sampler.vi"),
    ], ids=["steps-late", "eta", "mc-samples"])
    def test_bad_vi_budget_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, vi, message):
        """A VI step budget or learning rate that a later phase would refuse, and a setting
        the VI fit does not have, fail before any sweep, naming the config key."""
        config = harness.smoke_config()
        config["sampler"]["vi"].update(vi)
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], message)

    @pytest.mark.parametrize("section,key,value,message", [
        ("likelihood", "y", [np.nan], "y must be finite"),
        ("likelihood", "A", [[np.inf]], "A must be finite"),
        ("likelihood", "sigma_y", np.nan, "sigma_y must be positive and finite"),
        ("likelihood", "sigma_y", np.inf, "sigma_y must be positive and finite"),
        ("prior", "mean", [np.nan], "prior mean must be finite"),
        ("prior", "cov", [[np.inf]], "prior covariance must be finite"),
        ("gmm", "weights", [np.nan, 0.7], "weights must be nonnegative and sum to 1"),
        ("gmm", "means", [[np.nan], [-1.0]], "means must be finite"),
        ("gmm", "covs", [[[np.inf]], [[0.5]]], "component 0 covariance must be finite"),
        ("vi", "eta", np.nan, "sampler.vi.eta must be positive"),
        ("vi", "eta_early", np.inf, "sampler.vi.eta_early must be finite"),
        ("dps", "zeta", np.nan, "zeta must be >= 0 and finite"),
        ("dps", "zeta", np.inf, "zeta must be >= 0 and finite"),
        ("schedule", "alpha_end", np.nan, "all alpha_t must be positive"),
        ("likelihood", "sigma_y", "0.5", "sigma_y must be a number, got '0.5'"),
        ("likelihood", "sigma_y", True, "sigma_y must be a number, got True"),
        ("likelihood", "sigma_y", False, "sigma_y must be a number, got False"),
        ("dps", "zeta", "0.5", "zeta must be a number, got '0.5'"),
        ("dps", "zeta", True, "zeta must be a number, got True"),
        ("dps", "zeta", False, "zeta must be a number, got False"),
        ("vi", "eta", True, "sampler.vi.eta must be a number, got True"),
        ("vi", "eta", "0.1", "sampler.vi.eta must be a number, got '0.1'"),
        ("vi", "eta_early", True, "sampler.vi.eta_early must be a number, got True"),
        ("index", "late_fraction", True, "late_fraction must be a number, got True"),
        ("schedule", "alpha_end", True, "alpha_end must be a number, got True"),
        ("prior", "mean", ["0.5"], "prior mean must hold numbers, got ['0.5']"),
        ("prior", "cov", [[True]], "prior covariance must hold numbers, got [[True]]"),
        ("gmm", "weights", [True, False], "weights must hold numbers, got [True, False]"),
        ("gmm", "means", [["1"], [-1.0]], "means must hold numbers, got [['1'], [-1.0]]"),
        ("gmm", "covs", [[[0.3]], [[True]]], "covs must hold numbers, got [[[0.3]], [[True]]]"),
        ("likelihood", "y", [True], "y must hold numbers, got [True]"),
        ("likelihood", "A", [["1"]], "A must hold numbers, got [['1']]"),
        ("explicit", "weights", [np.nan, 1.0], "weights must be a simplex"),
        ("explicit", "weights", [True], "weights must hold numbers, got (True,)"),
        ("explicit", "weights", ["0.5", "0.5"], "weights must hold numbers, got ('0.5', '0.5')"),
    ], ids=["y-nan", "A-inf", "sigma-nan", "sigma-inf", "mean-nan", "cov-inf", "weights-nan", "means-nan",
            "covs-inf", "eta-nan", "eta-early-inf", "zeta-nan", "zeta-inf", "alpha-end-nan", "sigma-string",
            "sigma-true", "sigma-false", "zeta-string", "zeta-true", "zeta-false", "eta-true", "eta-string",
            "eta-early-true", "late-fraction-true", "alpha-end-true", "mean-string", "cov-bool", "weights-bool",
            "means-string", "covs-bool", "y-bool", "A-string", "explicit-nan", "explicit-bool", "explicit-string"])
    def test_non_finite_number_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, section, key, value,
                                                       message):
        """json reads NaN and Infinity: each fails naming its field, not as a NaN state mid-run, a run to
        exit 0 (a NaN zeta skipped the guidance) or another check's message.  Nor is a string or a bool read
        as a number, alone or in an array: "0.5" as 0.5, true as 1.0, false as 0.0."""
        config = harness.smoke_config()
        if section == "dps":
            section, config["sampler"] = "sampler", {"algorithm": "dps", "K": 10}
        if section == "gmm":
            section = "prior"
            config["prior"] = {"kind": "gmm", "weights": [0.3, 0.7], "means": [[1.0], [-1.0]],
                               "covs": [[[0.3]], [[0.5]]]}
        if section == "explicit":
            section, config["sampler"]["index"] = "index", {"kind": "explicit"}
        (config["sampler"][section] if section in ("vi", "index") else config[section])[key] = value
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, "run", config, [], message)

    @pytest.mark.parametrize("command", ["run", "sweep", "oracle", "compare", "smoke"])
    def test_out_naming_a_file_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command):
        """An --out that names an existing file exits 1 with one stderr line, not a FileExistsError traceback;
        oracle and compare find it before their work too, not when they write their report."""
        config = compare_config(n_runs=50) if command in ("oracle", "compare") else harness.smoke_config()
        if command == "sweep":
            config["sweep"] = {"R": [1, 2]}
        (tmp_path / "out").write_text("a file")
        err = self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], "File exists")
        assert err.startswith("mgdm: config error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_negative_master_seed_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, how, command):
        """A seed below 0 is named, not left to SeedSequence's "expected non-negative integer" after the output
        directory exists, whether the config or ``--seed`` sets it."""
        config = harness.smoke_config()
        if command == "sweep":
            config["sweep"] = {"R": [1, 2]}
        if how == "config":
            config["master_seed"] = -1
        extra = ["--seed", "-1"] if how == "flag" else []
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, extra,
                                            "master_seed must be >= 0, got -1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,sampler,key,value,message", [
        ("run", {}, "sampler.R", 2.7, "sampler.R must be an integer, got 2.7"),
        ("run", {}, "n_runs", 3.9, "n_runs must be an integer, got 3.9"),
        ("run", {}, "master_seed", 7.5, "master_seed must be an integer, got 7.5"),
        ("run", {}, "sampler.M", "5", "sampler.M must be an integer, got '5'"),
        ("run", {"backend": "vi-mh"}, "sampler.mh_steps", 1.5, "sampler.mh_steps must be an integer, got 1.5"),
        ("run", {}, "sampler.index.tau", 5.5, "sampler.index.tau must be an integer, got 5.5"),
        ("run", {}, "sampler.index.tau", np.nan, "sampler.index.tau must be an integer, got nan"),
        ("run", {"index": {"kind": "fixed"}}, "sampler.index.values", [5.5] + [5] * 8,
         "sampler.index.values[0] must be an integer, got 5.5"),
        ("run", {}, "schedule.T", 200.5, "schedule.T must be an integer, got 200.5"),
        ("run", {"final": "denoise"}, "sampler.final_s", 1.5, "sampler.final_s must be an integer, got 1.5"),
        ("run", {}, "sampler.timesteps", [20.5, 200], "sampler.timesteps[0] must be an integer, got 20.5"),
        ("run", {}, "sampler.vi.steps", 2.5, "sampler.vi.steps must be an integer, got 2.5"),
        ("run", {}, "sampler.vi.steps_late", np.nan, "sampler.vi.steps_late must be an integer, got nan"),
        ("run", {}, "sampler.K", True, "sampler.K must be an integer, got True"),
        ("run", {"algorithm": "dps"}, "sampler.K", 10.5, "sampler.K must be an integer, got 10.5"),
        ("sweep", {}, "sweep.R", [1, 2.5], "sweep.R[1] must be an integer, got 2.5"),
        ("sweep", {}, "sweep.G", [5, 7.5], "sweep.G[1] must be an integer, got 7.5"),
    ], ids=["R", "n-runs", "master-seed", "M-string", "mh-steps", "tau", "tau-nan", "values", "T", "final-s",
            "timesteps", "vi-steps", "vi-steps-late-nan", "K-bool", "dps-K", "sweep-R", "sweep-G"])
    def test_non_integer_setting_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, sampler, key,
                                                         value, message):
        """An integer setting must be a JSON integer: 2.7 is not truncated to 2, "5" is not read as 5, and a
        NaN or a bool fails naming its key, not from inside the first run or with another check's message."""
        config = harness.smoke_config()
        config["sampler"].update(sampler)
        if sampler.get("algorithm") == "dps":
            config["sampler"] = {"algorithm": "dps"}
        *path, leaf = key.split(".")
        target = config
        for part in path:
            target = target.setdefault(part, {})
        target[leaf] = value
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], message)

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    @pytest.mark.parametrize("section,entries,message", [
        (None, {"n_run": 3}, "unknown key 'n_run' in the config"),
        ("sampler", {"RR": 3}, "unknown key 'RR' in sampler"),
        ("sampler", {"mh_step": 3}, "unknown key 'mh_step' in sampler"),
        ("sampler", {"zeta": 5.0}, "unknown key 'zeta' in sampler"),  # DPS's guidance weight, which MGDM does not read
        ("sweep", {"g": 3}, "unknown key 'g' in sweep"),
        ("schedule", {"alpha_ned": 0.5}, "unknown key 'alpha_ned' in schedule"),
        ("likelihood", {"sigma": 0.1}, "unknown key 'sigma' in likelihood"),
        ("prior", {"covs": [[[1.0]]]}, "unknown key 'covs' in prior"),
        ("prior", {"mean": None, "cov": None, "covariances": [[1.0]], "means": [[0.0]]},
         "unknown key 'covariances' in prior"),  # the flattened form that no reader takes
    ], ids=["n-run", "RR", "mh-step", "mgdm-zeta", "sweep-g", "schedule", "likelihood", "prior", "prior-covariances"])
    def test_unknown_key_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, section, entries,
                                                 message):
        """A misspelled setting fails, naming its section and key, instead of running on its default;
        an entry of None removes the key."""
        config = harness.smoke_config()
        config["sweep"] = {"R": [1, 2]}
        target = config if section is None else config[section]
        for key, value in entries.items():
            if value is None:
                del target[key]
            else:
                target[key] = value
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], message)

    @pytest.mark.parametrize("sweep,message", [
        ({"R": [1, 0]}, "R must be >= 1"),
        ({"index": ["near-zero", "fixed"]}, "fixed kind needs values"),
        ({"G": [5, -1]}, "sampler.vi.steps must be >= 0"),
        ({"R": []}, "sweep axis 'R' must be a non-empty list, got []"),
        ({"R": 2}, "sweep axis 'R' must be a non-empty list, got 2"),
    ], ids=["R-0", "index-fixed", "G-negative", "R-empty", "R-scalar"])
    def test_every_sweep_combo_validated_before_any_run(self, tmp_path, capsys, monkeypatch, sweep, message):
        """A bad value on a later point of an axis fails before the first combo runs, and so does an axis that
        is not a non-empty list: an empty one would run nothing and exit 0."""
        config = harness.smoke_config()
        config["n_runs"], config["sweep"] = 3, sweep
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, "sweep", config, [], message)

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("command", ["run", "oracle", "compare"])
    def test_operator_of_another_dimension_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command,
                                                                    kind):
        """A one-column A on a 2-D prior fails naming both sizes, not in numpy's matmul after a run."""
        config = compare_config(n_runs=3)
        config["prior"] = {"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        config["likelihood"] = {"kind": kind, "A": [[1.0]], "y": [1.0], "sigma_y": 0.5}
        message = "likelihood A needs 2 columns, the prior's dimension, but has 1"
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], message)

    def test_exact_g_sweep_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        """The exact conditional reads no VI budget, so a G axis would relabel one sampler."""
        config = compare_config(n_runs=3)
        config["sweep"] = {"G": [3, 30]}
        message = "sweep varies G, the VI step budget, which backend 'exact' does not read"
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, "sweep", config, [], message)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_near_noiseless_posterior_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command):
        """sigma_y = 1e-7 leaves a posterior variance below the 1e-12 floor: run and sweep, which
        score against it, fail naming it."""
        config = harness.smoke_config()
        config["likelihood"]["sigma_y"] = 1e-7
        config["n_runs"], config["sweep"] = 3, {"R": [1, 2]}
        if command == "run":
            del config["sweep"]
        message = "the exact posterior is near-noiseless at sigma_y=1e-07"
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], message)

    def test_near_noiseless_posterior_leaves_compare_and_oracle_working(self, tmp_path):
        """compare and oracle read no posterior, so they run at sigma_y = 1e-7."""
        config = compare_config(n_runs=1000)
        config["likelihood"]["sigma_y"] = 1e-7
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        for command in ("compare", "oracle"):
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)]) == 0

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_degenerate_oracle_law_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command):
        """With the denoise final step, sigma_y = 1e-7 pins the output law below the 1e-12 eigenvalue floor of a
        GaussianPrior: the oracle names it, and its covariance, not a prior's, and compare fails before it runs
        the sampler."""
        config = compare_config(n_runs=50)
        config["likelihood"]["sigma_y"], config["sampler"]["final"] = 1e-7, "denoise"
        monkeypatch.setattr(harness, "mgdm_run_batch", lambda *args: pytest.fail("the sampler ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("mgdm: config error: the moment oracle's output law is degenerate "
                                           "(covariance must have eigenvalues >= 1e-12)\n")

    @pytest.mark.parametrize("index,message", [
        ({"kind": "explicit", "weights": 1.0}, "weights must be a list, got 1.0"),
        ({"kind": "fixed", "values": 3}, "values must be a list, got 3"),
        ({"kind": "explicit", "weights": {"1": 1.0}}, "weights must be a list, got {'1': 1.0}"),
    ], ids=["weights-scalar", "values-scalar", "weights-object"])
    def test_index_array_that_is_no_list_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, index,
                                                                 message):
        """A scalar index ``weights`` or ``values`` exits 1 on one config-error line naming the field, where it
        used to report "'float' object is not iterable"."""
        config = harness.smoke_config()
        config["sampler"]["index"] = index
        err = self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, "run", config, [], message)
        assert err == f"mgdm: config error: {message}\n"

    @pytest.mark.parametrize("section,key,value,message", [
        ("sampler", "index", {"kind": "explicit", "weights": [[0.5], [0.25, 0.25]]},
         "weights must be a rectangular array of numbers"),
        ("likelihood", "A", [[1.0], [1.0, 2.0]], "A must be a rectangular array of numbers"),
        ("prior", "cov", [[1.0], [1.0, 2.0]], "prior covariance must be a rectangular array of numbers"),
        ("prior", None,
         {"kind": "gmm", "weights": [0.5, 0.5], "means": [[0.0], [1.0, 2.0]], "covs": [[[1.0]], [[1.0]]]},
         "means must be a rectangular array of numbers"),
    ], ids=["index-weights", "likelihood-A", "prior-cov", "gmm-means"])
    def test_ragged_array_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, section, key, value, message):
        """A ragged nesting of lists exits 1 on one config-error line naming the field, where it used to print
        numpy's "setting an array element with a sequence..."."""
        config = harness.smoke_config()
        if key is None:
            config[section] = value
        else:
            config[section][key] = value
        err = self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, "run", config, [], message)
        assert err == f"mgdm: config error: {message}\n"

    @pytest.mark.parametrize("late_fraction", [2.0, -1])
    def test_late_fraction_outside_unit_interval_rejected_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                                         late_fraction):
        config = harness.smoke_config()
        config["sampler"]["index"]["late_fraction"] = late_fraction
        message = f"late_fraction must lie in [0, 1], got {late_fraction}"
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, "run", config, [], message)

    def test_dps_sweep_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        """DPS reads neither R, G nor an index law, so a sweep over them would relabel one sampler."""
        config = harness.smoke_config()
        config["sampler"] = {"algorithm": "dps", "K": 10, "zeta": 0.3}
        config["sweep"] = {"R": [1, 2], "G": [3, 30]}
        message = "sweep varies R, G and index, which algorithm 'dps' does not read"
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, "sweep", config, [], message)

    def test_non_spd_inverse_exits_as_runtime_failure(self, tmp_path, capsys, monkeypatch):
        """The LinAlgError with which spd_inverse rejects a matrix that is not SPD exits 2."""
        monkeypatch.setattr(priors, "_conjugate_update", lambda mean, cov, *rest: (mean, priors.spd_inverse(-cov)))
        assert main(["smoke", "--out", str(tmp_path)]) == 2
        assert "mgdm: runtime failure:" in capsys.readouterr().err

    @staticmethod
    def diverging_dps_config():
        """DPS with zeta = 0.5 on a sharp observation of one coordinate of a bimodal 2-D prior:
        every run's x0_0 grows to about 1e59."""
        return {
            "prior": {"kind": "gmm", "weights": [0.5, 0.5], "means": [[1.0, 1.0], [-1.0, -1.0]],
                      "covs": [(0.3 * np.eye(2)).tolist()] * 2},
            "likelihood": {"kind": "linear", "A": [[1.0, 0.0]], "y": [0.2], "sigma_y": 0.05},
            "schedule": {"family": "linear", "T": 1000},
            "sampler": {"algorithm": "dps", "K": 50, "zeta": 0.5},
            "n_runs": 20,
            "master_seed": 1,
        }

    def test_diverged_runs_are_flagged(self, tmp_path, capsys):
        """A run whose x_0 lies beyond 100 prior standard deviations reads 'diverged', not 'ok';
        the exit code stays 0 and the summary and sweep report the share flagged."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.diverging_dps_config()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:20] == [f"run {i}: diverged" for i in range(20)]
        assert lines[20].endswith("diverged_frac=1")
        aggregate = json.loads((tmp_path / "out/summary.json").read_text())["aggregate"]
        assert aggregate["diverged_frac"] == 1.0 and aggregate["diverged_runs"] == list(range(20))

        assert main(["smoke", "--out", str(tmp_path / "smoke")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:10] == [f"run {i}: ok" for i in range(10)] and lines[10].endswith("diverged_frac=0")
        assert json.loads((tmp_path / "smoke/summary.json").read_text())["aggregate"]["diverged_frac"] == 0.0

        config = harness.smoke_config()
        config["n_runs"], config["sweep"] = 4, {"R": [1, 2]}
        harness.run_sweep(config, tmp_path / "sweep")
        header, *rows = (tmp_path / "sweep/sweep.csv").read_text().strip().splitlines()
        assert header.endswith(",diverged_frac") and all(row.endswith(",0") for row in rows)

    def test_gmm_with_one_2d_covariance_runs_as_one_component(self, tmp_path):
        """A gmm prior may give ``covs`` as one (d, d) matrix: it reads as a single component and
        runs exactly as the (1, d, d) form."""
        cov = [[0.5, 0.1], [0.1, 0.3]]
        outputs = []
        for covs in (cov, [cov]):
            config = harness.smoke_config()
            config["prior"] = {"kind": "gmm", "weights": [1.0], "means": [[0.4, -0.2]], "covs": covs}
            config["likelihood"] = {"kind": "linear", "A": [[1.0, 0.5]], "y": [0.3], "sigma_y": 0.3}
            assert harness.ExperimentConfig.from_dict(config).prior.covs.shape == (1, 2, 2)
            out = tmp_path / f"covs{len(outputs)}"
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
            outputs.append(((out / "results.csv").read_bytes(), json.loads((out / "summary.json").read_text())))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1]["aggregate"] == outputs[1][1]["aggregate"]

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(harness.smoke_config()))
        main(["run", "--config", str(cfg_path), "--seed", "5", "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg_path), "--seed", "5", "--out", str(tmp_path / "b")])
        main(["run", "--config", str(cfg_path), "--seed", "6", "--out", str(tmp_path / "c")])
        a = (tmp_path / "a/results.csv").read_bytes()
        assert a == (tmp_path / "b/results.csv").read_bytes()
        assert a != (tmp_path / "c/results.csv").read_bytes()


class TestExperimentConfig:
    def test_validates_good_config(self):
        checked = harness.ExperimentConfig.from_dict(harness.smoke_config())
        assert checked.n_runs == 10 and checked.master_seed == 7

    def test_rejects_missing_sections(self):
        config = harness.smoke_config()
        del config["master_seed"]
        with pytest.raises(ValueError):
            harness.ExperimentConfig.from_dict(config)
        config = harness.smoke_config()
        del config["sampler"]
        with pytest.raises(ValueError):
            harness.ExperimentConfig.from_dict(config)
        for section in ("prior", "likelihood", "schedule"):
            for value in (None, [1.0]):
                config = harness.smoke_config()
                config[section] = value
                with pytest.raises(ValueError, match=f"config needs a '{section}' section"):
                    harness.ExperimentConfig.from_dict(config)

    def test_rejects_bad_sampler_grid(self):
        config = harness.smoke_config()
        config["sampler"]["timesteps"] = [1, 50]
        with pytest.raises(ValueError):
            harness.ExperimentConfig.from_dict(config)

    def test_rejects_unsupported_levels_and_pairings(self):
        """K = 10 on T = 200 (t_2 = 40): each config fails in from_dict, before any run."""
        cases = [({"index": {"kind": "fixed", "values": [3] * 8}}, "needs 9 entries"),
                 ({"index": {"kind": "fixed", "values": [3] * 8 + [45]}}, "outer step i=2 draws s=45"),
                 ({"final": "denoise"}, "the denoise final step requires a Gaussian prior")]
        for sampler, message in cases:
            config = harness.smoke_config()
            config["sampler"].update(sampler)
            if "final" in sampler:
                config["prior"] = {"kind": "gmm", "weights": [1.0], "means": [[0.0]], "covs": [[[1.0]]]}
            with pytest.raises((ValueError, TypeError), match=message):
                harness.ExperimentConfig.from_dict(config)

    def test_rejects_nonpositive_runs(self):
        config = harness.smoke_config()
        config["n_runs"] = 0
        with pytest.raises(ValueError):
            harness.ExperimentConfig.from_dict(config)


class TestConfigHash:
    def test_order_independent(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert harness.config_hash(a) == harness.config_hash(b)

    def test_value_sensitive(self):
        assert harness.config_hash({"x": 1}) != harness.config_hash({"x": 2})


class TestNumpyOnly:
    """numpy is the only runtime dependency: no subcommand may import scipy."""

    @staticmethod
    def run_python(code, cwd):
        """Run ``code`` in a fresh interpreter that imports this checkout's mgdm."""
        env = dict(os.environ, PYTHONPATH=str(Path(mgdm.__file__).parents[1]))
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=300)

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        """With sys.modules["scipy"] = None any scipy import raises ImportError; each subcommand
        still exits 0.  The GMM vi-mh run reaches GmmPrior.log_density and exact_posterior, the one
        path to spd_inverse; the criterion-5 compare runs the denoise final step, which inverts no matrix."""
        gmm_vimh = harness.smoke_config()
        gmm_vimh["prior"] = {"kind": "gmm", "weights": [0.3, 0.7], "means": [[1.0, 1.0], [-1.0, -0.5]],
                             "covs": [[[0.3, 0.1], [0.1, 0.4]], [[0.5, 0.0], [0.0, 0.2]]]}
        gmm_vimh["likelihood"] = {"kind": "linear", "A": [[1.0, 0.5]], "y": [0.3], "sigma_y": 0.3}
        gmm_vimh["sampler"].update(backend="vi-mh", mh_steps=2)
        gmm_vimh["n_runs"] = 4
        criterion_5 = compare_config(n_runs=10_000, K=25, R=4)
        criterion_5["master_seed"] = 1
        criterion_5["sampler"]["final"] = "denoise"
        sweep = harness.smoke_config()
        sweep["n_runs"], sweep["sweep"] = 4, {"R": [1, 2]}
        configs = {"gmm": gmm_vimh, "c5": criterion_5, "oracle": compare_config(), "sweep": sweep}
        for name, config in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        commands = [["smoke"], ["run", "--config", "gmm.json"], ["compare", "--config", "c5.json"],
                    ["oracle", "--config", "oracle.json"], ["sweep", "--config", "sweep.json"]]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mgdm.cli import main\n"
            f"for args in {commands!r}:\n"
            "    code = main(args + ['--out', 'out_' + args[0]])\n"
            "    print('exit', args[0], code)\n"
            "    assert code == 0, args\n"
            "assert sys.modules['scipy'] is None\n"
        )
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        exits = [line for line in proc.stdout.splitlines() if line.startswith("exit ")]
        assert exits == [f"exit {args[0]} 0" for args in commands]

    def test_importing_the_program_loads_no_pool_or_hashlib(self, tmp_path):
        """The worker pool (multiprocessing) and hashlib (OpenSSL's libcrypto) load only when used."""
        code = (
            "import sys\n"
            "import mgdm.cli, mgdm.harness, mgdm.sampler\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process', 'hashlib'} & set(sys.modules)))\n"
        )
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_denoise_final_run_loads_no_oracle(self, tmp_path):
        """The sampler's denoise final step draws the exact conditional itself: a batch run with it
        imports no mgdm.oracle."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from mgdm.likelihoods import LinearGaussianLikelihood\n"
            "from mgdm.priors import GaussianPrior\n"
            "from mgdm.sampler import MgdmConfig, make_timesteps, mgdm_run_batch\n"
            "from mgdm.schedule import make_schedule\n"
            "lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[2.4, -1.6], sigma_y=0.5)\n"
            "prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])\n"
            "cfg = MgdmConfig(timesteps=make_timesteps(8, 1000), conditional='exact', denoise='exact',\n"
            "                 final='denoise')\n"
            "out = mgdm_run_batch(lik, prior, make_schedule('linear', 1000), cfg, 50, np.random.default_rng(0))\n"
            "print(out.shape, 'mgdm.oracle' in sys.modules)\n"
        )
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(50, 2) False"

    def test_importing_the_program_loads_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "import mgdm.cli, mgdm.harness, mgdm.oracle\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = self.run_python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
