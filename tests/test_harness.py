"""Harness behavior: runs, sweeps, oracle reports, CLI, reproducibility."""

import json
import time

import numpy as np
import pytest

from mgdm import harness
from mgdm.cli import main


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

    def test_parallel_jobs_preserve_order_and_values(self, tmp_path):
        config = harness.smoke_config()
        harness.run_experiment(config, tmp_path / "serial", jobs=1)
        harness.run_experiment(config, tmp_path / "pool", jobs=2)
        assert (tmp_path / "serial/results.csv").read_bytes() == (tmp_path / "pool/results.csv").read_bytes()
        assert (tmp_path / "serial/summary.json").read_bytes() == (tmp_path / "pool/summary.json").read_bytes()

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

    def test_sweep_requires_sweep_section(self, tmp_path):
        with pytest.raises(ValueError):
            harness.run_sweep(harness.smoke_config(), tmp_path)


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
        assert err.value.code != 0

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
        """(config, extra args, message): each rejected today only from inside a run."""
        gmm_exact = compare_config(n_runs=50)
        gmm_exact["prior"] = {"kind": "gmm", "weights": [0.5, 0.5], "means": [[-1.0, 0.0], [1.0, 0.0]],
                              "covs": [np.eye(2).tolist(), np.eye(2).tolist()]}
        high_tau = harness.smoke_config()
        high_tau["sampler"]["index"]["tau"] = 50  # T = 200, K = 10: t_prev = 40 at outer step 3
        return [(gmm_exact, [], "exact conditional requires a Gaussian prior"),
                (high_tau, ["--backend", "exact"], "t_prev=40 < tau=50")]

    @staticmethod
    def assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, extra, message):
        """``mgdm <command>`` exits 1 naming ``message`` without calling any sampler."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("mgdm_run", "mgdm_run_batch", "dps_run"):
            monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")] + extra) == 1
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("case", [0, 1])
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
    ], ids=["K-1", "negative-zeta", "K-above-T", "oracle", "compare"])
    def test_bad_dps_config_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, sampler, message):
        """A DPS grid or zeta that dps_run would refuse, and a DPS config handed to the oracle
        (even one naming the exact backend), fail before any run."""
        config = harness.smoke_config()
        config["sampler"] = {"algorithm": "dps", "K": 10, "zeta": 0.5, "backend": "exact", **sampler}
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

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    @pytest.mark.parametrize("section,key,message", [
        (None, "n_run", "unknown key 'n_run' in the config"),
        ("sampler", "RR", "unknown key 'RR' in sampler"),
        ("sampler", "mh_step", "unknown key 'mh_step' in sampler"),
        ("sweep", "g", "unknown key 'g' in sweep"),
    ], ids=["n-run", "RR", "mh-step", "sweep-g"])
    def test_unknown_key_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, section, key, message):
        """A misspelled setting fails, naming its section and key, instead of running on its default."""
        config = harness.smoke_config()
        config["sweep"] = {"R": [1, 2]}
        (config if section is None else config[section])[key] = 3
        self.assert_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, config, [], message)

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
