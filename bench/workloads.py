"""The four benchmark workloads: problem set-up, one call, output checks, accuracy.

Each workload builds its inputs from the workload seed, makes calls
through the program's public module attributes (so the tracer's wrappers
are seen), checks every output, and scores accuracy against an exact
reference after the timed window.  Problem instances are fixed; the seed
drives the sampler's random streams and the reference draws.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from mgdm import cli, harness, priors, sampler
from mgdm.likelihoods import LinearGaussianLikelihood
from mgdm.priors import GmmPrior
from mgdm.sampler import IndexDistribution, MgdmConfig, ViPhaseSchedule, make_timesteps
from mgdm.schedule import make_schedule

REFERENCE_STREAM = 1_000_003  # stream id of the exact-posterior draw, apart from call ids


class CallFailed(Exception):
    """A call returned, but its output fails the workload's checks."""


def directions(d: int, n: int = 1024) -> np.ndarray:
    """Unit projection directions, the same in every run (stream 0), so a
    score's spread across seeds comes from the samples alone."""
    dirs = np.random.default_rng(0).standard_normal((n, d))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def sliced_w2(a: np.ndarray, b: np.ndarray) -> float:
    """Sliced W2 of two equal-size samples, scaled by sqrt(d) (a shift by c scores |c|)."""
    dirs = directions(a.shape[1])
    total = 0.0
    for chunk in np.array_split(dirs, 4):
        total += np.sum((np.sort(a @ chunk.T, axis=0) - np.sort(b @ chunk.T, axis=0)) ** 2)
    return float(np.sqrt(a.shape[1] * total / (len(dirs) * len(a))))


def vi_budget(K: int, steps: int, steps_late: int) -> int:
    """Sum of per-step gradient budgets G_i over outer steps i = K..2 (late quarter: steps_late)."""
    return sum(steps_late if i <= K // 4 else steps for i in range(K, 1, -1))


class BatchWorkload:
    """Chains from ``mgdm_run_batch`` scored against a draw from ``exact_posterior``."""

    name = ""
    min_calls = 1  # timed calls always made; their chains and the warm-up's are pooled for sliced_w2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.pool: list[np.ndarray] = []

    def call(self, k: int) -> np.ndarray:
        return sampler.mgdm_run_batch(
            self.likelihood, self.prior, self.schedule, self.config, self.samples_per_call,
            np.random.default_rng((self.seed, k)),
        )

    def check(self, k: int, out: np.ndarray) -> None:
        if out.shape != (self.samples_per_call, self.prior.dim):
            raise CallFailed(f"chains have shape {out.shape}")
        if not np.all(np.isfinite(out)):
            raise CallFailed("non-finite chains")
        if k <= self.min_calls:
            self.pool.append(out)

    def accuracy(self) -> float:
        chains = np.vstack(self.pool)
        post = priors.exact_posterior(self.prior, self.likelihood)
        ref = post.sample(len(chains), np.random.default_rng((self.seed, REFERENCE_STREAM)))
        return sliced_w2(chains, ref)

    def expected_counts(self) -> dict[str, int]:
        c = self.config
        steps = (c.K - 1) * c.R
        return {
            "sampler.mgdm_run_batch": 1,
            "sampler.gibbs_step": steps,
            "sampler.ddpm_denoise": steps,
            "vi.fit_variational": steps,
            "vi.kl_gradient_estimate": c.R * vi_budget(c.K, c.vi.steps, c.vi.steps_late),
            "vi.mh_correct": steps if c.conditional == "vi-mh" else 0,
        }


class BimodalVi(BatchWorkload):
    """Criterion 8 at R=1: small arrays, so per-call overhead dominates."""

    name = "bimodal-vi"
    samples_per_call = 800
    min_calls = 13

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.schedule = make_schedule("linear", 1000)
        self.prior = GmmPrior(
            weights=[0.5, 0.5], means=[[-1.0, -1.0], [1.0, 1.0]], covs=[np.eye(2) * 0.3, np.eye(2) * 0.3]
        )
        self.likelihood = LinearGaussianLikelihood(A=[[1.0, 0.0]], y=[0.2], sigma_y=0.05)
        self.config = MgdmConfig(
            timesteps=make_timesteps(50, 1000, t1=10), R=1, M=10, vi=ViPhaseSchedule.constant(0.01, 10),
            conditional="vi", denoise="ddpm", index_dist=IndexDistribution(kind="near-zero"),
        )


class GmmScaleViMh(BatchWorkload):
    """MCGdiff's 25-component grid mixture at d=80 with VI+MH: bound by flops and bytes.

    96 chains make each (N, d, d) Jacobian 4.9 MB, above a 4 MiB L2.  The
    instance (A, y) is fixed by instance seed 0.
    """

    name = "gmm-scale-vimh"
    samples_per_call = 96
    min_calls = 12
    dim, obs_dim, sigma_y = 80, 4, 1.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.schedule = make_schedule("linear", 1000)
        grid = np.array([[8.0 * i, 8.0 * j] for i in range(-2, 3) for j in range(-2, 3)])
        self.prior = GmmPrior(
            weights=np.full(25, 1.0 / 25),
            means=np.tile(grid, (1, self.dim // 2)),
            covs=np.broadcast_to(np.eye(self.dim), (25, self.dim, self.dim)),
        )
        instance = np.random.default_rng(0)
        a_mat = instance.standard_normal((self.obs_dim, self.dim))
        x_true = self.prior.sample(1, instance)[0]
        y = a_mat @ x_true + self.sigma_y * instance.standard_normal(self.obs_dim)
        self.likelihood = LinearGaussianLikelihood(A=a_mat, y=y, sigma_y=self.sigma_y)
        self.config = MgdmConfig(
            timesteps=make_timesteps(3, 1000), R=1, M=2, vi=ViPhaseSchedule.constant(0.01, 2),
            conditional="vi-mh", mh_steps=1, denoise="ddpm", index_dist=IndexDistribution(kind="near-zero"),
        )


class CliWorkload:
    """``mgdm.cli.main`` called in-process on a JSON config; every call repeats one seeded job."""

    name = ""
    command = ""
    min_calls = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config["master_seed"] = seed
        self.config_path = workdir / f"{self.name}.json"
        self.config_path.write_text(json.dumps(self.config))
        self.out_dir = workdir / f"{self.name}-out"
        self.first_output: bytes | None = None

    def call(self, k: int) -> int:
        argv = [self.command, "--config", str(self.config_path), "--out", str(self.out_dir)] + self.extra_args
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, k: int, rc: int) -> None:
        if rc != 0:
            raise CallFailed(f"mgdm {self.command} exited {rc}")
        path = self.out_dir / self.output_file
        output = path.read_bytes()
        path.unlink()  # the next call must write it afresh
        self.check_output(json.loads(output))
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            raise CallFailed(f"{self.output_file} differs between two calls with the same seed")


class GaussExactCompare(CliWorkload):
    """``mgdm compare`` on criterion 5: exact backend, moment oracle, bootstrap; no VI, no GMM."""

    name = "gauss-exact-compare"
    command = "compare"
    extra_args: list[str] = []
    output_file = "compare.json"
    samples_per_call = 10_000

    def __init__(self, seed: int, workdir: Path):
        self.config = {
            "prior": {"kind": "gaussian", "mean": [1.0, -0.5], "cov": [[1.0, 0.3], [0.3, 0.7]]},
            "likelihood": {"kind": "linear", "A": [[1.0, 0.4], [0.0, 0.8]], "y": [2.4, -1.6], "sigma_y": 0.5},
            "schedule": {"family": "linear", "T": 1000},
            "sampler": {"algorithm": "mgdm", "K": 25, "R": 4, "backend": "exact", "index": {"kind": "fixed-midpoint"}},
            "n_runs": self.samples_per_call,
        }
        super().__init__(seed, workdir)

    def check_output(self, report: dict) -> None:
        if report["passed"] is not True:
            raise CallFailed("3-sigma oracle verdict failed")
        for key in ("oracle_mean", "oracle_cov", "empirical_mean", "empirical_cov", "z_mean", "z_cov"):
            if not np.all(np.isfinite(np.asarray(report[key], dtype=np.float64))):
                raise CallFailed(f"non-finite {key}")
        self.oracle = (np.asarray(report["oracle_mean"]), np.asarray(report["oracle_cov"]))

    def accuracy(self) -> float:
        """Closed-form sliced W2 from the sampler's exact output law (the oracle) to the posterior."""
        a_mat = np.asarray(self.config["likelihood"]["A"])
        y = np.asarray(self.config["likelihood"]["y"])
        noise = self.config["likelihood"]["sigma_y"] ** 2
        prior_prec = np.linalg.inv(np.asarray(self.config["prior"]["cov"]))
        post_cov = np.linalg.inv(prior_prec + a_mat.T @ a_mat / noise)
        post_mean = post_cov @ (prior_prec @ np.asarray(self.config["prior"]["mean"]) + a_mat.T @ y / noise)
        mean, cov = self.oracle
        dirs = directions(len(mean))
        shift = dirs @ (mean - post_mean)
        spread = np.sqrt(np.einsum("pi,ij,pj->p", dirs, cov, dirs)) - np.sqrt(
            np.einsum("pi,ij,pj->p", dirs, post_cov, dirs)
        )
        return float(np.sqrt(len(mean) * np.mean(shift**2 + spread**2)))

    def expected_counts(self) -> dict[str, int]:
        K, R = self.config["sampler"]["K"], self.config["sampler"]["R"]
        return {
            "cli.main": 1,
            "harness.compare_to_oracle": 1,
            "sampler.mgdm_run_batch": 1,
            "sampler.gibbs_step": (K - 1) * R,
            "sampler.ddpm_denoise": 0,
            "vi.kl_gradient_estimate": 0,
            "oracle.oracle_recursion": 1,
            "oracle.build_kernels": K - 1,
        }


class CliRun1d(CliWorkload):
    """``mgdm run --jobs 1`` on the 1-D smoke config: the single-chain harness path."""

    name = "cli-run-1d"
    command = "run"
    extra_args = ["--jobs", "1"]
    output_file = "summary.json"
    samples_per_call = 100
    score_batches, score_chains = 20, 2000

    def __init__(self, seed: int, workdir: Path):
        # harness.smoke_config() written out, so that editing it does not change the workload;
        # n_runs is in the hundreds.
        self.config = {
            "prior": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
            "likelihood": {"kind": "linear", "A": [[1.0]], "y": [1.0], "sigma_y": 0.5},
            "schedule": {"family": "linear", "T": 200},
            "sampler": {
                "algorithm": "mgdm", "K": 10, "R": 1, "M": 5, "backend": "vi",
                "index": {"kind": "uniform-mix", "tau": 5},
                "vi": {"eta_early": 0.1, "eta": 0.1, "steps_late": 10, "steps": 10},
            },
            "n_runs": self.samples_per_call,
        }
        super().__init__(seed, workdir)

    def check_output(self, summary: dict) -> None:
        if summary["aggregate"]["n_runs"] != self.samples_per_call:
            raise CallFailed("summary.json reports the wrong run count")
        with open(self.out_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        x0 = np.array([float(row["x0_0"]) for row in rows])
        if len(x0) != self.samples_per_call or not np.all(np.isfinite(x0)):
            raise CallFailed("results.csv lacks finite samples for every run")
        self.runs = x0

    def accuracy(self) -> float:
        """Sliced W2 of the configured sampler's law to the posterior.

        One call yields only 100 runs, too few for a steady distance, so the
        same sampler config is scored through ``mgdm_run_batch`` (untimed).
        Each batch chain has the law of one run; the CLI's runs must agree
        with the batch chains' mean within 5 standard errors.
        """
        prior, likelihood, schedule = harness.build_problem(self.config)
        mcfg = harness.build_mgdm_config(self.config["sampler"], schedule)
        chains = np.vstack([
            sampler.mgdm_run_batch(likelihood, prior, schedule, mcfg, self.score_chains,
                                   np.random.default_rng((self.seed, REFERENCE_STREAM + 1, b)))
            for b in range(self.score_batches)
        ])
        if not np.all(np.isfinite(chains)):
            raise CallFailed("non-finite scoring chains")
        gap = abs(self.runs.mean() - chains.mean()) / (self.runs.std(ddof=1) / math.sqrt(len(self.runs)))
        if gap > 5.0:
            raise CallFailed(f"CLI runs disagree with batch chains: mean gap {gap:.1f} standard errors")
        post = priors.exact_posterior(prior, likelihood)
        ref = post.sample(len(chains), np.random.default_rng((self.seed, REFERENCE_STREAM)))
        return sliced_w2(chains, ref)

    def expected_counts(self) -> dict[str, int]:
        s = self.config["sampler"]
        steps = (s["K"] - 1) * s["R"] * self.samples_per_call
        return {
            "cli.main": 1,
            "harness.run_experiment": 1,
            "sampler.mgdm_run": self.samples_per_call,
            "sampler.gibbs_step": steps,
            "sampler.ddpm_denoise": steps,
            "vi.kl_gradient_estimate": s["R"] * self.samples_per_call
            * vi_budget(s["K"], s["vi"]["steps"], s["vi"]["steps_late"]),
        }


WORKLOADS = {w.name: w for w in (BimodalVi, GmmScaleViMh, GaussExactCompare, CliRun1d)}
