"""Experiment harness: seeded runs, sweeps, and oracle comparisons.

Configs are JSON documents; every output embeds the config hash and the
master seed so a result file can be reproduced exactly from itself.
Per-run randomness comes from ``SeedSequence((master_seed, run_index))``
(or ``(master_seed, combo_index, run_index)`` inside sweeps), so runs are
independent streams and insensitive to execution order.

An experiment's runs travel as their seeds and one ``(n_runs, d)`` array of
x_0 in run order, in process or from ``--jobs`` workers (one array a chunk),
into ``results.csv``, ``summary.json`` and ``sweep.csv``; one writer,
``_write_report``, writes every JSON report.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .likelihoods import likelihood_from_json, require_linear_gaussian
from .metrics import sliced_wasserstein2, wasserstein1_1d
from .oracle import oracle_recursion
from .priors import exact_posterior, prior_from_json
from .sampler import (
    IndexDistribution,
    MgdmConfig,
    ViPhaseSchedule,
    dps_run,
    make_timesteps,
    mgdm_run,
    mgdm_run_batch,
)
from .schedule import NoiseSchedule, make_schedule, require_integer, require_number


# -- config plumbing ----------------------------------------------------------


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def config_hash(config: dict) -> str:
    import hashlib  # here, not at the top: a process that hashes no config need not load OpenSSL's libcrypto

    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _build_schedule(spec: dict) -> NoiseSchedule:
    if "alphas" in spec:
        return NoiseSchedule.from_json(spec)
    return make_schedule(spec.get("family", "linear"), spec["T"], alpha_end=spec.get("alpha_end", 0.01))


def build_problem(config: dict):
    """(prior, likelihood, schedule) of a config whose every section, the sampler's too, holds only its kind's keys."""
    for name, kinds in _SECTION_KEYS.items():
        spec = config.get(name)
        if not isinstance(spec, dict):
            raise ValueError(f"config needs a '{name}' section")
        kind = {"schedule": "alphas" in spec, "sampler": spec.get("algorithm", "mgdm")}.get(name, spec.get("kind"))
        if kind in kinds:  # an unknown kind is named by the section's reader
            _check_keys(spec, kinds[kind], name)
    prior = prior_from_json(config["prior"])
    likelihood = likelihood_from_json(config["likelihood"])
    if likelihood.dim != prior.dim:
        raise ValueError(f"likelihood A needs {prior.dim} columns, the prior's dimension, but has {likelihood.dim}")
    schedule = _build_schedule(config["schedule"])
    return prior, likelihood, schedule


# The keys the harness reads; any other key fails before a run (a misspelled one would run on its default).
_CONFIG_KEYS = ("prior", "likelihood", "schedule", "sampler", "n_runs", "master_seed", "sweep")
# The keys each kind of section reads; a schedule's kind is whether it lists its alphas, a sampler's its algorithm.
_SECTION_KEYS = {
    "prior": {"gaussian": ("kind", "mean", "cov"), "gmm": ("kind", "weights", "means", "covs")},
    "likelihood": dict.fromkeys(("linear", "quadratic"), ("kind", "A", "y", "sigma_y")),
    "schedule": {True: ("alphas", "family", "T"), False: ("family", "T", "alpha_end")},
    "sampler": {"mgdm": ("algorithm", "backend", "timesteps", "K", "R", "M", "index", "vi", "mh_steps", "final",
                         "final_s"), "dps": ("algorithm", "K", "zeta")},
}
# The integer settings of each section (of a list setting, each entry): JSON integers, never truncated floats.
_INTEGER_KEYS = {
    "the config": ("n_runs", "master_seed"), "schedule": ("T",), "sweep": ("R", "G"),
    "sampler": ("timesteps", "K", "R", "M", "mh_steps", "final_s"), "sampler.index": ("tau", "values"),
    "sampler.vi": ("steps", "steps_late"),
}


def _check_keys(section: dict, known: tuple, name: str) -> dict:
    """``section`` once each key is known and each of its ``_INTEGER_KEYS`` is an integer, not a bool."""
    for key in section:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {name}; known keys: {', '.join(known)}")
        if key in _INTEGER_KEYS.get(name, ()):
            label, value = key if name == "the config" else f"{name}.{key}", section[key]
            for j, entry in enumerate(value) if isinstance(value, (list, tuple)) else [(None, value)]:
                require_integer(label if j is None else f"{label}[{j}]", entry)
    return section


_BACKENDS = {
    "exact": {"conditional": "exact", "denoise": "exact"},
    "vi": {"conditional": "vi", "denoise": "ddpm"},
    "vi-mh": {"conditional": "vi-mh", "denoise": "ddpm"},
}


def build_mgdm_config(spec: dict, schedule: NoiseSchedule) -> MgdmConfig:
    backend = spec.get("backend", "vi")
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(_BACKENDS)}")
    timesteps = spec.get("timesteps")
    if timesteps is None:
        timesteps = make_timesteps(spec.get("K", 100), schedule.T)
    vi_spec = _check_keys(spec.get("vi") or {}, tuple(f.name for f in fields(ViPhaseSchedule)), "sampler.vi")
    try:
        vi = ViPhaseSchedule(**vi_spec)
    except ValueError as err:  # its messages start with the field name, which is the config key
        raise ValueError(f"sampler.vi.{err}") from None
    index_spec = _check_keys(spec.get("index") or {}, tuple(f.name for f in fields(IndexDistribution)), "sampler.index")
    return MgdmConfig(
        timesteps=tuple(timesteps),
        R=spec.get("R", 1),
        M=spec.get("M", 20),
        vi=vi,
        index_dist=IndexDistribution(**index_spec),
        mh_steps=spec.get("mh_steps", 0),
        final=spec.get("final", "sample"),
        final_s=spec.get("final_s", 1),
        **_BACKENDS[backend],
    )


def _run_seed(master_seed: int, *indices: int) -> int:
    return int(np.random.SeedSequence((master_seed, *indices)).generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated view of a JSON experiment config.

    Construction builds every referenced object once, so malformed
    sections fail fast with readable errors instead of mid-run, and every
    run of the experiment shares them.  ``mgdm`` is None for the DPS
    baseline, whose (K, zeta) are in ``dps``.
    """

    raw: dict
    n_runs: int
    master_seed: int
    prior: object
    likelihood: object
    schedule: NoiseSchedule
    mgdm: MgdmConfig | None
    dps: tuple[int, float] | None

    @classmethod
    def from_dict(cls, config: dict) -> "ExperimentConfig":
        _check_keys(config, _CONFIG_KEYS, "the config")
        if "master_seed" not in config:
            raise ValueError("config needs a 'master_seed'")
        if config["master_seed"] < 0:  # SeedSequence's own message names no field
            raise ValueError(f"master_seed must be >= 0, got {config['master_seed']}")
        _check_keys(config.get("sweep") or {}, ("R", "G", "index"), "sweep")
        prior, likelihood, schedule = build_problem(config)
        sampler = config["sampler"]
        algorithm, dps = sampler.get("algorithm", "mgdm"), None
        if algorithm == "mgdm":
            mgdm = build_mgdm_config(sampler, schedule)
            mgdm.validate_against(schedule)
            if mgdm.conditional == "exact":
                require_linear_gaussian(likelihood, prior, "exact conditional")
            if mgdm.final == "denoise":
                require_linear_gaussian(likelihood, prior, "the denoise final step")
        elif algorithm == "dps":
            mgdm, dps = None, (sampler.get("K", 100), require_number("zeta", sampler.get("zeta", 1.0)))
            make_timesteps(dps[0], schedule.T)  # dps_run's grid: K >= 2 distinct levels up to T
            if not 0.0 <= dps[1] < np.inf:  # NaN too
                raise ValueError("zeta must be >= 0 and finite")
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        n_runs = config.get("n_runs", 1)
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        return cls(
            raw=config, n_runs=n_runs, master_seed=config["master_seed"], prior=prior,
            likelihood=likelihood, schedule=schedule, mgdm=mgdm, dps=dps,
        )

    @cached_property
    def posterior(self):
        """The exact posterior, built on first read; None when no closed form exists."""
        try:
            return exact_posterior(self.prior, self.likelihood)
        except TypeError:
            return None


# -- runs ----------------------------------------------------------------------


def _execute_run(experiment: ExperimentConfig, seed: int) -> np.ndarray:
    """The x_0 of one run, shape (d,)."""
    rng = np.random.default_rng(seed)
    problem = (experiment.likelihood, experiment.prior, experiment.schedule)
    if experiment.mgdm is None:
        K, zeta = experiment.dps
        return dps_run(*problem, K=K, zeta=zeta, rng=rng)
    return mgdm_run(*problem, experiment.mgdm, rng)


def _run_chunk(config: dict, seeds: list[int]) -> np.ndarray:
    """Runs of one experiment in a worker process, which builds its objects once; one row each."""
    experiment = ExperimentConfig.from_dict(config)
    return np.array([_execute_run(experiment, seed) for seed in seeds])


def _collect_runs(experiment: ExperimentConfig, jobs: int, combo_idx: int | None = None) -> tuple[list, np.ndarray]:
    """The runs' seeds and their (n_runs, d) samples, in run order."""
    tag = () if combo_idx is None else (combo_idx,)
    seeds = [_run_seed(experiment.master_seed, *tag, r) for r in range(experiment.n_runs)]
    if jobs <= 1:
        return seeds, np.array([_execute_run(experiment, seed) for seed in seeds])
    from concurrent.futures import ProcessPoolExecutor  # here, not at the top: it loads multiprocessing

    n_chunks = min(jobs, len(seeds))
    samples = np.empty((len(seeds), experiment.prior.dim))
    with ProcessPoolExecutor(max_workers=n_chunks) as pool:
        chunks = [seeds[k::n_chunks] for k in range(n_chunks)]
        for k, part in enumerate(pool.map(_run_chunk, [experiment.raw] * n_chunks, chunks)):
            samples[k::n_chunks] = part
    return seeds, samples


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def _out_dir(out_dir: str | Path) -> Path:
    """The output directory, created now, so that an unusable ``--out`` fails before any run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(path: Path, experiment: ExperimentConfig, report: dict) -> dict:
    """``report`` stamped with the config hash and master seed, written as sorted, indented JSON."""
    report.update(config_hash=config_hash(experiment.raw), master_seed=experiment.master_seed)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def _aggregate(experiment: ExperimentConfig, samples: np.ndarray, seed_tag: int) -> dict:
    n, mean = len(samples), samples.mean(axis=0)
    emp_cov = np.atleast_2d(np.cov(samples.T, bias=False)) if n > 1 else None
    prior = experiment.prior.moments()
    # a run diverged when a coordinate of x_0 is NaN or more than 100 prior standard deviations from the prior mean
    diverged = np.any(~(np.abs(samples - prior.mean) <= 100.0 * np.sqrt(np.diag(prior.cov))), axis=1)
    agg: dict = {
        "n_runs": n,
        "mean": mean.tolist(),
        "cov": None if emp_cov is None else emp_cov.tolist(),
        "diverged_frac": float(diverged.mean()),
        "diverged_runs": np.flatnonzero(diverged).tolist(),
    }
    post = experiment.posterior
    if post is None:
        return agg
    rng = np.random.default_rng(_run_seed(seed_tag, 999_983))
    ref = post.sample(max(n, 1024), rng)
    post_moments = post.moments()
    agg["posterior_mean"] = np.asarray(post_moments.mean).tolist()
    agg["mean_error"] = float(np.linalg.norm(mean - post_moments.mean))
    if emp_cov is not None:
        agg["cov_error_fro"] = float(np.linalg.norm(emp_cov - post_moments.cov))
    agg["sliced_w2"] = float(
        sliced_wasserstein2(samples, ref, rng=np.random.default_rng(_run_seed(seed_tag, 999_979)))
    )
    if samples.shape[1] == 1:
        ref_eq = post.sample(n, np.random.default_rng(_run_seed(seed_tag, 999_961)))
        agg["w1"] = float(wasserstein1_1d(samples, ref_eq))
    return agg


def run_experiment(config: dict, out_dir: str | Path, jobs: int = 1) -> dict:
    """Execute ``n_runs`` seeded runs, write results.csv + summary.json."""
    experiment = ExperimentConfig.from_dict(config)
    post = experiment.posterior  # built now, so a degenerate posterior fails before any run
    out = _out_dir(out_dir)
    seeds, samples = _collect_runs(experiment, jobs)
    mcfg = experiment.mgdm
    label = (0, 0, "none") if mcfg is None else (mcfg.R, mcfg.vi.steps, mcfg.index_dist.kind)
    columns = ["run_id", "seed", "R", "G", "index_dist"] + [f"x0_{j}" for j in range(samples.shape[1])] + ["log_post"]
    _write_csv(out / "results.csv", columns, (
        [r, seed, *label, *x.tolist(), float("nan") if post is None else float(post.log_density(x))]
        for r, (seed, x) in enumerate(zip(seeds, samples))
    ))
    aggregate = _aggregate(experiment, samples, experiment.master_seed)
    summary = _write_report(out / "summary.json", experiment, {"config": config, "aggregate": aggregate})
    return summary


def _combo_experiment(config: dict, r_val, g_val, index_kind) -> ExperimentConfig:
    cfg = json.loads(json.dumps(config))
    sampler = cfg["sampler"]
    sampler["R"] = r_val
    if g_val is not None:
        sampler["vi"] = {**(sampler.get("vi") or {}), "steps": g_val, "steps_late": g_val}
    if index_kind is not None:  # the swept kind keeps the base law's other keys (tau, late_fraction, ...)
        sampler["index"] = {**(sampler.get("index") or {}), "kind": index_kind}
    return ExperimentConfig.from_dict(cfg)


def run_sweep(config: dict, out_dir: str | Path, jobs: int = 1) -> dict:
    """Cross-product sweep over sampler axes (R / G / index kinds); every combo is validated before the first run."""
    base = ExperimentConfig.from_dict(config)
    if base.mgdm is None:
        raise ValueError("sweep varies R, G and index, which algorithm 'dps' does not read")
    sweep = config.get("sweep", {})
    if not sweep:
        raise ValueError("sweep config needs a 'sweep' section")
    for axis, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"sweep axis {axis!r} must be a non-empty list, got {values!r}")
    if "G" in sweep and base.mgdm.conditional == "exact":
        raise ValueError("sweep varies G, the VI step budget, which backend 'exact' does not read")
    base.posterior  # built now, so a degenerate posterior fails before any run
    r_values = sweep.get("R", [config["sampler"].get("R", 1)])
    g_values = sweep.get("G", [None])
    index_kinds = sweep.get("index", [None])
    combos = [(r, g, ix) for r in r_values for g in g_values for ix in index_kinds]
    experiments = [_combo_experiment(config, *combo) for combo in combos]
    out = _out_dir(out_dir)

    agg_rows = []
    for combo_idx, ((r_val, g_val, _), experiment) in enumerate(zip(combos, experiments)):
        _, samples = _collect_runs(experiment, jobs, combo_idx=combo_idx)
        agg = _aggregate(experiment, samples, experiment.master_seed + combo_idx)
        agg_rows.append(
            {
                "combo_id": combo_idx,
                "R": r_val,
                "G": -1 if g_val is None else g_val,
                "index_dist": experiment.mgdm.index_dist.kind,
                "n_runs": agg["n_runs"],
                "mean_error": agg.get("mean_error", float("nan")),
                "sliced_w2": agg.get("sliced_w2", float("nan")),
                "diverged_frac": agg["diverged_frac"],
            }
        )
    for prev, cur in zip(agg_rows, agg_rows[1:]):
        cur["sw2_nonincreasing"] = bool(cur["sliced_w2"] <= prev["sliced_w2"] + 1e-12)
    agg_rows[0]["sw2_nonincreasing"] = ""
    columns = ["combo_id", "R", "G", "index_dist", "n_runs", "mean_error", "sliced_w2", "sw2_nonincreasing",
               "diverged_frac"]
    _write_csv(out / "sweep.csv", columns, ([row[c] for c in columns] for row in agg_rows))
    return _write_report(out / "summary.json", base, {"config": config, "rows": agg_rows})


# -- oracle paths ---------------------------------------------------------------


def _replay_config(experiment: ExperimentConfig) -> MgdmConfig:
    """The sampler config with its levels drawn once from the master seed and recorded as
    a ``fixed`` sequence: the one chain that both the sampler and the moment oracle run."""
    mcfg = experiment.mgdm
    if mcfg is None:
        raise ValueError("the moment oracle models the MGDM sampler, not algorithm 'dps'")
    seq = mcfg.draw_levels(np.random.default_rng(_run_seed(experiment.master_seed, 424_243)))
    return replace(mcfg, index_dist=IndexDistribution("fixed", values=seq))


def run_oracle(config: dict, out_dir: str | Path) -> dict:
    """Evaluate the moment recursion and write oracle.json."""
    experiment = ExperimentConfig.from_dict(config)
    mcfg = _replay_config(experiment)
    out = _out_dir(out_dir)
    law = oracle_recursion(experiment.prior, experiment.likelihood, experiment.schedule, mcfg)
    return _write_report(out / "oracle.json", experiment, {
        "mean": law.mean.tolist(),
        "cov": law.cov.tolist(),
        "index_sequence": list(mcfg.index_dist.values),
        "timesteps": list(mcfg.timesteps),
    })


def covariance_se(cov: np.ndarray, n: int) -> np.ndarray:
    """SE of each sample-covariance entry of n draws from N(., cov): the unbiased
    estimate is Wishart(cov / (n - 1), n - 1), so Var_ij = (C_ii C_jj + C_ij^2) / (n - 1)."""
    diag = np.diag(cov)
    return np.sqrt((np.outer(diag, diag) + cov**2) / (n - 1))


def compare_to_oracle(config: dict, out_dir: str | Path, measure_vi_error: bool = False) -> dict:
    """Batched runs vs the moment oracle: per-entry z-scores, 3-sigma rule.

    The exact backend's output law is the oracle Gaussian, so the z-scores
    take their standard errors from the oracle covariance in closed form.
    Requires the exact backend (the oracle does not model the VI
    conditional); pass ``measure_vi_error`` to run the VI backend anyway
    and report, without a pass/fail verdict, its discrepancy from the
    oracle of the same denoise backend (the DDPM pass with the config's M),
    so the error reported is that of VI alone.
    """
    experiment = ExperimentConfig.from_dict(config)
    mcfg = _replay_config(experiment)
    backend, n_runs = mcfg.conditional, experiment.n_runs
    if backend != "exact" and not measure_vi_error:
        raise ValueError(
            "compare_to_oracle requires backend='exact'; use measure_vi_error=True to "
            "report the discrepancy of an approximate backend instead"
        )
    if n_runs < 2:
        raise ValueError("compare_to_oracle needs n_runs >= 2 for z-scores")
    prior, likelihood, schedule = experiment.prior, experiment.likelihood, experiment.schedule
    require_linear_gaussian(likelihood, prior, "the moment oracle")
    out = _out_dir(out_dir)

    oracle = oracle_recursion(prior, likelihood, schedule, mcfg)  # first, so a degenerate law fails before any run
    rng = np.random.default_rng(_run_seed(experiment.master_seed, 77_377))
    samples = mgdm_run_batch(likelihood, prior, schedule, mcfg, n_runs, rng)

    emp_mean = samples.mean(axis=0)
    emp_cov = np.atleast_2d(np.cov(samples.T, bias=False))
    report: dict = {
        "n_runs": n_runs,
        "backend": backend,
        "index_sequence": list(mcfg.index_dist.values),
        "timesteps": list(mcfg.timesteps),
        "oracle_mean": oracle.mean.tolist(),
        "oracle_cov": oracle.cov.tolist(),
        "empirical_mean": emp_mean.tolist(),
        "empirical_cov": emp_cov.tolist(),
    }
    if measure_vi_error and backend != "exact":
        report["denoise"], report["M"] = mcfg.denoise, mcfg.M
        report["mean_rel_error"] = float(
            np.linalg.norm(emp_mean - oracle.mean) / max(np.linalg.norm(oracle.mean), 1e-300)
        )
        report["cov_rel_error_fro"] = float(
            np.linalg.norm(emp_cov - oracle.cov) / max(np.linalg.norm(oracle.cov), 1e-300)
        )
        report["passed"] = None
    else:
        z_mean = (emp_mean - oracle.mean) / np.sqrt(np.diag(oracle.cov) / n_runs)
        z_cov = (emp_cov - oracle.cov) / covariance_se(oracle.cov, n_runs)
        report["z_mean"] = z_mean.tolist()
        report["z_cov"] = z_cov.tolist()
        report["passed"] = bool(np.all(np.abs(z_mean) < 3.0) and np.all(np.abs(z_cov) < 3.0))
    return _write_report(out / "compare.json", experiment, report)


def smoke_config() -> dict:
    """Tiny 1-D end-to-end config used by the smoke subcommand and tests."""
    return {
        "prior": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
        "likelihood": {"kind": "linear", "A": [[1.0]], "y": [1.0], "sigma_y": 0.5},
        "schedule": {"family": "linear", "T": 200},
        "sampler": {
            "algorithm": "mgdm",
            "K": 10,
            "R": 1,
            "M": 5,
            "backend": "vi",
            "index": {"kind": "uniform-mix", "tau": 5},
            "vi": {"eta_early": 0.1, "eta": 0.1, "steps_late": 10, "steps": 10},
        },
        "n_runs": 10,
        "master_seed": 7,
    }
