"""In-memory span tracer installed from outside the program.

The tracer replaces each traced function at every place it is bound: the
module that defines it, every module that imported it by name, and the
class that holds it as a method.  A reference it cannot replace makes
``install`` raise, so a call path that would skip the wrapper never goes
unnoticed.  ``uninstall`` restores the originals, so untraced calls run
the program exactly as shipped.

Each span is ``(function index, start, end, parent span, call id)``; the
call id is the workload call the span belongs to.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
import types

import numpy as np

# (module, qualified name) of every traced function, in report order.
TRACED = (
    ("cli", "main"),
    ("harness", "run_experiment"),
    ("harness", "compare_to_oracle"),
    ("sampler", "mgdm_run"),
    ("sampler", "mgdm_run_batch"),
    ("sampler", "gibbs_step"),
    ("sampler", "ddpm_denoise"),
    ("vi", "fit_variational"),
    ("vi", "kl_gradient_estimate"),
    ("vi", "conditional_coefficients"),
    ("vi", "mh_correct"),
    ("likelihoods", "log_g_hat"),
    ("priors", "GmmPrior.denoise"),
    ("priors", "GaussianPrior.denoise"),
    ("priors", "GaussianPrior.denoiser_affine"),
    ("priors", "GaussianPrior.backward_sample"),
    ("priors", "exact_posterior"),
    ("schedule", "NoiseSchedule.bridge_sample"),
    ("schedule", "NoiseSchedule.forward_sample"),
    ("oracle", "oracle_recursion"),
    ("oracle", "build_kernels"),
    ("metrics", "sliced_wasserstein2"),
)
NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)


class Tracer:
    """Records spans and two computed counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.call_id = -1
        self.jac_bytes = 0
        self.mh_moved = 0
        self.mh_chains = 0
        self._stack: list[int] = []
        self._originals: list = []
        self._name_of: dict[int, str] = {}
        self._sites: list[tuple] = []  # (owner, attr, original, wrapper, label)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Swap every binding of each traced function for its wrapper."""
        first = not self._sites
        if first:
            self._find_sites()
        for owner, attr, _, wrapper, _ in self._sites:
            setattr(owner, attr, wrapper)
        if first:
            self._check_nothing_missed()

    def uninstall(self) -> None:
        for owner, attr, original, _, _ in self._sites:
            setattr(owner, attr, original)

    def bindings(self) -> dict[str, list[str]]:
        """Where each traced function is bound, e.g. ``mgdm.vi.log_g_hat``."""
        out: dict[str, list[str]] = {name: [] for name in NAMES}
        for _, _, original, _, label in self._sites:
            out[self._name_of[id(original)]].append(label)
        return out

    def _find_sites(self) -> None:
        wrappers = {}
        for idx, (mod, qual) in enumerate(TRACED):
            owner = sys.modules[f"mgdm.{mod}"]
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if not isinstance(original, types.FunctionType):
                raise RuntimeError(f"{NAMES[idx]} is not a plain function")
            self._originals.append(original)
            self._name_of[id(original)] = NAMES[idx]
            wrappers[id(original)] = self._wrap(idx, original)
        # Module globals of every mgdm module, and attributes of their classes.
        owners = {}
        for name, module in sorted(sys.modules.items()):
            if name == "mgdm" or name.startswith("mgdm."):
                owners[id(module)] = (module, name)
                for value in vars(module).values():
                    if isinstance(value, type) and value.__module__.startswith("mgdm"):
                        owners.setdefault(id(value), (value, f"{value.__module__}.{value.__qualname__}"))
        for owner, label in owners.values():
            for attr, value in vars(owner).items():
                if isinstance(value, types.FunctionType) and id(value) in wrappers:
                    self._sites.append((owner, attr, value, wrappers[id(value)], f"{label}.{attr}"))

    def _check_nothing_missed(self) -> None:
        """With the wrappers in place, only the tracer may still hold an original."""
        for original in self._originals:
            name = self._name_of[id(original)]
            if not any(site[2] is original for site in self._sites):
                self.uninstall()
                raise RuntimeError(f"{name} has no binding to wrap")
            stray = []
            for ref in gc.get_referrers(original):
                if ref is self._originals or isinstance(ref, (types.CellType, types.FrameType)):
                    continue
                if isinstance(ref, tuple) and any(ref is site for site in self._sites):
                    continue
                if isinstance(ref, dict) and ref.get("__wrapped__") is original:
                    continue  # the wrapper's own __dict__
                stray.append(type(ref).__name__)
            if stray:
                self.uninstall()
                raise RuntimeError(f"{name} is still referenced where the tracer cannot wrap it: {stray}")

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = {"priors.GmmPrior.denoise": self._count_jacobian, "vi.mh_correct": self._count_moves}.get(NAMES[idx])
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, self.call_id)
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _count_jacobian(self, arguments, result) -> None:
        # Computed, not measured: N * d^2 * 8 bytes per call that returns a Jacobian.
        if getattr(result, "jacobian", None) is None:
            return
        x_t = np.asarray(arguments["x_t"])
        d = x_t.shape[-1]
        self.jac_bytes += int(np.prod(x_t.shape[:-1], dtype=np.int64)) * d * d * 8

    def _count_moves(self, arguments, result) -> None:
        moved = np.any(np.asarray(result) != np.asarray(arguments["current"]), axis=-1)
        self.mh_moved += int(np.sum(moved))
        self.mh_chains += int(moved.size)

    # -- analysis ---------------------------------------------------------------

    def per_call(self, n_calls: int) -> dict[str, dict[str, float]]:
        """Mean calls and self time per workload call, for each traced function."""
        calls = np.zeros(len(NAMES))
        self_s = np.zeros(len(NAMES))
        child_s = np.zeros(len(self.spans))
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for k, (idx, start, end, _, _) in enumerate(self.spans):
            calls[idx] += 1
            self_s[idx] += (end - start) - child_s[k]
        return {
            name: {"calls": calls[i] / n_calls, "self_s": self_s[i] / n_calls} for i, name in enumerate(NAMES)
        }

    def counts_by_call(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for idx, _, _, _, call in self.spans:
            per = out.setdefault(call, {})
            per[NAMES[idx]] = per.get(NAMES[idx], 0) + 1
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, call."""
        with open(path, "w") as fh:
            for idx, start, end, parent, call in self.spans:
                fh.write(json.dumps([NAMES[idx], start, end, parent, call]) + "\n")
