"""In-memory span tracer that wraps aopu functions from outside the package.

A wrapper must sit where the caller looks the function up at call time.
Methods are wrapped on their class. A module function is wrapped on its
module and on every other aopu module that binds the same object:
``harness`` imports ``batches`` by name from ``data``, so a wrapper on
``aopu.data.batches`` alone would record nothing.

A span's self time is its duration minus the durations of the spans opened
directly inside it. Counters record calls without timing them. Calls made
inside a training step or a surveyed batch (``augment.augment_batch`` or
``model.step``) also count toward the per-step figures.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import aopu.augment
import aopu.data
import aopu.harness
import aopu.linalg
import aopu.model

# (defining object, attribute, span name)
SPANS = (
    (aopu.harness, "train_run", "harness.train_run"),
    (aopu.harness, "rr_survey", "harness.rr_survey"),
    (aopu.harness, "prepare_windows", "data.prepare_windows"),
    (aopu.data, "batches", "data.batches"),
    (aopu.augment.Augmenter, "augment", "augment.augment"),
    (aopu.augment.Augmenter, "augment_batch", "augment.augment_batch"),
    (aopu.model.AopuModel, "step", "model.step"),
    (aopu.model, "dual", "model.dual"),
    (aopu.model, "reconstruct", "model.reconstruct"),
    (aopu.model, "truncated_gradient", "model.truncated_gradient"),
    (aopu.linalg, "rank", "linalg.rank"),
    (aopu.linalg, "pinv", "linalg.pinv"),
    (aopu.linalg, "svd", "linalg.svd"),
    (aopu.linalg, "column_gram", "linalg.column_gram"),
    (aopu.linalg, "as_matrix", "linalg.as_matrix"),
)

# spans inside which work counts toward the per-step figures
STEP_SPANS = ("augment.augment_batch", "model.step")

# LAPACK factorization entry points, as aopu.linalg reaches them through the
# numpy.linalg and scipy.linalg module attributes, with their flop model
FACTORIZATIONS = {
    np.linalg: {
        "svd": "svd", "pinv": "svd", "lstsq": "svd", "matrix_rank": "svd_values",
        "eigh": "eigh", "eigvalsh": "eigh_values", "eig": "eig", "eigvals": "eig",
        "qr": "qr", "cholesky": "cholesky", "solve": "lu", "inv": "lu",
        "det": "lu", "slogdet": "lu",
    },
    scipy.linalg: {
        "svd": "svd", "svdvals": "svd_values", "pinv": "svd", "lstsq": "svd",
        "eigh": "eigh", "eigvalsh": "eigh_values", "eig": "eig", "eigvals": "eig",
        "qr": "qr", "cholesky": "cholesky", "cho_factor": "cholesky",
        "lu": "lu", "lu_factor": "lu", "solve": "lu", "inv": "lu",
    },
}


def factorization_flops(kind: str, a, kwargs) -> float:
    """Computed flops of one dense factorization, from its input shape only.

    Golub and Van Loan's counts for an l-by-k input with l >= k: Golub-Kahan
    bidiagonalization for singular values alone, the thin Golub-Reinsch SVD
    with vectors, symmetric QR for eigenvalues, Householder QR and
    Cholesky/LU. Cache misses and blocking are ignored.
    """
    shape = np.shape(a)
    if len(shape) != 2:
        return 0.0
    l, k = max(shape), min(shape)
    if kind == "svd" and kwargs.get("compute_uv", True) is False:
        kind = "svd_values"
    if kind == "svd_values":
        return 4.0 * l * k * k - 4.0 * k**3 / 3.0
    if kind == "svd":
        return 14.0 * l * k * k + 8.0 * k**3
    if kind == "eigh_values":
        return 4.0 * k**3 / 3.0
    if kind in ("eigh", "eig"):
        return 9.0 * k**3
    if kind == "qr":
        return 4.0 * l * k * k - 4.0 * k**3 / 3.0
    if kind == "cholesky":
        return k**3 / 3.0
    return 2.0 * k**3 / 3.0  # lu


@dataclass
class Stat:
    calls: int = 0
    calls_in_step: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs the wrappers, accumulates spans and counters, then restores."""

    def __init__(self):
        self._stack: list[list] = []  # [start, seconds in child spans]
        self._step_depth = 0
        self._saved: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop what was recorded; installed wrappers stay in place."""
        self.stats: dict[str, Stat] = {}
        self.flops_in_step = 0.0
        self.bytes_out = 0
        self.batch_rr: list[float] = []
        self.steps_applied = 0

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def _record(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        if self._step_depth:
            st.calls_in_step += 1
        return st

    def _span(self, name: str, fn):
        is_step = name in STEP_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._record(name)
            if is_step:
                self._step_depth += 1
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                st.total_s += dur
                st.self_s += dur - frame[1]
                if is_step:
                    self._step_depth -= 1
            self._observe(name, out)
            return out

        return wrapper

    def _observe(self, name: str, out) -> None:
        if name == "augment.augment":
            self.bytes_out += out.nbytes
        elif name == "augment.augment_batch":
            self.batch_rr.append(out.rr)
        elif name == "model.step":
            self.steps_applied += 1

    def _counter(self, name: str, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._record(name)
            if self._step_depth and args:
                self.flops_in_step += factorization_flops(kind, args[0], kwargs)
            if name == "scipy.linalg.svd" and kwargs.get("lapack_driver") == "gesvd":
                self._record("linalg.svd_fallback")
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every span and counter target that the program defines.

        A target the program no longer defines is skipped and reads as zero.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            if attr in owner.__dict__:
                self._replace(owner, attr, self._span(name, owner.__dict__[attr]))
        for owner, table in FACTORIZATIONS.items():
            for attr, kind in table.items():
                if attr in owner.__dict__:
                    name = f"{owner.__name__}.{attr}"
                    self._replace(owner, attr, self._counter(name, kind, owner.__dict__[attr]))

    def _replace(self, owner, attr, wrapper) -> None:
        """Put ``wrapper`` on ``owner`` and on every aopu module alias of it.

        ``from .x import f`` gives the importing module its own binding, so a
        wrapper on the defining module alone misses callers of the alias.
        """
        original = owner.__dict__[attr]
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "aopu" or mod_name.startswith("aopu.")):
                continue
            targets += [(mod, k) for k, v in vars(mod).items() if v is original]
        for obj, key in targets:
            self._saved.append((obj, key, original))
            setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def factorizations_in_step(self) -> int:
        return sum(
            st.calls_in_step
            for name, st in self.stats.items()
            if name.startswith(("numpy.linalg.", "scipy.linalg."))
        )

    def self_seconds(self) -> float:
        """Sum of every span's self time: the traced time the spans cover."""
        return sum(st.self_s for st in self.stats.values())
