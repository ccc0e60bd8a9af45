"""Outside-in tracer: time calls into ``stablevar`` without changing ``src``.

For a traced run only, each listed public function is rebound wherever a
``stablevar`` module's globals hold it (``from .floc import cross_floc``
makes a second binding in ``diagnostics``), and class attributes are
rebound on their class. ``scipy.integrate.quad`` is rebound on
``scipy.integrate`` as well. Every call then records a span (name, start,
end, parent span); a span's self time is its duration minus the time of
its child spans. ``Tracer.restore`` puts every original binding back.

A target that no longer exists (a later change removed or renamed it) is
listed in ``Tracer.absent`` and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One traced function, reported as ``<name>.<field>`` for each field.

    ``name`` is ``<module>.<qualname>`` with the module's leading underscore
    dropped. Fields are ``calls``, ``failed``, ``total_s``, ``self_s`` or
    the name of the work count that ``work(args, result)`` computes.
    """

    name: str
    module: str
    qualname: str
    fields: Tuple[str, ...] = ("calls", "self_s")
    work: Optional[Callable] = None


def _len(x) -> int:
    return int(getattr(x, "shape", (len(x),))[0])


def _rows(args, result) -> int:
    return _len(result.values)


def _result_len(args, result) -> int:
    return _len(result)


def _sin_terms(args, result) -> int:
    return _len(args[0]) * _len(args[1])  # len(z) * len(t)


def _t(name, module, qualname, *fields, work=None):
    return Target(name, module, qualname, fields or ("calls", "self_s"), work)


_EST = ("calls", "self_s", "failed")
_DIAG = ("total_s", "self_s")

TARGETS: Tuple[Target, ...] = (
    _t("kernels.var_recursion", "stablevar._kernels", "var_recursion"),
    _t("kernels.stable_transform", "stablevar._kernels", "stable_transform"),
    _t("kernels.cross_floc_sum", "stablevar._kernels", "cross_floc_sum"),
    _t("kernels.gil_pelaez_cdf", "stablevar._kernels", "gil_pelaez_cdf",
       "calls", "self_s", "terms", work=_sin_terms),
    _t("var_core.simulate", "stablevar.var_core", "simulate",
       "calls", "self_s", "rows", work=_rows),
    _t("stable_noise.sample_stable", "stablevar.stable_noise", "sample_stable",
       "calls", "self_s", "draws", work=_result_len),
    _t("stable_noise.fit_stable_params", "stablevar.stable_noise", "fit_stable_params"),
    _t("floc.cross_floc", "stablevar.floc", "cross_floc"),
    _t("floc.lag_matrix_set", "stablevar.floc", "lag_matrix_set"),
    _t("estimators.estimate_floc", "stablevar.estimators", "estimate_floc", *_EST),
    _t("estimators.estimate_ls", "stablevar.estimators", "estimate_ls", *_EST),
    _t("estimators.estimate_yw", "stablevar.estimators", "estimate_yw", *_EST),
    _t("estimators.residuals", "stablevar.estimators", "residuals", "self_s"),
    _t("estimators.EstimationReport.to_csv", "stablevar.estimators",
       "EstimationReport.to_csv", "self_s"),
    _t("stable_dist.stable_cdf_bulk", "stablevar.stable_dist", "stable_cdf_bulk",
       "calls", "self_s", "points", work=_result_len),
    _t("stable_dist.stable_quantile", "stablevar.stable_dist", "stable_quantile"),
    _t("scipy.integrate.quad", "scipy.integrate", "quad", "calls"),
    _t("diagnostics.ks_test_stable", "stablevar.diagnostics", "ks_test_stable", *_DIAG),
    _t("diagnostics.auto_floc_null_band", "stablevar.diagnostics", "auto_floc_null_band", *_DIAG),
    _t("diagnostics.auto_floc", "stablevar.diagnostics", "auto_floc", *_DIAG),
    _t("diagnostics.qq_data", "stablevar.diagnostics", "qq_data", *_DIAG),
    _t("experiments.run_monte_carlo", "stablevar.experiments", "run_monte_carlo", "self_s"),
    _t("experiments.run_pipeline", "stablevar.experiments", "run_pipeline", "self_s"),
    _t("series.SeriesMatrix.to_csv", "stablevar.series", "SeriesMatrix.to_csv"),
    _t("series.SeriesMatrix.from_csv", "stablevar.series", "SeriesMatrix.from_csv"),
    _t("cli.main", "stablevar.cli", "main", "self_s"),
    _t("seeding.substream", "stablevar.seeding", "substream"),
)

ROOT_SPAN = "op"
_STAT_FIELDS = ("calls", "failed", "total_s", "self_s")


@dataclass
class Stat:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class Tracer:
    """Install with ``with Tracer(TARGETS) as tr:``; time ops with ``tr.span``."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats: Dict[str, Stat] = {t.name: Stat() for t in self.targets}
        self.stats[ROOT_SPAN] = Stat()
        # (span id, parent id or -1, name, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.absent: List[str] = []
        self._stack: list = []
        self._saved: list = []  # (namespace, attribute, original value)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, len(self.spans), parent]
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("tracer spans exited out of order")
        name, start, child_s, span_id, parent = frame
        total = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total_s += total
        stat.self_s += total - child_s
        if self._stack:
            self._stack[-1][2] += total
        self.spans[span_id] = (span_id, parent, name, start, end)

    def span(self, fn, *args):
        """Call ``fn(*args)`` inside a root span named ``op``.

        ``spans`` then holds the spans of this op only; ``stats`` accumulate.
        """
        self.spans = []
        frame = self._enter(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _wrap(self, target: Target, fn):
        stat = self.stats[target.name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(target.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                self._exit(frame)
            if target.work is not None:
                try:
                    stat.work += int(target.work(args, result))
                except (AttributeError, IndexError, TypeError):
                    pass  # the signature changed; the count reads 0
            return result

        return traced

    # -- binding -------------------------------------------------------------

    def _resolve(self, target: Target):
        """(owner, attribute, raw original) for ``target``, or None if absent."""
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        raw = vars(owner).get(attr)
        return None if raw is None else (owner, attr, raw)

    def _rebind(self, namespace, attr: str, value) -> None:
        self._saved.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, value)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self, target: Target) -> None:
        found = self._resolve(target)
        if found is None:
            self.absent.append(target.name)
            return
        owner, attr, raw = found
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            self._rebind(owner, attr, wrapped)
            return
        wrapped = self._wrap(target, raw)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and m is not owner
                   and (n == "stablevar" or n.startswith("stablevar."))]
        for module in [owner] + modules:
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._rebind(module, name, wrapped)

    def restore(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    # -- report --------------------------------------------------------------

    def layer_metrics(self, ops: int) -> Dict[str, Tuple[float, str]]:
        """Per-op ``{metric name: (value, unit)}`` for every target field."""
        out = {}
        for target in self.targets:
            stat = self.stats[target.name]
            for field in target.fields:
                value = getattr(stat, field) if field in _STAT_FIELDS else stat.work
                unit = "s" if field.endswith("_s") else "count"
                out[f"{target.name}.{field}"] = (value / ops, unit)
        attempted = sum(self.stats[f"estimators.estimate_{m}"].calls for m in ("floc", "ls", "yw"))
        failed = sum(self.stats[f"estimators.estimate_{m}"].failed for m in ("floc", "ls", "yw"))
        out["estimators.ok_ratio"] = ((attempted - failed) / attempted if attempted else 0.0, "ratio")
        return out

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()
