"""Out-of-program tracing for the certificate benchmark.

The probes wrap public callables of `preproj_hh` from outside, without
changing the package: a module-level function is rebound in every
`preproj_hh` module that holds it (so `from .algebra import build_algebra`
in `cli` is covered too), and a method is replaced on its class.  Calls that
import a name at call time (`from .exactla import sparse_rank as _sr`) read
the patched module attribute and are covered as well.

Spans nest.  A span's self time is its duration minus the time of the spans
it encloses.  Stage probes follow the stages `compute_certificate` times in
its certificate header; a stage metric counts only stage spans that no other
stage span encloses, so the same callable reached from inside another stage
(`canonical_cocycles` from the Yoneda engine, say) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

STAGE, CALL, KERNEL = "stage", "call", "kernel"


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    `target` is "module:attr" or "module:Class.attr".  `metric` is the stage
    metric name for stage probes and the metric prefix otherwise.  `key`
    maps the call's arguments to a hashable identity for `distinct_ratio`;
    `size` maps them to (cells, nnz, args) for kernels.  With `per_object`,
    the size is computed once per first argument (the matrix or solver) and
    reused.  `needs` names the property a workload must have for the call
    path to reach the probe.
    """

    target: str
    kind: str
    metric: str
    key: Optional[Callable] = None
    size: Optional[Callable] = None
    per_object: bool = False
    needs: Optional[str] = None


def _dense_nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x != 0)


def _echelonize_size(args, kwargs):
    m = args[0]
    return m.nrows * m.ncols, _dense_nnz(m.rows), args


def _prepared_init_size(args, kwargs):
    m = args[1] if len(args) > 1 else kwargs["matrix"]
    return m.nrows * m.ncols, _dense_nnz(m.rows), args


def _matvec_size(args, kwargs):
    m = args[0]
    return m.nrows * m.ncols, _dense_nnz(m.rows), args


def _prepared_solve_size(args, kwargs):
    transform = args[0].transform
    return len(transform) ** 2, _dense_nnz(transform), args


def _sparse_rank_size(args, kwargs):
    # the rows may arrive as a generator: materialize them once and pass the
    # list on, so that counting does not consume the kernel's input
    rows = list(args[0])
    columns = set()
    nnz = 0
    for row in rows:
        columns.update(row)
        nnz += sum(1 for v in row.values() if v != 0)
    return len(rows) * len(columns), nnz, (rows,) + tuple(args[1:])


def _rank_mod_p_size(args, kwargs):
    rows = args[0]
    cols = len(rows[0]) if len(rows) else 0
    return len(rows) * cols, _dense_nnz(rows), args


def _lift_key(self, vec, degree, steps, variable_order="forward"):
    return degree, steps, variable_order, tuple(vec)


def _identify_key(self, vec, degree):
    return degree, tuple(vec)


_P = "preproj_hh."

# The stages of compute_certificate, in order, then the serialization the
# benchmark itself calls.  Several targets may share one stage metric.
PROBES: Tuple[Probe, ...] = (
    Probe(_P + "algebra:build_algebra", STAGE, "algebra.s"),
    Probe(_P + "algebra:cartan_matrix", STAGE, "algebra.s"),
    Probe(_P + "algebra:center_basis", STAGE, "algebra.s"),
    Probe(_P + "nakayama:associated_form", STAGE, "nakayama.s"),
    Probe(_P + "nakayama:certify_dualizable", STAGE, "nakayama.s"),
    Probe(_P + "resolution:build_resolution", STAGE, "resolution.build_s"),
    Probe(_P + "resolution:certify_exact", STAGE, "resolution.certify_s"),
    Probe(_P + "cochain:build_complex", STAGE, "cochain.build_s"),
    Probe(_P + "cochain:hh_dims", STAGE, "cochain.dims_s"),
    Probe(_P + "cochain:homology_dims", STAGE, "cochain.dims_s"),
    Probe(_P + "cochain:cyclic_dims", STAGE, "cochain.dims_s", needs="char0"),
    Probe(_P + "cochain:canonical_cocycles", STAGE, "cochain.canonical_s"),
    Probe(_P + "cochain:zmodule_checks", STAGE, "cochain.canonical_s"),
    Probe(_P + "yoneda:YonedaEngine.product_table", STAGE, "yoneda.products_s"),
    Probe(_P + "yoneda:c_matrix", STAGE, "yoneda.c_matrix_s"),
    Probe(_P + "presentation:theorem_spec", STAGE, "presentation.verify_s"),
    Probe(_P + "presentation:verify", STAGE, "presentation.verify_s"),
    Probe(_P + "presentation:stable_check", STAGE, "presentation.stable_s"),
    Probe(_P + "yoneda:stable_structure_check", STAGE, "presentation.stable_s"),
    Probe(_P + "oracle:compare", STAGE, "oracle.compare_s", needs="oracle"),
    Probe(_P + "cli:write_certificate", STAGE, "cli.serialize_s"),
    Probe(_P + "cli:certificate_bytes", STAGE, "cli.serialize_s"),
    Probe(_P + "yoneda:YonedaEngine.lift", CALL, "yoneda.lift", key=_lift_key),
    Probe(_P + "yoneda:YonedaEngine.identify", CALL, "yoneda.identify",
          key=_identify_key),
    Probe(_P + "cochain:CochainComplex.is_cocycle", CALL, "cochain.is_cocycle"),
    Probe(_P + "cochain:CochainComplex.coboundary_solve", CALL,
          "cochain.coboundary_solve"),
    Probe(_P + "exactla:ExactMatrix.echelonize", KERNEL, "exactla.echelonize",
          size=_echelonize_size),
    Probe(_P + "exactla:PreparedSolver.__init__", KERNEL, "exactla.prepared_init",
          size=_prepared_init_size),
    # matvec and prepared solves run against the same few long-lived matrices
    # thousands of times; counting once per matrix keeps the counting from
    # doubling the kernel's cost
    Probe(_P + "exactla:PreparedSolver.solve", KERNEL, "exactla.prepared_solve",
          size=_prepared_solve_size, per_object=True),
    Probe(_P + "exactla:ExactMatrix.matvec", KERNEL, "exactla.matvec",
          size=_matvec_size, per_object=True),
    Probe(_P + "exactla:sparse_rank", KERNEL, "exactla.sparse_rank",
          size=_sparse_rank_size),
    Probe(_P + "exactla:rank_mod_p", KERNEL, "exactla.rank_mod_p",
          size=_rank_mod_p_size),
)

# certificate header timing key -> the stage metrics whose spans it encloses
HEADER_STAGES: Dict[str, Tuple[str, ...]] = {
    "algebra": ("algebra.s",),
    "nakayama": ("nakayama.s",),
    "resolution": ("resolution.build_s", "resolution.certify_s"),
    "cochain": ("cochain.build_s", "cochain.dims_s"),
    "canonical": ("cochain.canonical_s",),
    "products": ("yoneda.products_s", "yoneda.c_matrix_s"),
    "presentation": ("presentation.verify_s", "presentation.stable_s"),
    "oracle": ("oracle.compare_s",),
}


def stage_metrics() -> List[str]:
    out: List[str] = []
    for p in PROBES:
        if p.kind == STAGE and p.metric not in out:
            out.append(p.metric)
    return out


def self_metric(stage: str) -> str:
    """'algebra.s' -> 'algebra.self_s'; 'resolution.build_s' -> 'resolution.build_self_s'."""
    return stage[:-1] + "self_s"


def layer_metric_names() -> List[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = list(stage_metrics())
    names += [self_metric(s) for s in stage_metrics()]
    seen = set()
    for p in PROBES:
        if p.kind == STAGE or p.metric in seen:
            continue
        seen.add(p.metric)
        names += [p.metric + ".calls", p.metric + ".s"]
        if p.kind == KERNEL:
            names += [p.metric + ".cells", p.metric + ".nnz"]
        if p.key is not None:
            names.append(p.metric + ".distinct_ratio")
    names.append("exactla.density")
    return names


class _Stat:
    __slots__ = ("calls", "total", "top", "top_self", "cells", "nnz", "keys")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.top = 0.0
        self.top_self = 0.0
        self.cells = 0
        self.nnz = 0
        self.keys: set = set()


class Tracer:
    """Installs the probes and accumulates spans and counters in memory."""

    def __init__(self, probes: Tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.stats: Dict[str, _Stat] = {}
        self.target_calls: Dict[str, int] = {}
        self.absent: List[str] = []
        self.point_stages: Dict[str, float] = {}
        self._stack: List[list] = []
        self._stage_depth = 0
        self._sizes: Dict[int, tuple] = {}

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "preproj_hh"
                                         or name.startswith(_P))]
        for probe in self.probes:
            self.stats.setdefault(probe.metric, _Stat())
            modname, attr_path = probe.target.split(":")
            owner = importlib.import_module(modname)
            *parents, attr = attr_path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(probe.target)
                continue
            self.target_calls[probe.target] = 0
            wrapper = self._wrap(original, probe)
            setattr(owner, attr, wrapper)
            if not parents:
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)

    def _size_once(self, size, args, kwargs):
        # matrices are immutable once built; holding a reference keeps the id
        # from being reused by another object while the tracer lives
        hit = self._sizes.get(id(args[0]))
        if hit is None:
            cells, nnz, _ = size(args, kwargs)
            hit = self._sizes[id(args[0])] = (args[0], cells, nnz)
        return hit[1], hit[2], args

    def _wrap(self, fn, probe: Probe):
        tracer = self
        stat = self.stats[probe.metric]
        target = probe.target
        is_stage = probe.kind == STAGE
        key, size = probe.key, probe.size
        if size is not None and probe.per_object:
            size = functools.partial(self._size_once, probe.size)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            tracer.target_calls[target] += 1
            if key is not None:
                stat.keys.add(hash(key(*args, **kwargs)))
            if size is not None:
                cells, nnz, args = size(args, kwargs)
                stat.cells += cells
                stat.nnz += nnz
            top = is_stage and tracer._stage_depth == 0
            if is_stage:
                tracer._stage_depth += 1
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.total += dt
                if is_stage:
                    tracer._stage_depth -= 1
                    if top:
                        stat.top += dt
                        stat.top_self += dt - frame[0]
                        tracer.point_stages[probe.metric] = (
                            tracer.point_stages.get(probe.metric, 0.0) + dt)

        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in stage_metrics():
            st = self.stats[name]
            out[name] = st.top
            out[self_metric(name)] = st.top_self
        cells = nnz = 0
        for p in self.probes:
            if p.kind == STAGE or p.metric + ".calls" in out:
                continue
            st = self.stats[p.metric]
            out[p.metric + ".calls"] = st.calls
            out[p.metric + ".s"] = st.total
            if p.kind == KERNEL:
                out[p.metric + ".cells"] = st.cells
                out[p.metric + ".nnz"] = st.nnz
                cells += st.cells
                nnz += st.nnz
            if p.key is not None:
                out[p.metric + ".distinct_ratio"] = (
                    len(st.keys) / st.calls if st.calls else 0.0)
        out["exactla.density"] = nnz / cells if cells else 0.0
        return out

    def unreached(self, properties: set) -> List[str]:
        """Installed probes the workload's path must reach but did not."""
        return [p.target for p in self.probes
                if p.target in self.target_calls
                and self.target_calls[p.target] == 0
                and (p.needs is None or p.needs in properties)]
