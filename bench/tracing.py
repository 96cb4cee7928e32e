"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the library around the public functions
of each layer (module), record one span per call and are removed again
afterwards.  Spans stay in memory; `layer_metrics` turns the spans of one
pass into the per-layer metrics of the traced run.

A span records its name, start, end, parent span, job id and thread.  Calls
made on a pool thread, which starts with an empty span stack, take as parent
the innermost open span of the thread that runs the job, so a command's
worker calls nest under it.

Self time is a span's duration minus the part of it covered by child spans.
When spans of several threads are open at once, each moment is shared
equally among the open spans that have no open child, so the self times of
all spans add up to the wall time the job spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# layer -> group -> functions, named "module:attribute" or "module:Class.method"
LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "gf": {
        "build": ("jetzeta.jets.gf:PrimeField.__init__",
                  "jetzeta.jets.gf:ExtField.__init__"),
        "add_v": ("jetzeta.jets.gf:PrimeField.add_v",
                  "jetzeta.jets.gf:ExtField.add_v"),
        "pow_v": ("jetzeta.jets.gf:PrimeField.pow_v",
                  "jetzeta.jets.gf:ExtField.pow_v"),
        "vec": tuple(f"jetzeta.jets.gf:{cls}.{op}"
                     for cls in ("PrimeField", "ExtField")
                     for op in ("add_v", "mul_v", "scale_v", "mulc_v",
                                "pow_v", "chi2_v", "all_elements")),
        "other": ("jetzeta.jets.gf:make_field",),
    },
    "count": {
        "count": ("jetzeta.jets.count:count_points",
                  "jetzeta.jets.count:naive_count"),
    },
    "classify": {
        "class": ("jetzeta.jets.classify:class_of_jets",),
        "good_primes": ("jetzeta.jets.classify:good_primes",),
        "other": ("jetzeta.jets.classify:lefschetz_via_jets",
                  "jetzeta.jets.classify:zeta_via_jets",
                  "jetzeta.jets.classify:milnor_fiber_limit",
                  "jetzeta.jets.classify:collect_counts",
                  "jetzeta.jets.classify:interpolate_class"),
    },
    "system": {
        "build": ("jetzeta.jets.system:build_jet_system",),
        "other": ("jetzeta.jets.system:multiplicity",),
    },
    "laurent": {
        "divide_exact": ("jetzeta.algebra.laurent:LaurentPoly.divide_exact",),
    },
    "dagger": {
        "fit": ("jetzeta.algebra.dagger:ds_fit",),
        "hadamard": ("jetzeta.algebra.dagger:ds_hadamard",
                     "jetzeta.algebra.dagger:DaggerSeries.hadamard"),
        "add": ("jetzeta.algebra.dagger:DaggerSeries.__add__",),
        "peeled": ("jetzeta.algebra.dagger:DaggerSeries.peeled",),
    },
    "cells": {
        "faces": ("jetzeta.gamma.cells:arrangement_faces",
                  "jetzeta.gamma.cells:decompose_open",
                  "jetzeta.gamma.cells:face_pieces"),
        "chi": ("jetzeta.gamma.cells:chi",
                "jetzeta.gamma.cells:chi_bounded"),
        "lattice": ("jetzeta.gamma.cells:lattice_points",
                    "jetzeta.gamma.cells:alpha_m",
                    "jetzeta.gamma.cells:tilde_alpha"),
    },
    "zeta": {
        "zeta": ("jetzeta.gamma.zeta:zeta_polytope",
                 "jetzeta.gamma.zeta:zeta_terms"),
    },
    "resolution": {
        "all": ("jetzeta.resolution:load_resolution",
                "jetzeta.resolution:acampo_lefschetz",
                "jetzeta.resolution:acampo_sequence",
                "jetzeta.resolution:denef_loeser_zeta",
                "jetzeta.resolution:quasi_unipotent_period"),
    },
    "cli": {
        "main": ("jetzeta.cli:main",),
    },
}

# the harness opens one span of this layer around every job
HARNESS_LAYER = "bench"

LAYER_OF = {t: layer for layer, groups in LAYERS.items()
            for targets in groups.values() for t in targets}

VEC_OPS = frozenset(LAYERS["gf"]["vec"])


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    job: int | None
    thread: int
    info: object = None


def _resolve(target: str):
    """(owner, attribute, original) for a "module:attr" or "module:Cls.meth" name."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _probe(target: str, args, kwargs, result, failed):
    """Extra data recorded with a span of the given function."""
    if failed:
        return None
    if target in VEC_OPS:
        arrays = [a for a in args[1:] if isinstance(a, np.ndarray)]
        if isinstance(result, np.ndarray):
            arrays.append(result)
        elems = int(args[1].size) if len(args) > 1 and isinstance(args[1], np.ndarray) \
            else int(result.size)
        return elems, sum(int(a.nbytes) for a in arrays)
    if target == "jetzeta.jets.count:count_points":
        return args[1] if len(args) > 1 else kwargs["q"]
    if target == "jetzeta.jets.classify:class_of_jets":
        return result.route, len(result.table)
    return None


class Tracer:
    """Records spans of wrapped library calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._job_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_job(self, job: int) -> None:
        """Mark the calling thread as the one that runs job `job`."""
        self.job = job
        self._job_stack = self._stack()

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._job_stack[-1] if self._job_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        result = failed = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            failed = True
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            info = _probe(name, args, kwargs, result, failed)
            span = Span(sid, parent, name, t0, t1, self.job,
                        threading.get_ident(), info)
            with self._lock:
                self.spans.append(span)

    # -- installing and removing wrappers ---------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS, wherever the library refers to it."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "jetzeta" or name.startswith("jetzeta."))]
        for target in all_targets():
            owner, attr, original = _resolve(target)
            wrapped = self._wrapper(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            # a function is also reachable through every module that imported it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def all_targets() -> list[str]:
    return list(LAYER_OF)


# -- analysis ----------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, sharing concurrent time between threads."""
    by_id = {s.sid: s for s in spans}
    events = []
    for s in spans:
        events.append((s.t0, 1, s.sid))
        events.append((s.t1, 0, s.sid))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    active: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    last = None
    for t, starting, sid in events:
        if active and last is not None and t > last:
            share = (t - last) / len(active)
            for a in active:
                own[a] += share
        last = t
        parent = by_id[sid].parent
        if parent not in by_id:
            parent = None
        if starting:
            is_open.add(sid)
            active.add(sid)
            if parent is not None:
                open_children[parent] += 1
                active.discard(parent)
        else:
            is_open.discard(sid)
            active.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in is_open:
                    active.add(parent)
    return {s.sid: own.get(s.sid, 0.0) for s in spans}


def _outermost(spans: list[Span], names: frozenset, by_id: dict[int, Span]) -> list[Span]:
    """Spans of `names` that are not nested in another span of `names`."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p in by_id and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None or p not in by_id:
            out.append(s)
    return out


def _busy(spans: list[Span]) -> float:
    return sum(s.t1 - s.t0 for s in spans)


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass that took `wall_s`
    seconds; times are totals over the pass."""
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        self_by_layer[LAYER_OF.get(s.name, HARNESS_LAYER)] += own[s.sid]

    def group(layer: str, name: str) -> list[Span]:
        return _outermost(spans, frozenset(LAYERS[layer][name]), by_id)

    m: dict[str, float] = {}

    builds = group("gf", "build")
    vec = group("gf", "vec")
    vec_elems = sum(s.info[0] for s in vec)
    m["gf.field_builds"] = len(builds)
    m["gf.table_build_s"] = _busy(builds)
    m["gf.vec_calls"] = len(vec)
    m["gf.vec_busy_s"] = _busy(vec)
    m["gf.vec_elems"] = vec_elems
    m["gf.vec_ns_per_elem"] = 1e9 * _busy(vec) / vec_elems if vec_elems else 0.0
    m["gf.vec_bytes_computed"] = sum(s.info[1] for s in vec)
    m["gf.add_v_busy_s"] = _busy(group("gf", "add_v"))
    m["gf.pow_v_busy_s"] = _busy(group("gf", "pow_v"))

    counts = group("count", "count")
    calls = [s for s in counts
             if s.name == "jetzeta.jets.count:count_points" and s.info is not None]
    primes = [s for s in calls if _is_prime(s.info)]
    m["count.calls"] = len(calls)
    m["count.busy_s"] = _busy(counts)
    m["count.prime_busy_s"] = _busy(primes)
    m["count.ext_busy_s"] = _busy(calls) - _busy(primes)
    m["count.max_q"] = max((s.info for s in calls), default=0)
    m["count.call_s_p50"] = statistics.median([s.t1 - s.t0 for s in calls]) if calls else 0.0

    classes = [s for s in group("classify", "class") if s.info is not None]
    n_cls = len(classes)
    class_ids = {s.sid for s in classes}
    counted = [s for s in calls if _has_ancestor(s, class_ids, by_id)]
    everything = frozenset(t for ts in LAYERS["classify"].values() for t in ts)
    m["classify.calls"] = n_cls
    m["classify.busy_s"] = _busy(_outermost(spans, everything, by_id))
    for route in ("interp", "residue", "trace"):
        m[f"classify.route_{route}"] = sum(1 for s in classes if s.info[0] == route)
    m["classify.counts_per_call"] = len(counted) / n_cls if n_cls else 0.0
    m["classify.table_ratio"] = (sum(s.info[1] for s in classes) / len(counted)
                                 if counted else 0.0)
    m["classify.good_primes_s"] = _busy(group("classify", "good_primes"))

    systems = group("system", "build")
    m["system.calls"] = len(systems)
    m["system.build_s"] = _busy(systems)

    divs = group("laurent", "divide_exact")
    m["laurent.divide_exact_calls"] = len(divs)
    m["laurent.divide_exact_busy_s"] = _busy(divs)

    fits = group("dagger", "fit")
    m["dagger.fit_calls"] = len(fits)
    m["dagger.fit_busy_s"] = _busy(fits)
    m["dagger.hadamard_busy_s"] = _busy(group("dagger", "hadamard"))
    m["dagger.add_busy_s"] = _busy(group("dagger", "add"))
    m["dagger.peeled_busy_s"] = _busy(group("dagger", "peeled"))

    m["cells.faces_busy_s"] = _busy(group("cells", "faces"))
    m["cells.chi_busy_s"] = _busy(group("cells", "chi"))
    m["cells.lattice_busy_s"] = _busy(group("cells", "lattice"))

    zetas = group("zeta", "zeta")
    m["zeta.calls"] = sum(1 for s in zetas if s.name == "jetzeta.gamma.zeta:zeta_polytope")
    m["zeta.busy_s"] = _busy(zetas)

    m["resolution.busy_s"] = _busy(group("resolution", "all"))

    for layer in list(LAYERS) + [HARNESS_LAYER]:
        m[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)

    m["trace.spans"] = len(spans)
    m["trace.self_sum_ratio"] = sum(self_by_layer.values()) / wall_s
    return m


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))


def _has_ancestor(span: Span, ids: set[int], by_id: dict[int, Span]) -> bool:
    p = span.parent
    while p is not None:
        if p in ids:
            return True
        p = by_id[p].parent if p in by_id else None
    return False
