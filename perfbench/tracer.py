"""Per-layer tracing of hartogs_geom from outside the package.

`Tracer.install()` replaces the public calls of each layer (jets, numerics,
domains, hartogs, metric, l2embed, cli) with timing wrappers, at every
module that imported them by name, and `uninstall()` puts the originals
back.  No source file of the program is touched.

Each thread keeps its own stack of open calls, so a layer's self time is its
duration minus the time of the calls it made on the same thread.  The CLI's
thread pool is wrapped so that calls on a worker thread name the pool span
as their parent.  Calls from the `hartogs`/`l2embed` boundary upward are
recorded as spans (name, start, end, parent, thread); calls below it
(potential evaluations, norms, determinants, jet arithmetic) are only
aggregated into counters, which keeps memory bounded when a pass makes
millions of jet multiplications.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

perf = time.perf_counter
thread_time = time.thread_time


class _ThreadState(threading.local):
    def __init__(self, registry, lock):
        self.stack = []  # open calls: [start, time spent in child calls]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, self_s, total_s
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.parent = 0  # id of the innermost open span on this thread
        # the attributes above belong to this thread; register them, not `self`
        with lock:
            registry.append((self.stats, self.counts, self.samples))


class Tracer:
    """Wrappers plus the per-thread records of one traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads: list[tuple] = []
        self._local = _ThreadState(self._threads, self._lock)
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end)
        self.pool_workers = 0

    # -- wrapping ----------------------------------------------------------------

    def _timed(self, name, fn, span=False, classify=None, on_result=None, on_error=None):
        local = self._local

        def wrapper(*args, **kwargs):
            stack = local.stack
            if classify is not None:
                key = classify(args)
                if key:
                    local.counts[key] += 1
            frame = [perf(), 0.0]
            stack.append(frame)
            if span:
                sid = next(self._ids)
                parent, local.parent = local.parent, sid
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(local, exc)
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                s = local.stats[name]
                s[0] += 1
                s[1] += dur - frame[1]
                s[2] += dur
                if span:
                    local.parent = parent
                    self.spans.append((sid, parent, name, threading.get_ident(), frame[0], end))
            if on_result is not None:
                on_result(local, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        local = self._local

        def wrapper(*args, **kwargs):
            local.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owners, attr, wrapper_for):
        """Replace `attr` on every owner that holds the same original object."""
        original = getattr(owners[0], attr)
        wrapped = wrapper_for(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} does not share the traced original")
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        from hartogs_geom import cli, domains, hartogs, jets, l2embed, metric, numerics
        from hartogs_geom.domains import DomainSpec, _is_jet_coords
        from hartogs_geom.hartogs import HartogsChart, HartogsPotential
        from hartogs_geom.jets import Jet
        from hartogs_geom.metric import GeodesicTrace
        from hartogs_geom.numerics import DomainViolation

        t = self._timed
        P = self._patch

        # jets: arithmetic below every potential evaluation
        mul = t("jets.mul", Jet.__mul__)
        for attr in ("__mul__", "__rmul__"):  # the class binds both to one function
            P([Jet], attr, lambda f: mul)
        for attr in ("reciprocal", "log", "__pow__"):
            P([Jet], attr, lambda f: t("jets.series", f))
        P([jets, metric], "wirtinger", lambda f: t("jets.wirtinger", f))

        # numerics
        def det_kind(args):
            m = args[0]
            return "numerics.det_jet" if getattr(m, "dtype", None) == object and len(m) > 2 else None

        P([numerics, domains], "det", lambda f: t("numerics.det", f, classify=det_kind))
        P([numerics, domains], "is_positive_definite", lambda f: t("numerics.pd", f))
        P([numerics, l2embed], "gen_binomial", lambda f: self._counted("numerics.gen_binomial", f))

        # domains
        def norm_kind(args):
            return "domains.norm_jet" if _is_jet_coords(args[1]) else None

        P([DomainSpec], "_norm", lambda f: t("domains.norm", f, classify=norm_kind))
        P([DomainSpec], "contains", lambda f: t("domains.contains", f))
        P([DomainSpec], "_draw", lambda f: self._counted("domains.draw", f))
        P([DomainSpec], "sample", lambda f: t("domains.sample", f))

        # hartogs: the potential is the unit of work
        def pot_kind(args):
            return "hartogs.potential_jet" if _is_jet_coords(args[1]) else None

        def violation(local, exc):
            if isinstance(exc, DomainViolation):
                local.counts["hartogs.domain_violations"] += 1

        P([HartogsPotential], "__call__",
          lambda f: t("hartogs.potential", f, classify=pot_kind, on_error=violation))
        P([hartogs, cli], "h_sample", lambda f: t("hartogs.sample", f, span=True))
        P([HartogsChart], "sample", lambda f: t("hartogs.sample", f, span=True))

        # metric
        for attr, name in (
            ("_metric_matrix", "metric.metric_matrix"),
            ("_directional_mixed", "metric.directional_mixed"),
            ("_directional_second", "metric.directional_second"),
        ):
            owners = [metric, cli] if attr == "_metric_matrix" else [metric]
            P(owners, attr, lambda f, name=name: t(name, f, span=True))
        P([metric], "_acceleration", lambda f: self._counted("metric.rhs", f))
        P([metric, cli], "tg_residual", self._tg_residual)
        P([metric, cli, l2embed], "geodesic_ivp", self._geodesic)

        # l2embed
        def components(local, result):
            local.counts["l2embed.components"] += len(result)

        P([l2embed], "embed", lambda f: t("l2embed.embed", f, span=True, on_result=components))
        P([l2embed, cli], "norm_residual", lambda f: t("l2embed.norm_residual", f, span=True))
        P([l2embed, cli], "line_constraints", lambda f: t("l2embed.line_constraints", f, span=True))
        P([l2embed, cli], "line_deviation", lambda f: t("l2embed.line_deviation", f, span=True))

        # cli
        for cmd in ("verify_tg", "geodesic", "linear_scan", "verify_immersion", "embed_residual"):
            P([cli], f"cmd_{cmd}", lambda f, cmd=cmd: t(f"cli.{cmd}", f, span=True))
        P([cli], "_emit", lambda f: t("cli.emit", f, span=True))
        P([GeodesicTrace], "write_csv", lambda f: t("cli.trace_csv", f, span=True))
        P([cli], "_pool", self._pool)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers with their own bookkeeping ----------------------------------------

    def _tg_residual(self, fn):
        local = self._local
        timed = self._timed("metric.tg_residual", fn, span=True)

        def wrapper(*args, **kwargs):
            w0, c0 = perf(), thread_time()
            try:
                return timed(*args, **kwargs)
            finally:
                wall = perf() - w0
                local.samples["metric.tg_residual_ms"].append(wall * 1e3)
                local.counts["metric.tg_residual_wait_s"] += wall - (thread_time() - c0)

        return wrapper

    def _geodesic(self, fn):
        local = self._local
        timed = self._timed("metric.geodesic", fn, span=True)

        def wrapper(*args, **kwargs):
            pot0 = local.stats["hartogs.potential"][0]
            rhs0 = local.counts["metric.rhs"]
            trace = timed(*args, **kwargs)
            local.counts["metric.accepted_steps"] += len(trace.times) - 1
            local.counts["metric.geodesic_potential_evals"] += (
                local.stats["hartogs.potential"][0] - pot0
            )
            local.counts["metric.geodesic_rhs_evals"] += local.counts["metric.rhs"] - rhs0
            return trace

        return wrapper

    def _pool(self, fn):
        tracer = self

        def wrapper():
            pool = fn()
            tracer.pool_workers = max(tracer.pool_workers, pool._max_workers)
            return _TracedPool(tracer, pool)

        return wrapper

    # -- results -----------------------------------------------------------------------

    def merged(self):
        """Stats, counts and samples summed over every thread of the pass."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(float)
        samples = defaultdict(list)
        with self._lock:
            threads = list(self._threads)
        for t_stats, t_counts, t_samples in threads:
            for k, v in t_stats.items():
                acc = stats[k]
                for i in range(3):
                    acc[i] += v[i]
            for k, v in t_counts.items():
                counts[k] += v
            for k, v in t_samples.items():
                samples[k].extend(v)
        return stats, counts, samples


class _TracedPool:
    """The CLI's executor, with a span around the time the caller waits on it."""

    def __init__(self, tracer: Tracer, pool):
        self._tracer = tracer
        self._pool = pool
        self._run = tracer._timed("cli.pool", lambda body: body(), span=True)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def map(self, fn, iterable):
        local = self._tracer._local
        done = []

        def body():
            # the pool span is the parent of every call on the worker threads
            parent = local.parent
            w0, c0 = perf(), thread_time()

            def child(item):
                local.parent = parent
                try:
                    return fn(item)
                finally:
                    local.parent = 0

            done.extend(self._pool.map(child, iterable))
            local.counts["cli.wait_s"] += (perf() - w0) - (thread_time() - c0)

        self._run(body)
        return iter(done)

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)
