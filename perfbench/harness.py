"""Shared pieces of the benchmark: percentiles, the end-to-end metric set,
set-up timing, the tracer and the run record.

Everything here is benchmark-side. The program under test is reached only
through its public API; the tracer wraps public methods on the objects a
workload builds, and never edits the program's files.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------- percentiles


def _rank(n: int, q: float) -> int:
    """0-based index of the ``q``-th percentile among ``n`` sorted samples
    under the inverted-CDF rule, in numpy's own float arithmetic (so that
    e.g. p99.9 of 1,000 samples picks the same sample numpy does)."""
    index = n * (q / 100.0) - 1
    below = math.floor(index)
    rank = below if index - below == 0 else below + 1
    return min(max(rank, 0), n - 1)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the inverted-CDF rule:
    the smallest sample whose empirical CDF reaches ``q``/100. Equal to
    ``numpy.percentile(values, q, method="inverted_cdf")``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    return sorted(values)[_rank(len(values), q)]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile's rank."""
    return n - 1 - _rank(n, q)


# ---------------------------------------------------------------- the run


@dataclass
class Timed:
    """What one timed phase produced, before it is turned into metrics."""

    ops: int
    wall_s: float
    cpu_s: float
    latencies_ms: List[float]  # per operation, in operation order
    llm_calls: int
    usd: float
    tokens: int
    # Outputs the checks read (completions, rows...), workload-specific.
    outputs: object = None
    failed: int = 0
    notes: Dict[str, object] = field(default_factory=dict)


def end_to_end(timed: Timed, setup_s: float, tail_q: float, peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """The eight end-to-end metrics every workload reports, each over the
    whole timed phase."""
    n = len(timed.latencies_ms)
    if samples_beyond(n, tail_q) < 10:
        raise RuntimeError(
            f"only {n} latency samples: p{tail_q} would have "
            f"{samples_beyond(n, tail_q)} beyond it (needs >= 10)"
        )
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops": (timed.ops / timed.wall_s, "ops/s"),
        "latency_p50_ms": (percentile(timed.latencies_ms, 50), "ms"),
        "latency_tail_ms": (percentile(timed.latencies_ms, tail_q), "ms"),
        "cpu_us_per_op": (timed.cpu_s / timed.ops * 1e6, "us"),
        "llm_calls_per_op": (timed.llm_calls / timed.ops, "calls"),
        "usd_per_1k_ops": (timed.usd / timed.ops * 1000.0, "USD"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Set-up is timed in two batches, one before the timed phase and one after
# the checks; the median over both is ``setup_s``. Each batch builds at
# least SETUP_MIN_BUILDS times and until SETUP_MIN_S seconds have gone into
# building, at most SETUP_MAX_BUILDS times. The host's speed drifts over
# seconds, so builds taken some ten seconds apart move less together than
# builds taken back to back, and a short set-up is timed over more builds.
SETUP_MIN_BUILDS = 2
SETUP_MAX_BUILDS = 8
SETUP_MIN_S = 1.0


def time_builds(build: Callable[[], object]) -> Tuple[List[float], object]:
    """Run ``build`` repeatedly (see SETUP_MIN_BUILDS); return the seconds
    each build took and the state the last build made."""
    times: List[float] = []
    state = None
    while len(times) < SETUP_MIN_BUILDS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_BUILDS):
        state = None  # let the previous state go before building anew
        gc.collect()
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return times, state


def settle() -> None:
    """Collect set-up garbage and move what set-up built out of the
    collector's reach, as a long-running server does after start-up: the
    timed phase's collections then scan only what the run allocates."""
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------- environment


def _git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` files (no git process); a checkout
    without ``.git`` reports ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> Dict[str, object]:
    import numpy

    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------- tracing


KEEP_SPANS = 20000  # raw spans kept for the trace file; aggregates cover all


class _ThreadAcc:
    """One thread's span aggregates (merged when the run ends, so no lock
    is taken on the hot path)."""

    def __init__(self) -> None:
        self.stack: List[float] = []  # open spans: child time so far
        self.totals: Dict[str, List[float]] = {}  # name -> [count, wall, self, cpu]
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[str, int, float, float]] = []


class Tracer:
    """Spans at layer boundaries, recorded by wrappers on public methods.

    A span's self time is its duration minus the time of the spans opened
    inside it on the same thread. Aggregates are kept per thread and per
    name; the first ``KEEP_SPANS`` raw spans are kept too and written out
    with the aggregates when the run ends."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._accs: List[_ThreadAcc] = []
        self._accs_lock = threading.Lock()
        self._kept = 0
        self._restore: List[Callable[[], None]] = []

    def _acc(self) -> _ThreadAcc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = _ThreadAcc()
            self._local.acc = acc
            with self._accs_lock:
                self._accs.append(acc)
        return acc

    def wrap(self, name: str, fn: Callable, cpu: bool = False) -> Callable:
        """``fn`` wrapped in a span named ``name``; ``cpu`` also records
        the calling thread's CPU time inside the span."""
        perf = time.perf_counter
        thread_time = time.thread_time

        def traced(*args, **kwargs):
            acc = self._acc()
            stack = acc.stack
            stack.append(0.0)
            c0 = thread_time() if cpu else 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = thread_time() if cpu else 0.0
                child = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1] += dur
                tot = acc.totals.get(name)
                if tot is None:
                    tot = acc.totals[name] = [0, 0.0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - child
                tot[3] += c1 - c0
                if self._kept < KEEP_SPANS:
                    self._kept += 1
                    acc.spans.append((name, threading.get_ident(), t0, t1))

        return traced

    def patch(self, owner: object, attr: str, name: str, cpu: bool = False) -> None:
        """Replace ``owner.attr`` by its traced version (undone by
        :meth:`restore`). ``owner`` may be an instance or a module/class."""
        original = getattr(owner, attr)
        had_own = isinstance(owner, type) or attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, self.wrap(name, original, cpu=cpu))

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._restore.append(undo)

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    def count(self, name: str, n: float = 1.0) -> None:
        counts = self._acc().counts
        counts[name] = counts.get(name, 0.0) + n

    def totals(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for acc in self._accs:
            for name, tot in acc.totals.items():
                merged = out.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i in range(4):
                    merged[i] += tot[i]
        return out

    def counts(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for acc in self._accs:
            for name, n in acc.counts.items():
                out[name] = out.get(name, 0.0) + n
        return out

    def dump(self) -> Dict[str, object]:
        spans = sorted((s for acc in self._accs for s in acc.spans), key=lambda s: s[2])
        base = spans[0][2] if spans else 0.0
        return {
            "totals": {
                name: {"count": t[0], "wall_s": t[1], "self_s": t[2], "cpu_s": t[3]}
                for name, t in sorted(self.totals().items())
            },
            "counts": self.counts(),
            "spans": [
                [name, tid, round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1)]
                for name, tid, t0, t1 in spans
            ],
        }


class LayerView:
    """Read helpers over a finished tracer, per span name."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer.totals()
        self.c = tracer.counts()

    def calls(self, name: str) -> float:
        return self.t.get(name, [0, 0.0, 0.0, 0.0])[0]

    def wall_s(self, name: str) -> float:
        return self.t.get(name, [0, 0.0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.t.get(name, [0, 0.0, 0.0, 0.0])[2]

    def cpu_s(self, name: str) -> float:
        return self.t.get(name, [0, 0.0, 0.0, 0.0])[3]

    def count(self, name: str) -> float:
        return self.c.get(name, 0.0)

    def per_call_us(self, *names: str) -> float:
        calls = sum(self.calls(n) for n in names)
        return sum(self.wall_s(n) for n in names) / calls * 1e6 if calls else 0.0


def thread_cpu_s(thread: threading.Thread) -> float:
    """CPU seconds a live thread has used (Linux per-thread clock)."""
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))


def wrap_embedders(tracer: Tracer, embedders: Sequence[object]) -> None:
    """Trace ``embed``/``embed_batch`` of each distinct embedding model,
    counting the texts embedded."""
    seen = set()
    for model in embedders:
        if model is None or id(model) in seen:
            continue
        seen.add(id(model))
        embed, embed_batch = model.embed, model.embed_batch
        traced_one = tracer.wrap("llm.embed", embed)
        traced_many = tracer.wrap("llm.embed", embed_batch)

        def one(text, _f=traced_one):
            tracer.count("llm.embed_texts")
            return _f(text)

        def many(texts, _f=traced_many):
            tracer.count("llm.embed_texts", len(texts))
            return _f(texts)

        model.embed = one
        model.embed_batch = many


def wrap_cache(tracer: Tracer, cache: object, put_keys: Optional[list] = None,
               hit_keys: Optional[set] = None) -> None:
    """Trace one ``SemanticCache``: probes, batch probes, puts and its
    vector index searches. ``put_keys``/``hit_keys`` collect the keys
    inserted and the keys later served as reuse hits."""
    traced_lookup = tracer.wrap("core.cache.lookup", cache.lookup)
    if hit_keys is not None:
        def lookup(query, _f=traced_lookup):
            found = _f(query)
            if found.tier == "reuse" and found.entry is not None:
                hit_keys.add(found.entry.key)
            return found
        cache.lookup = lookup
    else:
        cache.lookup = traced_lookup
    cache.peek = tracer.wrap("core.cache.peek", cache.peek)
    traced_touch = tracer.wrap("core.cache.touch_hit", cache.touch_hit)
    if hit_keys is not None:
        def touch_hit(key, tier, _f=traced_touch):
            entry = _f(key, tier)
            if tier == "reuse":
                hit_keys.add(key)
            return entry
        cache.touch_hit = touch_hit
    else:
        cache.touch_hit = traced_touch
    cache.batch_probe = tracer.wrap("core.cache.batch_probe", cache.batch_probe)
    traced_put = tracer.wrap("core.cache.put", cache.put)
    if put_keys is not None:
        def put(query, response, kind="original", cost=0.0, _f=traced_put):
            if query not in cache.entries:
                put_keys.append(query)
            return _f(query, response, kind=kind, cost=cost)
        cache.put = put
    else:
        cache.put = traced_put
    index = cache.index
    if hasattr(index, "search_top1"):
        one = tracer.wrap("vectordb.search", index.search_top1)

        def search_top1(vec, *a, _f=one, **k):
            tracer.count("vectordb.queries")
            return _f(vec, *a, **k)

        index.search_top1 = search_top1
    if hasattr(index, "search_top1_many"):
        many = tracer.wrap("vectordb.search", index.search_top1_many)

        def search_top1_many(mat, *a, _f=many, **k):
            tracer.count("vectordb.queries", len(mat))
            return _f(mat, *a, **k)

        index.search_top1_many = search_top1_many


def wrap_client(tracer: Tracer, client: object) -> None:
    """Trace the simulated LLM client's completion entry points, counting
    items (a batched call answers several)."""
    one = tracer.wrap("llm.complete", client.complete)
    many = tracer.wrap("llm.complete", client.complete_batch)

    def complete(prompt, model=None):
        tracer.count("llm.items")
        return one(prompt, model=model)

    def complete_batch(prefix, items, model=None):
        tracer.count("llm.items", len(items))
        return many(prefix, items, model=model)

    client.complete = complete
    client.complete_batch = complete_batch


def cache_llm_metrics(view: LayerView, ops: int) -> Dict[str, float]:
    """The ``core.cache``, ``vectordb`` and ``llm`` per-layer metrics."""
    lookups = view.calls("core.cache.lookup") + view.calls("core.cache.peek")
    queries = view.count("vectordb.queries")
    items = view.count("llm.items")
    texts = view.count("llm.embed_texts")
    return {
        "core.cache.lookup_us": (
            (view.wall_s("core.cache.lookup") + view.wall_s("core.cache.peek")) / lookups * 1e6
            if lookups else 0.0
        ),
        "core.cache.batch_probe_us": view.per_call_us("core.cache.batch_probe"),
        "core.cache.put_us": view.per_call_us("core.cache.put"),
        "vectordb.search_us_per_query": view.wall_s("vectordb.search") / queries * 1e6 if queries else 0.0,
        "llm.complete_us_per_item": view.wall_s("llm.complete") / items * 1e6 if items else 0.0,
        "llm.items_per_call": items / view.calls("llm.complete") if items else 0.0,
        "llm.embed_us_per_text": view.wall_s("llm.embed") / texts * 1e6 if texts else 0.0,
        "llm.embeds_per_op": texts / ops,
    }


def put_reuse_ratio(put_keys: List[str], hit_keys: set) -> float:
    """Share of keys inserted during the run that later served a reuse hit."""
    if not put_keys:
        return 0.0
    return sum(1 for key in put_keys if key in hit_keys) / len(put_keys)


@dataclass(frozen=True)
class Workload:
    """How run.py drives one workload."""

    setup: Callable[[int], object]  # seed -> warmed state (timed: setup_s)
    timed: Callable[..., Timed]  # (state, seconds, tracer|None) -> Timed
    check: Callable[[object, Timed, int], List[str]]  # (state, timed, seed)
    install_tracing: Callable[[object, Tracer], object]
    mark: Callable[[object], object]  # counters before the traced phase
    layer_metrics: Callable[..., Dict[str, float]]
    tail_q: float  # the percentile behind latency_tail_ms
    # Untimed, after set-up: operations of the timed phase itself run once
    # so that the timed phase starts in its steady state.
    prime: Callable[[object], None] = lambda state: None
