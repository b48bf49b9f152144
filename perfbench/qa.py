"""The two serving-stack workloads: ``qa_hot`` (the cache's read path) and
``qa_churn`` (its write path).

Both drive ``ConcurrentStack`` (one scheduler worker, batches of up to 8)
over ``build_stack(cache=SemanticCache(capacity=4096), cache_key_fn=
last_question_key, chain=(babbage-002, gpt-3.5-turbo, gpt-4),
resilience=True, budget_usd=<never reached>)`` with the program's own
simulated ``LLMClient`` at the bottom, from one load thread that keeps
``WINDOW`` requests in flight (a closed loop: each caller waits for its
reply before sending the next request).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.core.cache import SemanticCache
from repro.core.prompts.templates import entity_match_prompt, qa_prompt
from repro.datasets.entities import generate_er_pairs
from repro.datasets.hotpot import context_passages, generate_hotpot, paraphrase
from repro.llm.client import LLMClient, default_world
from repro.serving.middleware import (
    BudgetMiddleware,
    CascadeMiddleware,
    MetricsMiddleware,
    SemanticCacheMiddleware,
    last_question_key,
)
from repro.serving.resilience import ResilienceMiddleware
from repro.serving.stack import build_stack

import checks
from harness import (
    LayerView,
    Timed,
    Tracer,
    Workload,
    cache_llm_metrics,
    put_reuse_ratio,
    thread_cpu_s,
    wrap_cache,
    wrap_client,
    wrap_embedders,
)

CHAIN = ("babbage-002", "gpt-3.5-turbo", "gpt-4")
CAPACITY = 4096
NEVER_REACHED_USD = 1e6
WINDOW = 16  # requests in flight from the load thread
BATCH = 8
NOVEL_EVERY = 30  # qa_hot: one request in thirty is novel
ZIPF_S = 1.1  # qa_hot skew over the working set
CHURN_POOL = 4000  # qa_churn: distinct new requests available to one run

_LAYER_NAMES = {
    SemanticCacheMiddleware: "serving.middleware.cache",
    CascadeMiddleware: "serving.middleware.cascade",
    ResilienceMiddleware: "serving.resilience",
    BudgetMiddleware: "serving.middleware.budget",
    MetricsMiddleware: "serving.middleware.metrics",
}


def _stack(cache: SemanticCache):
    client = LLMClient()
    stack = build_stack(
        client,
        cache=cache,
        cache_key_fn=last_question_key,
        chain=CHAIN,
        resilience=True,
        budget_usd=NEVER_REACHED_USD,
    )
    return client, stack


def _layers(stack) -> List[object]:
    """The middleware chain, outermost first, down to the client."""
    layers, layer = [], stack.provider
    while layer is not None:
        layers.append(layer)
        layer = getattr(layer, "inner", None)
    return layers


class QAState:
    """Inputs, the warmed stack and the request sequence of one run."""

    def __init__(self, client, stack, cache, prompts, warm_completions) -> None:
        self.client = client
        self.stack = stack
        self.cache = cache
        self.prompts = prompts  # iterator over the request sequence
        self.warm_completions = warm_completions


# ------------------------------------------------------------------ inputs


def qa_inputs(seed: int) -> Tuple[List[str], List[str], np.ndarray]:
    """Working-set prompts, novel prompts and the working-set draw order.

    The working set is every multi-hop question of the synthetic world in
    its canonical and paraphrased form (308 keys, with context passages).
    Novel requests are comparison questions over pairs of people and of
    films that are not in the working set, in a seed-shuffled order."""
    world = default_world()
    rng = np.random.default_rng(seed)
    questions = [ex.question for ex in generate_hotpot(world, n=400, seed=seed)]
    working = questions + [paraphrase(q) for q in questions]
    working = list(dict.fromkeys(working))
    known = set(working)
    novel: List[str] = []
    for a, b in itertools.permutations(world.people, 2):
        novel.append(f"Who was born earlier, {a} or {b}?")
    for a, b in itertools.permutations(world.films, 2):
        novel.append(f"Which film was released first, {a} or {b}?")
    novel = [q for q in novel if q not in known]
    order = rng.permutation(len(novel))
    # Novel keys never push the cache to capacity: eviction stays idle.
    novel = [novel[i] for i in order[: CAPACITY - len(working) - 64]]

    def prompt(question: str) -> str:
        return qa_prompt(question, context=context_passages(world, question, n_distractors=6, seed=seed))

    working_prompts = [prompt(q) for q in working]
    ranks = np.arange(1, len(working_prompts) + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_S
    weights /= weights.sum()
    popularity = rng.permutation(len(working_prompts))
    draws = popularity[rng.choice(len(working_prompts), size=400_000, p=weights)]
    return working_prompts, [prompt(q) for q in novel], draws


def mixed_sequence(working: List[str], novel: List[str], draws: np.ndarray, every: int):
    """Working-set requests in ``draws`` order with every ``every``-th
    request replaced by the next novel one. The sequence ends when the
    novel requests run out, so the mix never changes within a run."""
    novel_iter = iter(novel)
    for i, w in enumerate(draws):
        if i % every == every - 1:
            prompt = next(novel_iter, None)
            if prompt is None:
                return
            yield prompt
        else:
            yield working[w]


def setup_hot(seed: int) -> QAState:
    working, novel, draws = qa_inputs(seed)
    cache = SemanticCache(capacity=CAPACITY)
    client, stack = _stack(cache)
    warm = [stack.complete(p) for p in working]
    return QAState(client, stack, cache, mixed_sequence(working, novel, draws, NOVEL_EVERY), warm)


def _churn_inputs(seed: int) -> Tuple[List[Tuple[str, str]], List[str]]:
    """Warm entries (prompt, gold label) filling the cache, and the new
    entity-matching prompts the run sends, all distinct. The new prompts
    take turns over three strata (non-matches, easy matches, hard matches;
    hard non-matches are too rare to stand alone), so every stretch of the
    run escalates and spends alike whatever the seed."""
    pairs = generate_er_pairs(n=CAPACITY + 2 * CHURN_POOL, seed=seed)
    seen, warm = set(), []
    strata: Dict[Tuple[bool, str], List[str]] = {}
    for pair in pairs:
        prompt = entity_match_prompt(pair.a, pair.b)
        if prompt in seen:
            continue
        seen.add(prompt)
        if len(warm) < CAPACITY:
            warm.append((prompt, "yes" if pair.label else "no"))
        else:
            key = (pair.label, pair.hardness if pair.label else "any")
            strata.setdefault(key, []).append(prompt)
    groups = [strata[key] for key in sorted(strata)]
    fresh = [prompt for row in zip(*groups) for prompt in row]
    if len(fresh) < CHURN_POOL:
        raise RuntimeError(f"only {len(fresh)} stratified entity-matching prompts")
    return warm, fresh[:CHURN_POOL]


def setup_churn(seed: int) -> QAState:
    warm, fresh = _churn_inputs(seed)
    cache = SemanticCache(capacity=CAPACITY)
    for prompt, label in warm:
        cache.put(prompt, label)
    cache.flush()  # embed and index the warm entries now, not in the run
    client, stack = _stack(cache)
    return QAState(client, stack, cache, iter(fresh), [])


# ------------------------------------------------------------------ driving


def drive(submit, prompts, seconds: float, window: int):
    """Closed loop from the calling thread: keep ``window`` requests in
    flight for ``seconds`` or until ``prompts`` runs out, then drain.
    Returns (prompts sent, results in order, send times, done times, wall
    seconds, whether ``prompts`` ran out). Futures are dropped as soon as
    they are read, so the run's own bookkeeping stays small."""
    sent: List[str] = []
    results: List[object] = []
    t_send: List[float] = []
    t_done: Dict[int, float] = {}
    inflight: deque = deque()
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    ran_out = True
    for i, prompt in enumerate(prompts):
        if perf() >= deadline:
            ran_out = False
            break
        sent.append(prompt)
        t_send.append(perf())
        future = submit(prompt)
        future.add_done_callback(lambda _f, i=i: t_done.__setitem__(i, perf()))
        inflight.append(future)
        if len(inflight) >= window:
            results.append(inflight.popleft().result())
    while inflight:
        results.append(inflight.popleft().result())
    done = [t_done[i] for i in range(len(results))]
    return sent, results, t_send, done, max(done) - start, ran_out


def timed_phase(state: QAState, seconds: float, tracer: Tracer = None) -> Timed:
    meter = state.client.meter
    calls0, cost0 = meter.calls, meter.cost
    tokens0 = meter.prompt_tokens + meter.completion_tokens
    served = state.stack.concurrent(max_batch_size=BATCH, workers=1)
    sched_threads = scheduler_threads() if tracer else []
    cpu_threads0 = [thread_cpu_s(t) for t in sched_threads]
    submit = served.submit
    if tracer is not None:
        submit = tracer.wrap("serving.scheduler.submit", served.submit, cpu=True)
    cpu0 = time.process_time()
    try:
        sent, completions, t_send, t_done, wall, ran_out = drive(submit, state.prompts, seconds, WINDOW)
        cpu = time.process_time() - cpu0
        if tracer is not None:
            # Scheduler threads are alive until close(): read their CPU now.
            cpu_threads = sum(thread_cpu_s(t) for t in sched_threads) - sum(cpu_threads0)
    finally:
        served.close()
    timed = Timed(
        ops=len(completions),
        wall_s=wall,
        cpu_s=cpu,
        latencies_ms=[(d - s) * 1000.0 for s, d in zip(t_send, t_done)],
        llm_calls=meter.calls - calls0,
        usd=meter.cost - cost0,
        tokens=meter.prompt_tokens + meter.completion_tokens - tokens0,
        outputs=(sent, completions),
    )
    if ran_out:
        timed.notes["report"] = [f"the request sequence ran out after {wall:.2f} s of {seconds:g} s"]
    if tracer is not None:
        timed.notes["scheduler_thread_cpu_s"] = cpu_threads
        timed.notes["t_send"] = t_send
    return timed


# ------------------------------------------------------------------ tracing


def scheduler_threads() -> List[threading.Thread]:
    """The scheduler's collector and dispatcher threads, found by the
    names the scheduler gives them."""
    return [t for t in threading.enumerate() if t.name.startswith("repro-sched-")]


class _DispatchClock:
    """Pairs each request with the moment the scheduler started its batch:
    with one worker, stack calls happen in submission order."""

    def __init__(self) -> None:
        self.batch_start = None
        self.starts: List[float] = []


def install_tracing(state: QAState, tracer: Tracer) -> Dict[str, object]:
    """Wrap each layer of the stack, the cache, its index, the embedders
    and the client. Layers are wrapped on the objects themselves (not by
    swapping ``inner``): the cascade keeps its own reference to the layer
    below it, which a proxy on ``inner`` would not see."""
    collected: Dict[str, object] = {"put_keys": [], "hit_keys": set()}
    stack = state.stack
    for layer in _layers(stack):
        name = _LAYER_NAMES.get(type(layer))
        if name is None:
            continue
        for attr in ("complete", "complete_batch", "begin_batch", "end_batch"):
            if hasattr(layer, attr):
                tracer.patch(layer, attr, name)
    wrap_cache(tracer, state.cache, collected["put_keys"], collected["hit_keys"])
    wrap_embedders(tracer, [state.cache.embedder, state.client.embedding_model])
    wrap_client(tracer, state.client)

    # The stack as the scheduler's provider: its calls run on the
    # dispatcher thread; their CPU is subtracted from the scheduler's.
    clock = _DispatchClock()
    collected["clock"] = clock
    perf = time.perf_counter
    begin = tracer.wrap("serving.stack", stack.begin_batch, cpu=True)
    complete = tracer.wrap("serving.stack", stack.complete, cpu=True)
    end = tracer.wrap("serving.stack", stack.end_batch, cpu=True)

    def begin_batch(prompts, model=None):
        clock.batch_start = perf()
        return begin(prompts, model)

    def complete_(prompt, model=None):
        clock.starts.append(clock.batch_start if clock.batch_start is not None else perf())
        return complete(prompt, model=model)

    def end_batch():
        clock.batch_start = None
        return end()

    stack.begin_batch = begin_batch
    stack.complete = complete_
    stack.end_batch = end_batch
    return collected


def layer_metrics(state: QAState, timed: Timed, tracer: Tracer, collected, stats0) -> Dict[str, float]:
    view = LayerView(tracer)
    ops = timed.ops
    stats = state.stack.stats
    out: Dict[str, float] = {}
    # Scheduler: its own threads' CPU plus submit, minus the stack calls
    # it made on the dispatcher.
    sched_cpu = (
        timed.notes["scheduler_thread_cpu_s"]
        + view.cpu_s("serving.scheduler.submit")
        - view.cpu_s("serving.stack")
    )
    out["serving.scheduler.self_us_per_op"] = sched_cpu / ops * 1e6
    starts = collected["clock"].starts
    waits = [(d - s) * 1000.0 for s, d in zip(timed.notes["t_send"], starts)]
    out["serving.scheduler.queue_wait_ms_p50"] = float(np.median(waits))
    batches = stats.scheduler_batches - stats0["batches"]
    out["serving.scheduler.batch_size_mean"] = ops / batches if batches else 0.0
    for name in _LAYER_NAMES.values():
        out[name + ".self_us_per_op"] = view.self_s(name) / ops * 1e6
    out["serving.middleware.cache.reuse_hits_per_op"] = (stats.cache_reuse_hits - stats0["reuse"]) / ops
    out["serving.middleware.cache.misses_per_op"] = (stats.cache_misses - stats0["misses"]) / ops
    out["serving.middleware.cascade.escalations_per_op"] = (stats.escalations - stats0["escalations"]) / ops
    out.update(cache_llm_metrics(view, ops))
    out["core.cache.put_reuse_ratio"] = put_reuse_ratio(collected["put_keys"], collected["hit_keys"])
    out["llm.tokens_per_op"] = timed.tokens / ops
    return out


def stats_mark(state: QAState) -> Dict[str, int]:
    s = state.stack.stats
    return {
        "batches": s.scheduler_batches,
        "reuse": s.cache_reuse_hits,
        "misses": s.cache_misses,
        "escalations": s.escalations,
    }


# ------------------------------------------------------------------ checks


def check(state: QAState, timed: Timed, fresh: QAState, evictions_allowed: bool) -> List[str]:
    """Compare the run with a serial loop over a freshly built stack, and
    check hit cosines and cost accounting."""
    sent, completions = timed.outputs
    hits: List[Tuple[str, str]] = []
    lookup = fresh.cache.lookup

    def recording_lookup(query):
        found = lookup(query)
        if found.tier == "reuse" and found.entry is not None:
            hits.append((query, found.entry.key))
        return found

    fresh.cache.lookup = recording_lookup
    reference = [fresh.stack.complete(p) for p in sent]
    problems = checks.same_sequence("completion", completions, reference)
    problems += checks.reuse_cosines(hits, fresh.cache.embedder.embed, fresh.cache.reuse_threshold)
    budget = next(layer for layer in _layers(state.stack) if isinstance(layer, BudgetMiddleware))
    costs = [c.cost for c in state.warm_completions] + [c.cost for c in completions]
    problems += checks.costs_add_up(
        costs, {"client meter": state.client.meter.cost, "budget ledger": budget.spent_usd}
    )
    if state.cache.stats.evictions and not evictions_allowed:
        problems.append(f"the cache evicted {state.cache.stats.evictions} entries")
    return problems


HOT = Workload(
    setup=setup_hot,
    timed=timed_phase,
    check=lambda state, timed, seed: check(state, timed, setup_hot(seed), evictions_allowed=False),
    install_tracing=install_tracing,
    mark=stats_mark,
    layer_metrics=layer_metrics,
    tail_q=99,
)

CHURN = Workload(
    setup=setup_churn,
    timed=timed_phase,
    check=lambda state, timed, seed: check(state, timed, setup_churn(seed), evictions_allowed=True),
    install_tracing=install_tracing,
    mark=stats_mark,
    layer_metrics=layer_metrics,
    tail_q=97,
)
