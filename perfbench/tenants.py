"""``tenants_mix``: the async gateway in front of a sharded multi-tenant
cluster.

Eight tenants in the gateway's three priority classes send skewed QA
traffic (one request in ``NOVEL_EVERY`` novel) through ``AsyncGateway``
(no deadlines) into a ``ServingCluster`` with one shard per core. Per-
tenant caches match exactly (thresholds 1.0), so a request's answer does
not depend on how the shards interleave, and every tenant has a budget
and a quota that are never reached. The terminal provider is the
program's ``LLMClient`` behind a fixed per-call service time (a sleep,
which releases the GIL): it is what lets the two shards overlap.

The load is one asyncio loop running ``WINDOW`` caller coroutines, each
sending its next request only after its previous reply (a closed loop).
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.cache import SemanticCache
from repro.llm.client import LLMClient
from repro.serving.cluster import ServingCluster, TenantPolicy
from repro.serving.gateway import AsyncGateway, GatewayRequest
from repro.serving.middleware import last_question_key
from repro.serving.stack import build_stack

import checks
from harness import (
    LayerView,
    Timed,
    Tracer,
    Workload,
    cache_llm_metrics,
    put_reuse_ratio,
    wrap_cache,
    wrap_client,
    wrap_embedders,
)
from qa import qa_inputs, mixed_sequence

TENANTS = [f"tenant{i}" for i in range(8)]
CLASS_OF = {t: ("interactive", "standard", "batch")[min(i // 3, 2)] for i, t in enumerate(TENANTS)}
SHARDS = max(1, min(os.cpu_count() or 1, 2))
SERVICE_MS = 5.0  # per LLM call, timed phase only
WORKING_SET = 40  # keys per tenant, warmed in set-up
NOVEL_EVERY = 10
WINDOW = 32  # callers
GATEWAY_INFLIGHT = 8  # gateway -> cluster window: the rest queues by class
NEVER_REACHED_USD = 1e6
NEVER_REACHED_REQUESTS = 10**9
CAPACITY = 4096


class ServiceTimeProvider:
    """The simulated client behind a fixed service time per call."""

    def __init__(self, client: LLMClient, service_ms: float) -> None:
        self.client = client
        self.service_s = service_ms / 1000.0

    def complete(self, prompt, model=None):
        if self.service_s:
            time.sleep(self.service_s)
        return self.client.complete(prompt, model=model)

    def complete_batch(self, shared_prefix, items, model=None):
        if self.service_s:
            time.sleep(self.service_s)
        return self.client.complete_batch(shared_prefix, items, model=model)

    def embed(self, text):
        return self.client.embed(text)


class TenantState:
    def __init__(self, cluster, providers, requests, warm) -> None:
        self.cluster = cluster
        self.providers = providers  # one per shard
        self.requests = requests  # (tenant, prompt) in sequence order
        self.warm = warm  # tenant -> [(prompt, completion)] served in set-up


def _inputs(seed: int) -> Tuple[Dict[str, List[str]], List[Tuple[str, str]]]:
    """Each tenant's working set and the interleaved request sequence."""
    working, novel, _draws = qa_inputs(seed)
    rng = np.random.default_rng(seed + 7919)
    sets: Dict[str, List[str]] = {}
    streams: Dict[str, object] = {}
    for tenant in TENANTS:
        picks = rng.choice(len(working), size=WORKING_SET, replace=False)
        sets[tenant] = [working[i] for i in picks]
        weights = np.arange(1, WORKING_SET + 1, dtype=np.float64) ** -1.1
        weights /= weights.sum()
        draws = rng.choice(WORKING_SET, size=40_000, p=weights)
        novel_order = rng.permutation(len(novel))
        streams[tenant] = mixed_sequence(sets[tenant], [novel[i] for i in novel_order], draws, NOVEL_EVERY)
    order = rng.integers(0, len(TENANTS), size=120_000)
    requests = [(TENANTS[i], next(streams[TENANTS[i]])) for i in order]
    return sets, requests


def setup(seed: int) -> TenantState:
    sets, requests = _inputs(seed)
    providers: List[ServiceTimeProvider] = []

    def factory(_shard: str) -> ServiceTimeProvider:
        provider = ServiceTimeProvider(LLMClient(), 0.0)  # no service time in set-up
        providers.append(provider)
        return provider

    cluster = ServingCluster(
        factory,
        n_shards=SHARDS,
        key_fn=last_question_key,
        tenant_capacity=CAPACITY,
        reuse_threshold=1.0,
        augment_threshold=1.0,
        policies={
            t: TenantPolicy(budget_usd=NEVER_REACHED_USD, max_requests=NEVER_REACHED_REQUESTS)
            for t in TENANTS
        },
    )
    warm = {t: [(p, cluster.complete(p, tenant=t)) for p in sets[t]] for t in TENANTS}
    for provider in providers:
        provider.service_s = SERVICE_MS / 1000.0
    return TenantState(cluster, providers, requests, warm)


# ------------------------------------------------------------------ driving


async def _drive(state: TenantState, seconds: float, loop_cpu: List[float]):
    gateway = AsyncGateway(state.cluster, max_inflight=GATEWAY_INFLIGHT, max_queue_per_class=256)
    results: Dict[int, object] = {}
    sent: Dict[int, float] = {}
    done: Dict[int, float] = {}
    queue_ms: Dict[int, float] = {}
    requests = state.requests
    cursor = iter(range(len(requests)))
    perf = time.perf_counter
    cpu0 = time.thread_time()
    start = perf()
    deadline = start + seconds

    async def caller() -> None:
        for i in cursor:
            if perf() >= deadline:
                return
            tenant, prompt = requests[i]
            sent[i] = perf()
            ticket = await gateway.enqueue(
                GatewayRequest(prompt=prompt, priority=CLASS_OF[tenant], tenant=tenant)
            )
            results[i] = await ticket.future
            done[i] = perf()
            queue_ms[i] = ticket.queue_ms

    async with gateway:
        await asyncio.gather(*(caller() for _ in range(WINDOW)))
    loop_cpu.append(time.thread_time() - cpu0)
    if len(results) != max(results) + 1:
        raise RuntimeError("requests were skipped")
    return results, sent, done, queue_ms, max(done.values()) - start


def timed_phase(state: TenantState, seconds: float, tracer: Tracer = None) -> Timed:
    meters = [p.client.meter for p in state.providers]
    calls0 = sum(m.calls for m in meters)
    cost0 = [m.cost for m in meters]
    tokens0 = sum(m.prompt_tokens + m.completion_tokens for m in meters)
    loop_cpu: List[float] = []
    cpu0 = time.process_time()
    try:
        results, sent, done, queue_ms, wall = asyncio.run(_drive(state, seconds, loop_cpu))
        cpu = time.process_time() - cpu0
    finally:
        state.cluster.close()  # stop the shard workers
    n = len(results)
    timed = Timed(
        ops=n,
        wall_s=wall,
        cpu_s=cpu,
        latencies_ms=[(done[i] - sent[i]) * 1000.0 for i in range(n)],
        llm_calls=sum(m.calls for m in meters) - calls0,
        usd=math.fsum(m.cost for m in meters) - math.fsum(cost0),
        tokens=sum(m.prompt_tokens + m.completion_tokens for m in meters) - tokens0,
        outputs=[results[i] for i in range(n)],
    )
    timed.notes["queue_ms"] = [queue_ms[i] for i in range(n)]
    timed.notes["loop_cpu_s"] = loop_cpu[0]
    return timed


# ------------------------------------------------------------------ tracing


def install_tracing(state: TenantState, tracer: Tracer) -> Dict[str, object]:
    cluster = state.cluster
    collected: Dict[str, object] = {"put_keys": [], "hit_keys": set(), "in_cluster": []}
    tracer.patch(cluster.router, "route_request", "serving.cluster.route")
    tracer.patch(cluster.cache, "lookup", "serving.cluster.cache_lookup")
    submit = tracer.wrap("serving.cluster.submit", cluster.submit, cpu=True)
    perf = time.perf_counter
    spans = collected["in_cluster"]

    def traced_submit(prompt, tenant="default", model=None):
        t0 = perf()
        future = submit(prompt, tenant=tenant, model=model)
        future.add_done_callback(lambda _f: spans.append(perf() - t0))
        return future

    cluster.submit = traced_submit
    for shard, stack in cluster.stacks.items():
        tracer.patch(stack.provider, "complete", "serving.middleware.metrics")
    for provider in state.providers:
        tracer.patch(provider, "complete", "provider")
        wrap_client(tracer, provider.client)
    for tenant in TENANTS:
        for _shard, partition in cluster.cache.partitions_of(tenant):
            wrap_cache(tracer, partition, collected["put_keys"], collected["hit_keys"])
    wrap_embedders(tracer, [cluster.cache.embedder])
    return collected


def mark(state: TenantState) -> Dict[str, int]:
    return {"hits": sum(state.cluster.ledger_for(t).cache_hits for t in TENANTS)}


def layer_metrics(state: TenantState, timed: Timed, tracer: Tracer, collected, mark0) -> Dict[str, float]:
    view = LayerView(tracer)
    ops = timed.ops
    hits = sum(state.cluster.ledger_for(t).cache_hits for t in TENANTS) - mark0["hits"]
    out = {
        "serving.gateway.queue_wait_ms_p50": float(np.median(timed.notes["queue_ms"])),
        # The event-loop thread's CPU outside the cluster's submit; the
        # caller coroutines' few statements per request are included.
        "serving.gateway.self_us_per_op": (timed.notes["loop_cpu_s"] - view.cpu_s("serving.cluster.submit")) / ops * 1e6,
        "serving.cluster.route_us_per_op": view.wall_s("serving.cluster.route") / ops * 1e6,
        "serving.cluster.cache_lookup_us_per_op": view.wall_s("serving.cluster.cache_lookup") / ops * 1e6,
        "serving.cluster.partitions_probed_per_op": view.calls("core.cache.peek") / ops,
        "serving.cluster.hits_per_op": hits / ops,
        "serving.cluster.self_ms_per_op": (math.fsum(collected["in_cluster"]) - view.wall_s("provider")) / ops * 1e3,
        "serving.middleware.metrics.self_us_per_op": view.self_s("serving.middleware.metrics") / ops * 1e6,
        "core.cache.put_reuse_ratio": put_reuse_ratio(collected["put_keys"], collected["hit_keys"]),
        "llm.tokens_per_op": timed.tokens / ops,
    }
    out.update(cache_llm_metrics(view, ops))
    return out


# ------------------------------------------------------------------ checks


def check(state: TenantState, timed: Timed, _seed: int) -> List[str]:
    """Each tenant's completions against a serial single stack fed only
    that tenant's stream; isolation; ledgers against completions."""
    cluster = state.cluster
    by_tenant: Dict[str, List[int]] = {t: [] for t in TENANTS}
    for i in range(timed.ops):
        by_tenant[state.requests[i][0]].append(i)
    problems: List[str] = []
    costs: Dict[str, List[float]] = {}
    own_keys: Dict[str, List[str]] = {}
    for tenant in TENANTS:
        prompts = [p for p, _c in state.warm[tenant]] + [state.requests[i][1] for i in by_tenant[tenant]]
        got = [c for _p, c in state.warm[tenant]] + [timed.outputs[i] for i in by_tenant[tenant]]
        stack = build_stack(
            LLMClient(),
            cache=SemanticCache(capacity=CAPACITY, reuse_threshold=1.0, augment_threshold=1.0),
            cache_key_fn=last_question_key,
        )
        reference = [stack.complete(p) for p in prompts]
        problems += checks.same_sequence(f"{tenant} completion", got, reference)
        costs[tenant] = [c.cost for c in got]
        own_keys[tenant] = [last_question_key(p) for p in prompts]
        shared = [c for c in got if "shared_from" in c.metadata.get("serving.cache", {})]
        if shared:
            problems.append(f"{tenant}: {len(shared)} completions replayed from another tenant")
    partition_keys = {t: list(cluster.cache.entries_of(t)) for t in TENANTS}
    problems += checks.tenant_isolation(partition_keys, own_keys, cluster.cache.shared_hits)
    problems += checks.tenant_ledgers(
        costs,
        {t: cluster.ledger_for(t).spent_usd for t in TENANTS},
        math.fsum(p.client.meter.cost for p in state.providers),
    )
    return problems


WORKLOAD = Workload(
    setup=setup,
    timed=timed_phase,
    check=check,
    install_tracing=install_tracing,
    mark=mark,
    layer_metrics=layer_metrics,
    tail_q=99,
)
