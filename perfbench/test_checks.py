"""Tests of the benchmark's own checks and helpers.

    python3 -m pytest perfbench/test_checks.py -q

Each checker is shown to pass on real outputs and to catch one planted
error; the percentile helper is compared with numpy's inverted-CDF rule.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from harness import percentile, samples_beyond  # noqa: E402


@pytest.mark.parametrize("n", [1, 2, 7, 40, 99, 100, 101, 1000, 12345])
@pytest.mark.parametrize("q", [1, 25, 50, 90, 95, 97, 98, 99, 99.9, 100])
def test_percentile_matches_numpy_inverted_cdf(n, q):
    values = np.random.default_rng(n).exponential(size=n).tolist()
    assert percentile(values, q) == np.percentile(values, q, method="inverted_cdf")


@pytest.mark.parametrize("n", [100, 1000, 12345])
@pytest.mark.parametrize("q", [90, 97, 99, 99.9])
def test_samples_beyond_counts_the_samples_above_the_percentile(n, q):
    values = np.random.default_rng(n).exponential(size=n).tolist()
    assert samples_beyond(n, q) == sum(v > percentile(values, q) for v in values)


def _serial_completions(n=24):
    from repro.core.cache import SemanticCache
    from repro.llm.client import LLMClient
    from repro.serving.stack import build_stack

    stack = build_stack(LLMClient(), cache=SemanticCache(capacity=64), chain=("babbage-002", "gpt-4"))
    prompts = [f"Question: What is {i % 9} plus {i % 5}?" for i in range(n)]
    return [stack.complete(p) for p in prompts]


def test_same_sequence_catches_an_altered_completion_text():
    got, want = _serial_completions(), _serial_completions()
    assert checks.same_sequence("completion", got, want) == []
    got[7] = dataclasses.replace(got[7], text=got[7].text + " (altered)")
    problems = checks.same_sequence("completion", got, want)
    assert len(problems) == 1 and "completion[7]" in problems[0]


def test_costs_add_up_catches_a_missing_charge():
    costs = [c.cost for c in _serial_completions()]
    total = sum(costs)
    assert checks.costs_add_up(costs, {"meter": total, "ledger": total}) == []
    assert len(checks.costs_add_up(costs, {"meter": total, "ledger": total - costs[3]})) == 1


def test_reuse_cosines_catch_a_dissimilar_source():
    from repro.llm.embeddings import EmbeddingModel

    embed = EmbeddingModel().embed
    good = [("Who directed Alien?", "Who directed Alien?")]
    assert checks.reuse_cosines(good, embed, 0.95) == []
    bad = good + [("Who directed Alien?", "What sport does the team play?")]
    assert len(checks.reuse_cosines(bad, embed, 0.95)) == 1


def test_tenant_ledgers_catch_a_cost_charged_to_the_wrong_tenant():
    costs = {"a": [0.25, 0.125, 0.5], "b": [0.0625, 0.75]}
    ledgers = {t: sum(c) for t, c in costs.items()}
    total = sum(ledgers.values())
    assert checks.tenant_ledgers(costs, ledgers, total) == []
    # One of a's completions charged to b: both ledgers are wrong, while
    # the cluster total still adds up.
    moved = {"a": ledgers["a"] - 0.125, "b": ledgers["b"] + 0.125}
    problems = checks.tenant_ledgers(costs, moved, total)
    assert len(problems) == 2 and "ledger[a]" in problems[0] and "ledger[b]" in problems[1]


def test_tenant_isolation_catches_a_foreign_key_and_a_shared_hit():
    own = {"a": ["k1", "k2"], "b": ["k3"]}
    assert checks.tenant_isolation({"a": ["k1"], "b": ["k3"]}, own, {}) == []
    assert len(checks.tenant_isolation({"a": ["k1", "k3"], "b": []}, own, {})) == 1
    assert len(checks.tenant_isolation({"a": [], "b": []}, own, {"b": 1})) == 1


def test_rows_match_catches_a_dropped_sql_row():
    import semsql
    from repro.llm.client import LLMClient
    from repro.sqldb.database import Database
    from repro.sqldb.semantic import SemanticRuntime

    fixture = semsql.make_fixture(0)
    query = semsql.F1
    optimized = Database.from_script(fixture.script(), semantic=semsql._runtime(LLMClient(model=semsql.MODEL)))
    naive = Database.from_script(
        fixture.script(), semantic=SemanticRuntime.naive(LLMClient(model=semsql.MODEL), model=semsql.MODEL)
    )
    rows, reference = optimized.execute(query.sql).rows, naive.execute(query.sql).rows
    assert len(rows) > 1 and checks.rows_match(query.name, rows, reference) == []
    assert len(checks.rows_match(query.name, rows[:3] + rows[4:], reference)) == 1
    allowed = lambda row: query.allowed(row, fixture)  # noqa: E731
    assert checks.rows_satisfy(query.name, rows, allowed) == []
    outside = next(r for r in fixture.reviews.values() if r[4] > 2)
    assert len(checks.rows_satisfy(query.name, rows + [(outside[0],)], allowed)) == 1


@pytest.mark.parametrize("name", ["qa_hot", "qa_churn", "tenants_mix", "semsql_reviews"])
def test_short_run_passes_its_checks(name):
    import run

    workload = run._workloads()[name]
    state = workload.setup(1)
    workload.prime(state)
    timed = workload.timed(state, 0.5, None)
    assert timed.ops > 0
    assert workload.check(state, timed, 1) == []
    if name == "semsql_reviews":  # exactly the known-fault query fails, once per cycle
        import semsql

        assert timed.failed == timed.ops // len(semsql.CYCLE)
    else:
        assert timed.failed == 0
