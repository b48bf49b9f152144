"""Correctness checks. Each returns a list of problems (empty = passed).

They compare the measured path's outputs with results computed apart from
it (a serial reference run, the naive SQL evaluator, the fixture itself)
or with properties the method must have (costs that add up, hits that
clear the threshold, no hit from another tenant).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

REL_TOL = 1e-9  # float sums taken in another order still agree this well
MAX_MISMATCHES = 3  # differing elements reported per sequence


def same_sequence(label: str, got: Sequence, want: Sequence) -> List[str]:
    """Element-by-element equality of two output sequences."""
    problems: List[str] = []
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} outputs, reference has {len(want)}")
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            problems.append(f"{label}[{i}]: {a!r} != reference {b!r}")
            if len(problems) >= MAX_MISMATCHES:
                break
    return problems


def reuse_cosines(
    pairs: Iterable[Tuple[str, str]],
    embed: Callable[[str], np.ndarray],
    threshold: float,
) -> List[str]:
    """Every reuse hit ``(request key, source key)`` has a cosine, computed
    here with numpy from the two embeddings, at or above ``threshold``."""
    problems: List[str] = []
    for request, source in pairs:
        a = np.asarray(embed(request), dtype=np.float64)
        b = np.asarray(embed(source), dtype=np.float64)
        norm = float(np.linalg.norm(a) * np.linalg.norm(b))
        cosine = float(a @ b) / norm if norm else 0.0
        # 1e-9 absorbs the last-digit difference between this dot product
        # and the index's own arithmetic.
        if cosine < threshold - 1e-9:
            problems.append(
                f"reuse hit {request!r} <- {source!r}: cosine {cosine:.6f} < {threshold}"
            )
    return problems


def costs_add_up(costs: Sequence[float], ledgers: Mapping[str, float]) -> List[str]:
    """``math.fsum`` of the completions' costs equals every named ledger."""
    total = math.fsum(costs)
    return [
        f"{name}: {value!r} != fsum of completion costs {total!r}"
        for name, value in ledgers.items()
        if not math.isclose(value, total, rel_tol=REL_TOL, abs_tol=1e-15)
    ]


def tenant_ledgers(
    costs_by_tenant: Mapping[str, Sequence[float]],
    ledger_by_tenant: Mapping[str, float],
    cluster_total: float,
) -> List[str]:
    """Each tenant's ledger equals the fsum of its completions, and the
    tenant ledgers add up to the cluster's own total."""
    problems: List[str] = []
    for tenant in sorted(set(costs_by_tenant) | set(ledger_by_tenant)):
        problems += costs_add_up(
            costs_by_tenant.get(tenant, []),
            {f"ledger[{tenant}]": ledger_by_tenant.get(tenant, 0.0)},
        )
    tenants_total = math.fsum(ledger_by_tenant.values())
    if not math.isclose(tenants_total, cluster_total, rel_tol=REL_TOL, abs_tol=1e-15):
        problems.append(
            f"tenant ledgers add to {tenants_total!r}, cluster total is {cluster_total!r}"
        )
    return problems


def tenant_isolation(
    partition_keys: Mapping[str, Iterable[str]],
    own_keys: Mapping[str, Iterable[str]],
    shared_hits: Mapping[str, int],
) -> List[str]:
    """Every key in a tenant's cache partitions came from that tenant's
    own requests, and no hit was served from another tenant's entries."""
    problems: List[str] = []
    for tenant, keys in partition_keys.items():
        own = set(own_keys.get(tenant, ()))
        foreign = [k for k in keys if k not in own]
        if foreign:
            problems.append(f"tenant {tenant}: {len(foreign)} foreign keys, e.g. {foreign[0]!r}")
    for tenant, n in shared_hits.items():
        if n:
            problems.append(f"tenant {tenant}: {n} hits from another tenant's partition")
    return problems


def rows_match(label: str, got: Sequence[tuple], want: Sequence[tuple]) -> List[str]:
    """A query's rows equal the reference rows, in order."""
    if list(got) == list(want):
        return []
    missing = [r for r in want if r not in got]
    extra = [r for r in got if r not in want]
    return [
        f"{label}: {len(got)} rows vs reference {len(want)} "
        f"(missing {missing[:2]}, extra {extra[:2]})"
    ]


def rows_satisfy(label: str, rows: Sequence[tuple], allowed: Callable[[tuple], bool]) -> List[str]:
    """Every returned row satisfies the query's relational predicates."""
    bad = [row for row in rows if not allowed(row)]
    return [f"{label}: {len(bad)} rows break the relational predicates, e.g. {bad[0]!r}"] if bad else []

