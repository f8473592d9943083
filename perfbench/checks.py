"""Output checks computed apart from the program.

Every check recomputes a protocol output from the generated inputs with
plain Python integers or NumPy (no share algebra, no field arithmetic,
no transport) and returns a list of failure messages; an empty list
means the operation's outputs are correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class RoundRecord:
    """What the round checks need, copied from the protocol right after
    ``run_round`` (its exchange state is replaced, and its byte ledgers
    grow, with the next round).

    The copy is cheap and small, so a workload can take it inside a
    timed round and run the checks after its timed loop. The one
    comparison made while copying is each witness's recovered sums
    against its head's (a tuple equality per witness): keeping every
    witness's sums of every epoch instead would cost ~100 KB per epoch
    at N=250.
    """

    #: completed head -> its participants, in head order
    participants: Dict[int, Tuple[int, ...]]
    #: completed head -> its recovered ``cluster_sums``
    cluster_sums: Dict[int, Tuple[int, ...]]
    witness_mismatches: List[str]
    phase_bytes_sum: int
    total_bytes: int


def record_round(protocol) -> RoundRecord:
    exchange = protocol.last_exchange
    completed = exchange.completed_clusters
    states = exchange.states
    owner = {node: head for head, state in states.items() for node in state.participants}
    mismatches = []
    for node, sums in exchange.witness_sums.items():
        head_sums = states[owner[node]].cluster_sums if node in owner else None
        if head_sums is not None and tuple(sums) != tuple(head_sums):
            mismatches.append(
                f"witness {node} recovered {sums} != head {owner[node]} {head_sums}"
            )
    return RoundRecord(
        participants={head: tuple(states[head].participants) for head in completed},
        cluster_sums={head: states[head].cluster_sums for head in completed},
        witness_mismatches=mismatches,
        phase_bytes_sum=sum(protocol.phase_bytes.values()),
        total_bytes=protocol.total_bytes(),
    )


def check_round(
    record: RoundRecord,
    aggregate,
    readings: Dict[int, float],
    result,
    *,
    honest: bool,
) -> List[str]:
    """The invariants of one ``run_round`` (``record`` taken right after
    it, ``aggregate`` the one it ran with):

    * every completed cluster's recovered ``cluster_sums`` equals the
      plain-integer sum of ``aggregate.components(reading)`` over its
      sensing participants;
    * every witness recovered its head's sums;
    * an accepted ``raw_totals`` equals the sum over completed clusters
      and ``contributors`` the number of their sensing participants;
    * ``sum(phase_bytes) == total_bytes()``;
    * an honest round is ``ACCEPTED`` with no alarms.
    """
    failures: List[str] = []
    arity = aggregate.arity
    totals = [0] * arity
    sensing = 0
    for head, participants in record.participants.items():
        expected = [0] * arity
        for node in participants:
            reading = readings.get(node)
            if reading is None:
                continue
            sensing += 1
            for index, value in enumerate(aggregate.components(reading)):
                expected[index] += value
        recovered = record.cluster_sums[head]
        if tuple(expected) != tuple(recovered):
            failures.append(
                f"cluster {head}: recovered {recovered} != plain sum {tuple(expected)}"
            )
        for index, value in enumerate(expected):
            totals[index] += value

    failures.extend(record.witness_mismatches)

    if result.verdict.accepted:
        if tuple(result.raw_totals) != tuple(totals):
            failures.append(
                f"raw_totals {result.raw_totals} != sum over completed "
                f"clusters {tuple(totals)}"
            )
        if result.contributors != sensing:
            failures.append(
                f"contributors {result.contributors} != sensing participants "
                f"of completed clusters {sensing}"
            )

    if record.phase_bytes_sum != record.total_bytes:
        failures.append(
            f"sum(phase_bytes) {record.phase_bytes_sum} != total_bytes {record.total_bytes}"
        )

    if honest and (not result.verdict.accepted or result.alarms):
        failures.append(
            f"honest round: verdict {result.verdict.value}, "
            f"{len(result.alarms)} alarm(s)"
        )
    return failures


def contributing_readings(record: RoundRecord, readings: Dict[int, float]) -> List[float]:
    """Readings of the sensing participants of completed clusters."""
    return [
        readings[node]
        for participants in record.participants.values()
        for node in participants
        if node in readings
    ]


def check_answer(
    kind: str,
    value: Optional[float],
    contributing: Sequence[float],
    contributors: int,
    *,
    scale: int,
    power: int,
) -> List[str]:
    """One served statistic against NumPy over the contributing readings.

    Readings enter the protocol through a fixed-point codec with
    ``scale`` units per 1.0, so the reference quantizes them the same way
    first. MAX~/MIN~ are ``power``-mean estimators, checked against the
    bounds any such estimator meets: MAX~ in [mean, n^(1/k)·max] and
    MIN~ in [n^(-1/k)·min, mean].
    """
    if value is None:
        return [f"{kind}: no value"]
    quantized = np.round(np.asarray(contributing, dtype=float) * scale) / scale
    n = len(quantized)
    mean = float(np.mean(quantized))
    slack = 1e-9

    def close(reference: float, tolerance: float = 1e-9) -> bool:
        return math.isclose(value, reference, rel_tol=tolerance, abs_tol=1e-12)

    if kind == "count":
        ok = value == contributors == n
        reference = n
    elif kind == "sum":
        reference = float(np.sum(np.round(np.asarray(contributing) * scale))) / scale
        ok = close(reference)
    elif kind == "avg":
        reference = mean
        ok = close(reference)
    elif kind == "var":
        reference = float(np.var(quantized))
        ok = close(reference, 1e-7)
    elif kind == "max":
        reference = float(np.max(quantized))
        ok = mean * (1 - slack) <= value <= n ** (1.0 / power) * reference * (1 + slack)
    elif kind == "min":
        reference = float(np.min(quantized))
        ok = n ** (-1.0 / power) * reference * (1 - slack) <= value <= mean * (1 + slack)
    else:
        return [f"unknown query kind {kind}"]
    return [] if ok else [f"{kind}: served {value!r}, reference {reference!r} (n={n})"]
