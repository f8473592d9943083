"""The three benchmark workloads.

Each workload takes the seed, the measured duration and an optional
tracer, drives the program only through its public API with inputs it
generates from the seed, checks every output (see ``checks.py``) and
returns a :class:`Outcome`.

``scale_round``
    N=20000 uniform deployment on a 3000 m field (mean degree ~17) on the
    fully vectorized stack (``fluid-bulk``, batched share and clustering
    engines). Set up five times (median reported), then rounds on the
    last live protocol, each with fresh log-normal metering readings.
``paper_sweep``
    The reference engines on the DES transport. A pass is one honest
    round at each paper size N in {200, 300, 400, 500, 600} on the 400 m
    field, then attack arcs (CONSISTENT_OWN, CONSISTENT_CHILD) at N=250,
    each on a head picked from an honest dry run. Placements are fixed,
    readings seeded. An arc is the attacked round, ``localize_polluter``
    probes, and a recovery round with the attacker's cluster excluded.
``service_epochs``
    One live ``AggregationService`` (N=250, 400 m field, per-frame
    ``fluid``) behind an ``AggregationGateway``; two clients in a closed
    loop, each awaiting its answer before sending the next query, cycle
    through SUM/AVG/COUNT/VAR/MIN/MAX; every fourth query of a client
    re-reads its last statistic, accepting a one-epoch-old cached answer.

Host speed on a shared machine drifts by a fifth or more within
minutes, so ``paper_sweep`` and ``service_epochs`` also time a fixed
pure-Python loop in batches between their timed operations
(``Outcome.sample_speed``), and each timed value is scaled by the
batches taken just before and just after it (``Outcome.scaled``).
``scale_round`` reports host seconds: the loop's speed does not track
its mostly-NumPy 20k round (see README).

Every run attempts whole units: ``seconds // 25`` scale rounds,
``seconds // 10`` sweep passes (at least one of each), and queries until
the duration is spent.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from checks import RoundRecord, check_answer, check_round, contributing_readings, record_round
from tracing import Tracer, span

FIELD_M = 400.0
RANGE_M = 50.0
PAPER_SIZES = (200, 300, 400, 500, 600)
ARC_NODES = 250
SCALE_NODES = 20000
SCALE_FIELD_M = 3000.0
SCALE_SETUPS = 5
#: Nominal host seconds of one scale round and one sweep pass; a run of
#: ``--seconds`` attempts ``seconds // nominal`` of them (at least one).
SCALE_ROUND_NOMINAL_S = 25.0
PAPER_PASS_NOMINAL_S = 10.0
SERVICE_NODES = 250
SERVICE_SETUPS_PER_SLICE = 4
SERVICE_CLIENTS = 2
QUERY_MIX = ("sum", "avg", "count", "var", "min", "max")
CACHED_EVERY = 4
DIGEST_EPOCHS = 16
#: Seconds one pass of the host-speed loop takes on the reference host
#: (a 2-vCPU VM); timed metrics are scaled to that host's speed.
REFERENCE_LOOP_S = 0.020
SPEED_LOOPS = 3
#: The service's query loop runs in this many slices of the duration.
#: Between them, while no query is in flight, the host-speed loop and
#: SERVICE_SETUPS_PER_SLICE throwaway service set-ups are timed, so both
#: are sampled through the whole run.
SERVICE_SLICES = 10
ATTACK_MAGNITUDE = 500_000
#: The DES rounds run on fixed placements, with readings drawn from the
#: workload seed. Pass p's deployment of N sensors, and its protocol
#: seed, come from ``default_rng((PLACEMENT_SEED, p, N))``, cycling
#: through SWEEP_PLACEMENTS sets; the attack arcs run on one N=250
#: placement. Placements are not seeded because the program fails on a
#: few of them (see README): an honest round rejected as a count
#: mismatch, a polluter the witnesses miss. On seeded placements those
#: operations would fail on some seeds and not on others. Readings do
#: not change the channel's outcome: a round's collisions, deliveries
#: and verdict are the same for any readings.
PLACEMENT_SEED = 1
SWEEP_PLACEMENTS = 3
ARC_PLACEMENT = (PLACEMENT_SEED, 1, ARC_NODES)
#: (strategy, which head of the dry run is compromised)
ARC_CASES = (("consistent_own", "middle"), ("consistent_child", "relay"))


@dataclass
class LayerLedger:
    """Per-layer totals harvested from public stats objects of every
    protocol instance a run used."""

    setups: int = 0
    rounds: int = 0
    phase_wall: Dict[str, float] = field(default_factory=dict)
    phase_bytes: Dict[str, int] = field(default_factory=dict)
    events: int = 0
    frames: int = 0
    deliveries: int = 0
    losses: int = 0
    mac_dropped: int = 0
    mac_busy: int = 0
    energy_j: float = 0.0
    virtual_s: float = 0.0
    alarms: int = 0
    clusters_formed: int = 0
    clusters_completed: int = 0
    probes: int = 0
    arcs: int = 0

    def harvest(self, protocol, setup_only: bool = False) -> None:
        """Fold one finished protocol instance into the totals;
        ``setup_only`` folds just its Phase I (an instance built only to
        time the set-up)."""
        self.setups += 1
        snapshot = protocol.profiler.snapshot()
        for phase in ("tree", "clustering", "exchange", "report"):
            self.phase_wall[phase] = (
                self.phase_wall.get(phase, 0.0) + snapshot.get(f"{phase}.wall_s", 0.0)
            )
        for phase, count in protocol.phase_bytes.items():
            self.phase_bytes[phase] = self.phase_bytes.get(phase, 0) + count
        if setup_only:
            return
        self.events += protocol.sim.stats.fired
        medium = protocol.stack.medium.stats.snapshot()
        self.frames += medium["transmissions"]
        self.deliveries += medium["deliveries"]
        self.losses += (
            medium["collisions"] + medium["ambient_losses"] + medium["half_duplex_losses"]
        )
        mac = protocol.sim.metrics.nested().get("mac", {})
        self.mac_dropped += mac.get("dropped", 0)
        self.mac_busy += mac.get("busy_senses", 0)
        self.energy_j += protocol.stack.energy.report().total_j

    def record_round(self, result) -> None:
        self.rounds += 1
        self.virtual_s += result.duration_s
        self.alarms += len(result.alarms)
        self.clusters_formed += result.clusters_formed
        self.clusters_completed += result.clusters_completed


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    round_nodes: List[int] = field(default_factory=list)
    op_s: List[float] = field(default_factory=list)
    #: Simulated outputs of the first whole unit, for the determinism digest.
    digest_items: list = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    layers: LayerLedger = field(default_factory=LayerLedger)
    #: service_epochs only: answers per second, tail latency, per-query
    #: gateway waits, queries per served round.
    qps: float = 0.0
    tail_s: float = 0.0
    waits: List[float] = field(default_factory=list)
    batch_size: float = 0.0
    cache_hits: int = 0
    rejected: int = 0
    #: Extra per-layer metrics measured after the traced loop, once the
    #: instrumentation is removed.
    after_trace: Optional[Callable[[], Dict[str, float]]] = None
    #: Median seconds of the host-speed loop in each batch, in run order.
    speed_batches: List[float] = field(default_factory=list)
    #: "setup"/"round"/"op" -> for each timed value, the number of
    #: batches taken before it.
    marks: Dict[str, List[int]] = field(default_factory=dict)

    def sample_speed(self, loops: int = SPEED_LOOPS) -> None:
        """Time one batch of ``loops`` passes of the host-speed loop,
        outside every timed operation."""
        passes = []
        for _ in range(loops):
            start = time.perf_counter()
            _speed_loop()
            passes.append(time.perf_counter() - start)
        self.speed_batches.append(statistics.median(passes))

    def add(self, kind: str, seconds: float, mark: Optional[int] = None) -> None:
        """Record one timed value of ``kind`` ("setup", "round" or "op");
        ``mark`` is the batch count when it was timed (now by default)."""
        getattr(self, f"{kind}_s").append(seconds)
        self.marks.setdefault(kind, []).append(
            len(self.speed_batches) if mark is None else mark
        )

    def scaled(self, kind: str) -> List[float]:
        """The timed values of ``kind`` in reference-host seconds: each
        times REFERENCE_LOOP_S over the mean loop time of the batches
        taken just before and just after it. Unscaled when the workload
        takes no batches."""
        if not self.speed_batches:
            return list(getattr(self, f"{kind}_s"))
        values = []
        for seconds, mark in zip(getattr(self, f"{kind}_s"), self.marks.get(kind, [])):
            around = self.speed_batches[max(0, mark - 1): mark + 1]
            values.append(seconds * REFERENCE_LOOP_S / statistics.fmean(around))
        return values

    def fail(self, operation: str, failures: List[str]) -> None:
        """Count ``operation`` as failed when it has failures."""
        if failures:
            self.failed += 1
            self.failures.extend(f"{operation}: {message}" for message in failures)

    def attempt(self, operation: str, fn: Callable, *args):
        """Run one operation and count it as attempted. An exception
        fails the operation, with its message, instead of ending the
        run; returns ``fn``'s value, or None after an exception."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as error:  # noqa: BLE001 - reported as a failed operation
            self.fail(operation, [f"raised {type(error).__name__}: {error}"])
            return None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def digest(self) -> str:
        payload = json.dumps(self.digest_items, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _speed_loop() -> None:
    """Fixed interpreter work that uses none of the program's code."""
    table: Dict[int, int] = {}
    for i in range(100_000):
        table[i % 1000] = table.get(i % 1000, 0) + i


def _simulated(protocol, result, energy: bool = True) -> dict:
    """The simulated outputs two same-seed processes must reproduce.
    ``energy=False`` leaves out the energy total, whose first reading
    after a round settles the round's energy ledger (~1.3 ms at N=250)."""
    outputs = {
        "verdict": result.verdict.value,
        "raw_totals": list(result.raw_totals),
        "contributors": result.contributors,
        "alarms": sorted(a.dedup_key() for a in result.alarms),
        "clusters": [result.clusters_formed, result.clusters_completed],
        "virtual_s": round(result.duration_s, 9),
        "phase_bytes": dict(sorted(protocol.phase_bytes.items())),
        "medium": protocol.stack.medium.stats.snapshot(),
    }
    if energy:
        outputs["energy_j"] = round(protocol.stack.energy.report().total_j, 9)
    return outputs


def _units(seconds: float, nominal_s: float) -> int:
    """Whole units a run of ``seconds`` attempts: sized by the unit's
    nominal duration, not by measured time, so every run of a given
    length does the same operations whatever the host's speed."""
    return max(1, int(seconds // nominal_s))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _deploy(tracer: Optional[Tracer], num_nodes: int, field_m: float, rng_seed):
    from repro.topology.deploy import uniform_deployment

    return span(
        tracer,
        "topology.deploy",
        uniform_deployment,
        num_nodes,
        field_size=field_m,
        radio_range=RANGE_M,
        rng=np.random.default_rng(rng_seed),
    )


def _uniform_readings(num_nodes: int, rng_seed) -> Dict[int, float]:
    values = np.random.default_rng(rng_seed).uniform(15.0, 25.0, num_nodes - 1)
    return {node: float(v) for node, v in enumerate(values, start=1)}


def _metering_readings(num_nodes: int, rng_seed) -> Dict[int, float]:
    values = np.random.default_rng(rng_seed).lognormal(np.log(500.0), 0.5, num_nodes - 1)
    return {node: float(v) for node, v in enumerate(values, start=1)}


def _gaussian_readings(num_nodes: int, rng_seed) -> Dict[int, float]:
    values = np.random.default_rng(rng_seed).normal(20.0, 2.0, num_nodes - 1)
    return {node: float(max(v, 1.0)) for node, v in enumerate(values, start=1)}


# -- scale_round -------------------------------------------------------------


def scale_round(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.core.config import IcpdaConfig
    from repro.core.protocol import IcpdaProtocol

    out = Outcome()
    config = IcpdaConfig(share_backend="batched", clustering_backend="batched")
    protocol = None
    for _ in range(SCALE_SETUPS):
        if protocol is not None:
            out.layers.harvest(protocol, setup_only=True)
        protocol = None
        gc.collect()
        start = time.perf_counter()
        deployment = _deploy(tracer, SCALE_NODES, SCALE_FIELD_M, [seed, 0])
        protocol = IcpdaProtocol(deployment, config, seed=seed, transport="fluid-bulk")
        protocol.setup()
        out.add("setup", time.perf_counter() - start)
    gc.collect()

    def one_round(round_id: int) -> None:
        readings = _metering_readings(SCALE_NODES, [seed, 1, round_id])
        result, elapsed = _timed(protocol.run_round, readings, round_id=round_id)
        out.add("round", elapsed)
        out.add("op", elapsed)
        out.round_nodes.append(len(readings))
        out.layers.record_round(result)
        out.fail(f"round {round_id}", _check(protocol, readings, result, honest=True))
        if round_id == 1:
            out.digest_items.append(_simulated(protocol, result))

    for round_id in range(1, _units(seconds, SCALE_ROUND_NOMINAL_S) + 1):
        out.attempt(f"round {round_id}", one_round, round_id)
    out.layers.harvest(protocol)
    out.notes.append(
        "per-round host seconds in round order: "
        + ", ".join(f"{value:.3f}" for value in out.round_s)
    )
    return out


# -- paper_sweep -------------------------------------------------------------


def _subtree_heads(tree, heads: List[int]) -> Dict[int, int]:
    """head -> number of other listed heads below it in the tree."""
    below = dict.fromkeys(heads, 0)
    head_set = set(heads)
    for head in heads:
        node = tree.parents.get(head)
        while node is not None:
            if node in head_set:
                below[node] += 1
            node = tree.parents.get(node)
    return below


def _protocol_seed(seed_parts: List[int]) -> int:
    return int(np.random.default_rng(seed_parts).integers(2**31))


def _check(protocol, readings, result, honest: bool) -> List[str]:
    return check_round(
        record_round(protocol), protocol.aggregate, readings, result, honest=honest
    )


def _honest_round(out, tracer, seed_parts, readings_parts, num_nodes, label):
    """One honest round on a fresh protocol: deployment and protocol seed
    from ``seed_parts``, readings from ``readings_parts``."""
    from repro.core.config import IcpdaConfig
    from repro.core.protocol import IcpdaProtocol

    deployment = _deploy(tracer, num_nodes, FIELD_M, seed_parts)
    protocol = IcpdaProtocol(
        deployment, IcpdaConfig(), seed=_protocol_seed(seed_parts)
    )
    protocol.setup()
    readings = _uniform_readings(num_nodes, readings_parts)
    result, elapsed = _timed(protocol.run_round, readings)
    out.add("round", elapsed)
    out.round_nodes.append(len(readings))
    out.layers.record_round(result)
    out.layers.harvest(protocol)
    out.fail(label, _check(protocol, readings, result, honest=True))
    return deployment, protocol, readings, result


def _attack_arc(out, tracer, deployment, readings, heads, attacker, strategy, seed):
    """Attacked round, localization probes, recovery round; returns the
    failure messages of the arc."""
    from repro.attacks.pollution import PollutionAttack
    from repro.core.config import IcpdaConfig
    from repro.core.localization import expected_probe_bound, localize_polluter
    from repro.core.protocol import IcpdaProtocol

    config = IcpdaConfig()
    failures: List[str] = []

    def restricted_round(subset):
        attack = PollutionAttack({attacker}, strategy, magnitude=ATTACK_MAGNITUDE)
        run_config = config if subset is None else config.with_restriction(subset)
        start = time.perf_counter()
        protocol = IcpdaProtocol(deployment, run_config, seed=seed, attack_plan=attack)
        protocol.setup()
        out.add("setup", time.perf_counter() - start)
        result, elapsed = _timed(protocol.run_round, readings, round_id=0)
        out.add("round", elapsed)
        out.round_nodes.append(len(readings))
        out.layers.record_round(result)
        out.layers.harvest(protocol)
        failures.extend(_check(protocol, readings, result, honest=False))
        return result

    def probe(subset):
        out.layers.probes += 1
        return span(tracer, "localization.probe", restricted_round, subset).detected_pollution

    start = time.perf_counter()
    attacked = restricted_round(None)
    search = localize_polluter(probe, heads)
    surviving = tuple(h for h in heads if h != attacker)
    recovered = restricted_round(surviving)
    elapsed = time.perf_counter() - start
    out.layers.arcs += 1

    if not attacked.detected_pollution or attacked.top_suspect() != attacker:
        failures.append(
            f"attacked round: verdict {attacked.verdict.value}, top suspect "
            f"{attacked.top_suspect()} (attacker {attacker})"
        )
    bound = expected_probe_bound(len(heads))
    if search.suspects != (attacker,) or search.probes_used > bound:
        failures.append(
            f"localization: suspects {search.suspects} in {search.probes_used} "
            f"probes (attacker {attacker}, bound {bound})"
        )
    if not recovered.verdict.accepted or recovered.alarms:
        failures.append(
            f"recovery round: verdict {recovered.verdict.value}, "
            f"{len(recovered.alarms)} alarm(s)"
        )
    return failures, elapsed, {
        "attacker": attacker,
        "attacked": attacked.verdict.value,
        "suspects": list(search.suspects),
        "probes": search.probes_used,
        "recovered": _simulated_result(recovered),
    }


def _simulated_result(result) -> dict:
    return {
        "verdict": result.verdict.value,
        "raw_totals": list(result.raw_totals),
        "contributors": result.contributors,
        "virtual_s": round(result.duration_s, 9),
    }


def paper_sweep(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.attacks.pollution import TamperStrategy

    out = Outcome()
    for sweep_pass in range(1, _units(seconds, PAPER_PASS_NOMINAL_S) + 1):
        digest = []
        for num_nodes in PAPER_SIZES:
            label = f"pass {sweep_pass} N={num_nodes}"
            placement = [PLACEMENT_SEED, (sweep_pass - 1) % SWEEP_PLACEMENTS + 1, num_nodes]
            out.sample_speed()
            done = out.attempt(
                label, _honest_round, out, tracer, placement,
                [seed, sweep_pass, num_nodes, 1], num_nodes, label,
            )
            if done is not None:
                digest.append(_simulated(done[1], done[3]))

        label = f"pass {sweep_pass} dry run {ARC_PLACEMENT}"
        out.sample_speed()
        done = out.attempt(
            label, _honest_round, out, tracer, list(ARC_PLACEMENT),
            [seed, sweep_pass, 0], ARC_NODES, label,
        )
        if done is not None:
            deployment, dry, readings, _ = done
            heads = [h for h in dry.last_exchange.completed_clusters if h != 0]
            below = _subtree_heads(dry.tree, heads)
            picks = {
                "middle": heads[len(heads) // 2],
                # The head relaying the most other clusters' reports, so
                # the framed-child path (not its own-sum fallback) runs;
                # ties go to the lowest id (heads are sorted).
                "relay": max(heads, key=below.__getitem__),
            }
            for strategy_name, pick in ARC_CASES:
                label = f"pass {sweep_pass} arc {strategy_name}"
                out.sample_speed()
                done = out.attempt(
                    label, _attack_arc, out, tracer, deployment, readings, heads,
                    picks[pick], TamperStrategy(strategy_name),
                    _protocol_seed(list(ARC_PLACEMENT)),
                )
                if done is None:
                    continue
                failures, elapsed, summary = done
                out.fail(label, failures)
                digest.append(summary)
                out.add("op", elapsed)
        if sweep_pass == 1:
            out.digest_items = digest
    out.notes.append(
        "pass 1 honest rounds (N, host s): "
        + ", ".join(
            f"({n}, {t:.3f})" for n, t in zip(PAPER_SIZES, out.round_s[: len(PAPER_SIZES)])
        )
    )
    out.notes.append("arcs (host s): " + ", ".join(f"{t:.3f}" for t in out.op_s))
    return out


# -- service_epochs ----------------------------------------------------------


@dataclass
class _Epoch:
    """One served round as the timed loop saw it: its result, the
    aggregate it ran with, and the record its checks need. The checks
    run after the loop, so the measured latencies hold none of them (and
    keeping each epoch's whole exchange state instead of the record
    would grow the process by ~0.3 MB per epoch and skew
    ``peak_rss_mb``)."""

    result: object
    aggregate: object
    record: RoundRecord


def _service_readings(seed: int, epoch: int) -> Dict[int, float]:
    return _gaussian_readings(SERVICE_NODES, [seed, 1, epoch])


def _build_service(seed: int, tracer: Optional[Tracer]):
    from repro.core.config import IcpdaConfig
    from repro.service.service import AggregationService

    deployment = _deploy(tracer, SERVICE_NODES, FIELD_M, [seed, 0])
    service = AggregationService(
        deployment,
        IcpdaConfig(),
        seed=seed,
        readings_provider=lambda epoch: _service_readings(seed, epoch),
        transport="fluid",
    )
    service.start()
    return service


class _Client:
    """One closed-loop client's place in the query mix, kept across the
    slices of the run."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.step = self.fresh = 0
        self.kind: Optional[str] = None

    def next_query(self):
        """(kind, max_age_epochs) of the next query. Every
        CACHED_EVERY-th query re-reads the statistic the client asked
        for last, accepting a one-epoch-old answer."""
        max_age = 1 if self.step % CACHED_EVERY == CACHED_EVERY - 1 else 0
        if not max_age:
            self.kind = QUERY_MIX[(self.index * 3 + self.fresh) % len(QUERY_MIX)]
            self.fresh += 1
        self.step += 1
        return self.kind, max_age


def _tail(latencies: List[float]):
    """Highest percentile of a fixed ladder with at least ten samples
    beyond it: (percentile, value); the median when there are fewer
    than forty samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    for percentile in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0):
        rank = int(np.ceil(percentile / 100.0 * count)) - 1
        if count - 1 - rank >= 10:
            return percentile, ordered[rank]
    return 50.0, statistics.median(ordered)


def service_epochs(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    from repro.service.gateway import AggregationGateway, QueryRejected
    from repro.service.queries import POWER_MEAN_K

    out = Outcome()

    def timed_setup():
        gc.collect()
        built, elapsed = _timed(_build_service, seed, tracer)
        out.add("setup", elapsed)
        return built

    out.sample_speed()
    service = timed_setup()

    protocol = service.protocol
    epochs: Dict[int, _Epoch] = {}
    serve_starts: Dict[int, float] = {}
    run_round = protocol.run_round

    def observed_round(readings, round_id=0):
        serve_starts[round_id] = time.monotonic()
        result, elapsed = _timed(run_round, readings, round_id=round_id)
        out.add("round", elapsed)
        out.round_nodes.append(len(readings))
        out.layers.record_round(result)
        epochs[round_id] = _Epoch(result, protocol.aggregate, record_round(protocol))
        if len(epochs) <= DIGEST_EPOCHS:
            # Energy is read once, for the first DIGEST_EPOCHS epochs
            # together, to keep its settling cost out of the other rounds.
            out.digest_items.append(
                {"epoch": round_id, "aggregate": protocol.aggregate.name,
                 **_simulated(protocol, result, energy=len(epochs) == DIGEST_EPOCHS)}
            )
        return result

    protocol.run_round = observed_round
    gateway = AggregationGateway(service)
    queries: List[dict] = []

    async def client(state: _Client, deadline: float) -> None:
        while time.perf_counter() < deadline:
            kind, max_age = state.next_query()
            record = {"kind": kind, "max_age": max_age, "epoch_at_submit": service.epoch}
            record["admitted_mono"] = time.monotonic()
            record["mark"] = len(out.speed_batches)
            admitted = time.perf_counter()
            try:
                answer = await gateway.query(kind, max_age_epochs=max_age)
            except QueryRejected as error:
                record["error"] = f"rejected: {error}"
            except Exception as error:  # noqa: BLE001 - the round behind it raised
                record["error"] = f"raised {type(error).__name__}: {error}"
            else:
                record["answer"] = answer
                record["latency"] = time.perf_counter() - admitted
            queries.append(record)

    async def drive() -> float:
        await gateway.start()
        clients = [_Client(index) for index in range(SERVICE_CLIENTS)]
        wall = 0.0
        for _ in range(SERVICE_SLICES):
            start = time.perf_counter()
            deadline = start + seconds / SERVICE_SLICES
            await asyncio.gather(*(client(state, deadline) for state in clients))
            wall += time.perf_counter() - start
            out.sample_speed()
            for _ in range(SERVICE_SETUPS_PER_SLICE):
                out.layers.harvest(timed_setup().protocol, setup_only=True)
        await gateway.stop()
        return wall

    wall = asyncio.run(drive())
    protocol.run_round = run_round

    # The checks, after the timed loop: each served round once, then
    # every answer against its round's contributing readings.
    checked = {}
    for number, epoch in epochs.items():
        readings = _service_readings(seed, number)
        checked[number] = (
            check_round(epoch.record, epoch.aggregate, readings, epoch.result, honest=True),
            contributing_readings(epoch.record, readings),
        )

    scale = protocol.config.fixed_point_scale
    overshoot: List[float] = []
    for number, record in enumerate(queries):
        out.attempted += 1
        label = f"query {number} ({record['kind']})"
        if "error" in record:
            out.fail(label, [record["error"]])
            continue
        answer = record["answer"]
        out.add("op", record["latency"], record["mark"])
        if answer.epoch not in epochs:
            out.fail(label, [f"answer from unknown epoch {answer.epoch}"])
            continue
        round_failures, contributing = checked[answer.epoch]
        failures = list(round_failures)
        if record["max_age"] == 0 and answer.epoch <= record["epoch_at_submit"]:
            failures.append(
                f"fresh query answered from epoch {answer.epoch}, submitted "
                f"after epoch {record['epoch_at_submit']}"
            )
        if answer.epoch < record["epoch_at_submit"]:
            failures.append(
                f"answer from epoch {answer.epoch} older than the max age "
                f"(epoch {record['epoch_at_submit']} served at submission)"
            )
        if answer.epoch > record["epoch_at_submit"]:
            out.waits.append(serve_starts[answer.epoch] - record["admitted_mono"])
        failures += check_answer(
            record["kind"], answer.value, contributing,
            epochs[answer.epoch].result.contributors, scale=scale, power=POWER_MEAN_K,
        )
        out.fail(label, failures)
        if record["kind"] == "max" and answer.value is not None:
            overshoot.append(answer.value / max(contributing))

    stats = gateway.stats
    out.qps = len(out.op_s) / wall
    out.cache_hits = stats.cache_hits
    out.rejected = stats.rejected
    out.batch_size = (stats.served - stats.cache_hits) / max(1, stats.batches)
    out.layers.harvest(protocol)
    if out.op_s:
        percentile, out.tail_s = _tail(out.op_s)
        out.notes.append(
            f"{len(queries)} queries, {len(out.op_s)} answers over {service.epoch} "
            f"epochs in {wall:.2f} s: qps {out.qps:.2f}, p50 "
            f"{statistics.median(out.op_s):.4f} s, p{percentile:g} {out.tail_s:.4f} s "
            f"(n={len(out.op_s)}), cache hits {stats.cache_hits}, "
            f"rejected {stats.rejected}"
        )
    if overshoot:
        out.notes.append(
            f"MAX~ (k={POWER_MEAN_K}) / true maximum: median "
            f"{statistics.median(overshoot):.3f} over {len(overshoot)} answers"
        )
    out.after_trace = lambda: {"service.heap_kb_per_epoch": _heap_growth(service)}
    return out


def _heap_growth(service, warmup: int = 10, measured: int = 30) -> float:
    """Python heap growth per served epoch on the live instance, measured
    with tracemalloc after the timed loop (so it costs the timed part
    nothing)."""
    for _ in range(warmup):
        service.serve_batch(["sum"])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(measured):
            service.serve_batch(["sum"])
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / 1024.0 / measured


WORKLOADS = {
    "scale_round": scale_round,
    "paper_sweep": paper_sweep,
    "service_epochs": service_epochs,
}
