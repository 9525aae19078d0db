"""Replay a fuzz genome through the real simulated-SSD datapath.

:func:`execute` is a *pure function* of the genome: the device seed is
pinned, flash timing is deterministic, and the DES kernel is exact, so
the same genome always produces the same coverage edges, features, and
oracle verdicts -- in any process.  That purity is what makes the
corpus evolution reproducible across ``--jobs`` settings and what makes
a minimized repro a trustworthy regression test.

Two modes, selected by ``genome.config.tenants``:

* **Direct** (``tenants == 0``): a single scripted driver submits ops
  straight to :meth:`~repro.ftl.ftl.Ftl.submit`.  The only mode where
  the snapshot-divergence oracle can run (quiescent-point snapshots
  reject attached frontends): with ``snapshot_at > 0`` the run splits
  at a drain point, snapshots, restores into a second device, and
  finishes the op tail on both -- their final snapshots must match.
  ``powercut_at > 0`` additionally replays the genome on a second
  device that loses power mid-flight, rebuilds from flash-durable
  state only (:func:`~repro.core.checkpoint.durable_state`), and runs
  the unsubmitted op tail plus the mapping/quiescence oracles on the
  recovered device -- any failure is a ``powerloss_recovery`` finding.

* **Frontend** (``tenants >= 1``): per-tenant scripted drivers feed a
  real :class:`~repro.host.frontend.MultiQueueFrontend` via its
  admission API, exercising arbiters, token-bucket QoS, and
  drop-on-full admission.

**Differential mode** (``execute(..., differential=True)``) runs the
same op sequence against both the ``baseline`` and ``dssd`` presets and
compares their :mod:`~repro.fuzz.diffcheck` canonical end states; any
mismatch is an ``arch_divergence`` finding.  The pair runs with the
reliability knobs zeroed (fault RNG draws are consumed in
datapath-timing order, so they are architecture-dependent noise) and
``snapshot_at`` disabled (orthogonal, and it would double the runtime);
``powercut_at`` is kept so recovery is asserted on both architectures.
"""

from __future__ import annotations

import json
import traceback
from typing import Callable, Generator, List, Optional

from ..core.checkpoint import (durable_state, recover_ssd, restore_ssd,
                               snapshot_ssd)
from ..core.config import ArchPreset, SSDConfig, sim_geometry
from ..core.ssd import SimulatedSSD
from ..errors import ReproError
from ..ftl.request import READ, TRIM, WRITE, IoRequest
from ..host.frontend import MultiQueueFrontend
from ..host.qos import QosPolicy
from ..host.tenant import TenantSpec
from ..sim.kernel import SimulationError
from . import canary, diffcheck, oracles
from .coverage import CoverageCollector, semantic_features
from .genome import FUZZ_GEOMETRY, FuzzOp, Genome, GenomeConfig

__all__ = ["DEVICE_SEED", "DIFF_ARCHES", "HORIZON_US", "build_config",
           "execute"]

#: Fixed device seed: execution depends on the genome alone, so ddmin
#: shrinking never perturbs device randomness.
DEVICE_SEED = 0xD55D

#: Simulated-time budget per device run.  Generous against any honest
#: genome (<< 1e5 us of issued work) but finite, so polling livelocks
#: advance simulated time until the horizon instead of hanging the
#: fuzzer -- a run that hits it reports status "stall".  The budget is
#: an *absolute* deadline per device: a snapshot-split run's head and
#: tail share one horizon, so split and unsplit runs stall identically.
HORIZON_US = 2_000_000.0

#: The architecture pair differential mode compares.
DIFF_ARCHES = ("baseline", "dssd")

_OP_CODES = {"read": READ, "write": WRITE, "trim": TRIM}


def build_config(config: GenomeConfig) -> SSDConfig:
    """Translate genome knobs into a concrete tiny-device SSDConfig."""
    config = config.normalized()
    reliability = None
    if config.base_rber > 0.0 or config.fault_rate > 0.0:
        from ..reliability import ReliabilityConfig

        reliability = ReliabilityConfig(
            base_rber=max(config.base_rber, 1e-9),
            channel_fault_rate=config.fault_rate,
            spare_blocks_per_channel=1,
        )
    return SSDConfig(
        arch=ArchPreset(config.arch),
        geometry=sim_geometry(**FUZZ_GEOMETRY),
        queue_depth=config.queue_depth,
        write_policy=config.write_policy,
        gc_policy=config.gc_policy,
        prefill_fraction=config.prefill_fraction,
        prefill_valid_ratio=config.prefill_valid_ratio,
        reliability=reliability,
        gc_reserve_blocks=1,
        flush_workers=4,
        seed=DEVICE_SEED,
    )


def _build_device(config: GenomeConfig) -> SimulatedSSD:
    ssd = SimulatedSSD(build_config(config))
    canary.maybe_install(ssd)
    ssd.prefill()
    ssd.ftl.start()
    return ssd


def _make_request(op: FuzzOp, lpn_space: int) -> IoRequest:
    lpn = min(int(op.lpn_frac * lpn_space), max(lpn_space - 1, 0))
    return IoRequest(op=_OP_CODES[op.kind], lpn=lpn, n_pages=op.n_pages,
                     dram_hit=op.dram_hit and op.kind in ("read", "write"))


class _PhaseResult:
    __slots__ = ("status", "detail")

    def __init__(self, status: str, detail: str = ""):
        self.status = status
        self.detail = detail


def _spawn_driver(ssd: SimulatedSSD, ops: List[FuzzOp],
                  state: dict, procs: List) -> None:
    """Start the scripted direct-mode driver (shared by every phase).

    ``state["issued"]`` tracks how many ops have been handed to the
    device so a power-cut pass knows which tail remains unsubmitted;
    ``state["done"]`` flips when the script ends.
    """
    sim = ssd.sim

    def driver() -> Generator:
        for index, op in enumerate(ops):
            if op.gap_us > 0.0:
                yield sim.timeout(op.gap_us)
            if op.kind == "flush":
                pending = [p for p in procs if not p.triggered]
                if pending:
                    yield sim.all_of(pending)
            else:
                procs.append(
                    ssd.ftl.submit(_make_request(op, ssd.lpn_space)))
            state["issued"] = index + 1
        state["done"] = True

    sim.process(driver(), name="fuzz_driver")


def _drain_until(sim, deadline: float) -> None:
    """Dispatch queued events up to *deadline* without clock inflation.

    ``Simulator.run(until=...)`` fast-forwards ``now`` onto *until*
    when the queue empties first; with one absolute stall budget per
    execution that would charge a completed head phase for the whole
    horizon and leave the tail none.  So this drains one instant at a
    time through the same run loop the experiments use:
    ``run(until=peek())`` dispatches every entry due at the next
    instant, in ``(time, seq)`` order, and leaves the clock on it.  It
    stops when the queue is empty or the next instant is past
    *deadline*, with the clock at the last instant dispatched.
    """
    while True:
        upcoming = sim.peek()
        if upcoming is None or upcoming > deadline:
            return
        sim.run(until=upcoming)


def _drain_and_classify(sim, deadline: float, idle: Callable[[], bool],
                        busy_detail: Callable[[], str]) -> _PhaseResult:
    """Drain to *deadline* and classify how the phase ended.

    An exception gives ``exception``; a drained queue gives ``ok`` when
    ``idle()`` holds and ``deadlock`` with ``busy_detail()`` otherwise;
    events still pending at the deadline give ``stall``.
    """
    try:
        _drain_until(sim, deadline)
    except Exception as exc:  # noqa: BLE001 - any model crash is a finding
        return _PhaseResult(
            "exception",
            traceback.format_exception_only(type(exc), exc)[-1].strip())
    if sim.peek() is not None:
        return _PhaseResult(
            "stall", f"horizon {HORIZON_US:.0f}us reached with events pending")
    if idle():
        return _PhaseResult("ok")
    return _PhaseResult("deadlock", busy_detail())


def _run_direct(ssd: SimulatedSSD, ops: List[FuzzOp],
                deadline: float) -> _PhaseResult:
    """Submit *ops* straight to the FTL and drain; classify the ending.

    *deadline* is an absolute simulated time: callers compute it once
    per device (``sim.now + HORIZON_US`` at the run's start) so a
    snapshot-split execution's phases share one stall budget.
    """
    state = {"done": False, "issued": 0}
    procs: List = []
    _spawn_driver(ssd, ops, state, procs)
    return _drain_and_classify(
        ssd.sim, deadline,
        lambda: state["done"] and all(p.triggered for p in procs),
        lambda: (f"event queue drained with work incomplete "
                 f"(driver done={state['done']}, "
                 f"outstanding={sum(1 for p in procs if not p.triggered)})"))


def _run_frontend(ssd: SimulatedSSD, config: GenomeConfig,
                  ops: List[FuzzOp], deadline: float) -> _PhaseResult:
    """Feed *ops* through a MultiQueueFrontend with scripted drivers."""
    sim = ssd.sim
    tenants = config.tenants
    specs = []
    for index in range(tenants):
        rate = config.rate_iops if (index == 0 and config.rate_iops > 0) \
            else None
        specs.append(TenantSpec(
            name=f"t{index}",
            workload=None,   # scripted drivers never pull from it
            driver="closed",
            qos=QosPolicy(rate_iops=rate, weight=index + 1,
                          priority=index % 2, sq_depth=8,
                          drop_on_full=config.drop_on_full),
        ))
    frontend = MultiQueueFrontend(sim, ssd.ftl, specs,
                                  arbiter=config.arbiter)
    ssd.frontend = frontend

    def scripted(qid: int, tenant_ops: List[FuzzOp]) -> Generator:
        submitted: List = []
        for op in tenant_ops:
            if op.gap_us > 0.0:
                yield sim.timeout(op.gap_us)
            if op.kind == "flush":
                pending = [sqe.done for sqe in submitted
                           if sqe is not None and not sqe.done.triggered]
                if pending:
                    yield sim.all_of(pending)
                continue
            request = _make_request(op, ssd.lpn_space)
            if config.drop_on_full:
                submitted.append(frontend.try_submit(qid, request))
            else:
                sqe = yield from frontend.submit_blocking(qid, request)
                submitted.append(sqe)

    drivers = [
        scripted(qid, [op for op in ops if op.tenant % tenants == qid])
        for qid in range(tenants)
    ]
    frontend.start_scripted(drivers)
    return _drain_and_classify(
        sim, deadline,
        lambda: frontend._all_idle() and ssd.host.outstanding == 0,
        lambda: (f"event queue drained with frontend busy "
                 f"(inflight={frontend.inflight}, "
                 f"host outstanding={ssd.host.outstanding})"))


def _canonical_snapshot(ssd) -> Optional[str]:
    try:
        return json.dumps(snapshot_ssd(ssd), sort_keys=True)
    except (ReproError, SimulationError):
        # Not quiescent -- the leaked-hold oracle owns that finding.
        return None


def _execute_direct(genome: Genome, outcome: dict) -> SimulatedSSD:
    config = genome.config
    ops = genome.ops
    ssd = _build_device(config)
    deadline = ssd.sim.now + HORIZON_US
    split = int(len(ops) * config.snapshot_at) if config.snapshot_at else 0
    if not 0 < split < len(ops):
        result = _run_direct(ssd, ops, deadline)
        outcome["status"] = result.status
        outcome["detail"] = result.detail
        return ssd

    head = _run_direct(ssd, ops[:split], deadline)
    if head.status != "ok":
        outcome["status"] = head.status
        outcome["detail"] = head.detail
        return ssd
    restored: Optional[SimulatedSSD] = None
    try:
        state = json.loads(json.dumps(snapshot_ssd(ssd)))
        restored = restore_ssd(state)
        canary.maybe_install(restored)
    except (ReproError, SimulationError) as exc:
        # Leak at the drain point: report via the leaked-hold oracle
        # path (status stays ok so oracles.check runs quiescence).
        outcome.setdefault("notes", []).append(
            f"snapshot at split refused: {exc}")
    tail = _run_direct(ssd, ops[split:], deadline)
    outcome["status"] = tail.status
    outcome["detail"] = tail.detail
    if restored is not None:
        # The restored device's clock is rewound onto the snapshot
        # time, so the same absolute deadline bounds its tail too.
        tail2 = _run_direct(restored, ops[split:], deadline)
        primary = _canonical_snapshot(ssd)
        secondary = _canonical_snapshot(restored)
        if tail.status == "ok" and tail2.status != "ok":
            outcome["violations"].append({
                "oracle": "snapshot_divergence",
                "detail": f"restored device ended {tail2.status} "
                          f"({tail2.detail}) while primary ended ok",
            })
        elif (primary is not None and secondary is not None
                and primary != secondary):
            outcome["violations"].append({
                "oracle": "snapshot_divergence",
                "detail": "continuing after snapshot/restore diverged "
                          "from the uninterrupted run",
            })
        outcome["features"].update(
            semantic_features(restored, tail2.status))
    return ssd


def _check_powercut(genome: Genome, end_time: float) -> List[dict]:
    """Power-loss pass: cut, rebuild from durable state, replay, audit.

    Replays the genome on a fresh device up to ``powercut_at`` of the
    measured uninterrupted duration *end_time*, yanks power there
    (mid-flight, event queue intact), mounts a recovered device from
    the flash-durable projection, runs the not-yet-submitted op tail on
    it, and applies the standard oracle battery.  Every failure --
    including a crash inside recovery itself -- comes back as a
    ``powerloss_recovery`` violation.
    """
    cut_time = genome.config.powercut_at * end_time
    if cut_time <= 0.0:
        return []
    ssd = _build_device(genome.config)
    state = {"done": False, "issued": 0}
    procs: List = []
    _spawn_driver(ssd, genome.ops, state, procs)
    try:
        ssd.sim.run(until=cut_time)
        durable = json.loads(json.dumps(durable_state(ssd)))
        recovered = recover_ssd(durable)
        canary.maybe_install(recovered)
    except Exception as exc:  # noqa: BLE001 - recovery crash is the finding
        line = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return [{"oracle": "powerloss_recovery",
                 "detail": f"recovery crashed at cut t={cut_time:.1f}us "
                           f"({state['issued']} op(s) issued): {line}"}]
    tail = genome.ops[state["issued"]:]
    result = _run_direct(recovered, tail,
                         recovered.sim.now + HORIZON_US)
    violations = []
    for found in oracles.check(recovered, result.status, result.detail):
        violations.append({
            "oracle": "powerloss_recovery",
            "detail": f"post-recovery {found['oracle']} (cut at "
                      f"t={cut_time:.1f}us, {state['issued']} op(s) "
                      f"issued, {len(tail)} replayed): {found['detail']}",
        })
    return violations


def _differential_pair(genome: Genome) -> List[Genome]:
    """The two arch-pinned genomes a differential execution compares.

    Reliability knobs are zeroed (the fault RNG is consumed in
    datapath-timing order -- architecture-dependent noise, see
    :mod:`~repro.fuzz.diffcheck`) and ``snapshot_at`` is disabled;
    everything else, including ``powercut_at``, carries over.
    """
    pair = []
    for arch in DIFF_ARCHES:
        state = genome.config.to_dict()
        state["arch"] = arch
        state["base_rber"] = 0.0
        state["fault_rate"] = 0.0
        state["snapshot_at"] = 0.0
        pair.append(Genome(config=GenomeConfig.from_dict(state),
                           ops=genome.ops, origin=genome.origin))
    return pair


def _execute_differential(genome: Genome, collect_coverage: bool) -> dict:
    outcome: dict = {"status": "ok", "detail": "", "violations": [],
                     "features": set(), "metrics": {}, "edges": set()}
    canonical = {}
    for arch_genome in _differential_pair(genome):
        arch = arch_genome.config.arch
        sub = execute(arch_genome, collect_coverage=collect_coverage)
        outcome["edges"].update(sub["edges"])
        outcome["features"].update(sub["features"])
        for violation in sub["violations"]:
            outcome["violations"].append({
                "oracle": violation["oracle"],
                "detail": f"[{arch}] {violation['detail']}",
            })
        if sub["status"] != "ok" and outcome["status"] == "ok":
            outcome["status"] = sub["status"]
            outcome["detail"] = f"[{arch}] {sub['detail']}"
        outcome["metrics"][arch] = sub["metrics"]
        canonical[arch] = sub["canonical"]
    mismatches = diffcheck.diff(canonical[DIFF_ARCHES[0]],
                                canonical[DIFF_ARCHES[1]],
                                labels=DIFF_ARCHES)
    if mismatches:
        outcome["violations"].append({
            "oracle": "arch_divergence",
            "detail": "; ".join(mismatches),
        })
    outcome["canonical"] = canonical
    outcome["edges"] = sorted(outcome["edges"])
    outcome["features"] = sorted(outcome["features"])
    return outcome


def execute(genome: Genome, collect_coverage: bool = True,
            differential: bool = False) -> dict:
    """Run one genome; return a picklable outcome record.

    Keys: ``status`` (ok/deadlock/stall/exception), ``detail``,
    ``violations`` (list of ``{"oracle", "detail"}``), ``edges`` and
    ``features`` (sorted lists of stable strings), ``metrics``, and
    ``canonical`` (the :mod:`~repro.fuzz.diffcheck` projection).
    Oracles run in here -- workers ship verdicts, not live devices.

    With ``differential=True`` the genome executes on both
    :data:`DIFF_ARCHES`; edges/features are unioned, per-arch
    violations are prefixed with their architecture, and a canonical
    end-state mismatch adds an ``arch_divergence`` violation.
    """
    genome = genome.normalized()
    if differential:
        return _execute_differential(genome, collect_coverage)
    outcome: dict = {"status": "ok", "detail": "", "violations": [],
                     "features": set(), "metrics": {}}
    collector = CoverageCollector()
    if collect_coverage:
        collector.__enter__()
    try:
        if genome.config.tenants == 0:
            ssd = _execute_direct(genome, outcome)
            if genome.config.powercut_at > 0.0 and outcome["status"] == "ok":
                outcome["violations"].extend(
                    _check_powercut(genome, ssd.sim.now))
        else:
            ssd = _build_device(genome.config)
            result = _run_frontend(ssd, genome.config, genome.ops,
                                   ssd.sim.now + HORIZON_US)
            outcome["status"] = result.status
            outcome["detail"] = result.detail
    finally:
        if collect_coverage:
            collector.__exit__(None, None, None)

    outcome["features"].update(semantic_features(ssd, outcome["status"]))
    outcome["violations"].extend(
        oracles.check(ssd, outcome["status"], outcome["detail"]))
    outcome["canonical"] = diffcheck.canonical_state(
        ssd, outcome["status"], outcome["detail"])
    outcome["metrics"] = {
        "sim_now_us": ssd.sim.now,
        "requests_completed": ssd.ftl.requests_completed,
        "gc_episodes": ssd.gc.stats.episodes,
        "gc_pages_moved": ssd.gc.stats.pages_moved,
    }
    outcome["edges"] = sorted(collector.edges)
    outcome["features"] = sorted(outcome["features"])
    return outcome
