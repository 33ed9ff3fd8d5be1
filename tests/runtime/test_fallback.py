"""Pool dispatch failure: every parallel caller falls back in-process.

When :meth:`WorkerPool.dispatch` raises :class:`WorkerPoolError`, each
caller must warn once (``RuntimeWarning``) and return a result
byte-identical to its serial run (``jobs=1`` / ``shards=1``).
"""

import warnings

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.hierarchy import MultiRackPlacer
from repro.core.placer import PlacementRequest
from repro.exceptions import WorkerPoolError
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.runtime.pool import WorkerPool, shutdown_pool
from repro.sim.faults import (
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    run_chaos_checked,
)
from repro.sim.lifecycle import (
    ChainEvent,
    LifecycleSpec,
    LifecycleTimeline,
    run_lifecycle_checked,
)
from repro.sim.traffic import TrafficSpec, run_traffic

SPEC = "chain c1: ACL -> NAT\nchain c2: NAT -> IPv4Fwd"
SLOS = ((100.0, 200.0), (100.0, 200.0))


def _traffic(parallel: int) -> str:
    spec = TrafficSpec(
        spec_text=SPEC, slos=SLOS, packets_per_chain=64,
        flows_per_chain=8, batch_size=32, vectorized=True,
        shards=2 if parallel else 1,
    )
    return run_traffic(spec, registry=MetricsRegistry()).to_json()


def _chaos(jobs: int) -> str:
    spec = ChaosSpec(
        spec_text=SPEC, slos=SLOS, servers=2,
        timeline=FaultTimeline(events=(
            FaultEvent(at_packet=64, action="fail", target="server0"),
        ), seed=23),
        packets_per_chain=128, flows_per_chain=8, batch_size=32,
    )
    return run_chaos_checked(spec, jobs=jobs,
                             registry=MetricsRegistry()).to_json()


def _lifecycle(jobs: int) -> str:
    spec = LifecycleSpec(
        spec_text=SPEC, slos=SLOS,
        timeline=LifecycleTimeline(events=(
            ChainEvent(at=1, action="arrive", chain="c3",
                       spec="chain c3: Monitor -> IPv4Fwd",
                       t_min_mbps=100.0, t_max_mbps=200.0),
        ), seed=23),
        packets_per_phase=32,
    )
    return run_lifecycle_checked(spec, jobs=jobs,
                                 registry=MetricsRegistry()).to_json()


def _sweep(jobs: int) -> str:
    schemes = {k: SCHEMES[k] for k in ("Lemur", "Greedy")}
    sweep = run_sweep(SweepSpec(
        chain_indices=(2, 3), deltas=(0.5, 1.0), schemes=schemes,
        measure=False, cache=False, jobs=jobs,
    ))
    return repr(sweep.results)


def _multirack(jobs: int) -> str:
    chains = chains_from_spec(
        "\n".join(f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd"
                  for i in range(6)),
        slos=[SLO(t_min=4000.0, t_max=9000.0, d_max=400.0)] * 6,
    )
    report = MultiRackPlacer(
        fabric=topology_for("two-rack").build()
    ).solve(PlacementRequest.multi_rack(chains=chains, jobs=jobs))
    # in-process fallback reports where the racks were actually solved
    assert report.rack_solve == "serial"
    return report.placement.describe()


CALLERS = {
    "traffic": _traffic,
    "chaos": _chaos,
    "lifecycle": _lifecycle,
    "sweep": _sweep,
    "multirack": _multirack,
}


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.mark.parametrize("caller", list(CALLERS))
def test_dispatch_failure_falls_back_in_process(caller, monkeypatch):
    run = CALLERS[caller]
    serial = run(1)

    def broken_dispatch(self, calls, **kwargs):
        raise WorkerPoolError("injected dispatch failure")

    monkeypatch.setattr(WorkerPool, "dispatch", broken_dispatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = run(2)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "injected dispatch failure" in str(runtime[0].message)
    assert fallback == serial
