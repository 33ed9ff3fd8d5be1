"""The benchmark's own tests: every check rejects a corrupted output.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout (one test replays real traffic through
the program in ``src``).
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import common  # noqa: E402
from compare import verdict  # noqa: E402
from tracing import Span, Tracer, attribute  # noqa: E402


# -- replay-columnar ---------------------------------------------------------


def test_replay_pass_accepts_a_clean_pass():
    assert checks.check_replay_pass(
        {"injected": 8192, "delivered": 8192, "ok": True}) == []


@pytest.mark.parametrize("corrupt", [
    {"delivered": 8191},
    {"ok": False},
])
def test_replay_pass_rejects_corruption(corrupt):
    row = {"injected": 8192, "delivered": 8192, "ok": True, **corrupt}
    assert checks.check_replay_pass(row)


@pytest.fixture(scope="module")
def real_pairs():
    """Scalar and columnar stamps from the program itself."""
    common.use_source()
    import inputs
    from worker import Replay

    spec = inputs.replay_inputs(3)
    spec["flows_per_chain"] = 32
    spec["check_packets"] = 64
    return Replay(spec).equivalence()


def test_equivalence_accepts_the_program_output(real_pairs):
    assert checks.check_equivalence(real_pairs) == []


@pytest.mark.parametrize("corrupt", [
    "stamp", "delivered", "truncate", "empty",
])
def test_equivalence_rejects_corruption(real_pairs, corrupt):
    pairs = copy.deepcopy(real_pairs)
    chain = sorted(pairs)[0]
    if corrupt == "stamp":
        pairs[chain]["columnar"][5] += 1e-9
    elif corrupt == "delivered":
        pairs[chain]["delivered_scalar"] -= 1
    elif corrupt == "truncate":
        pairs[chain]["scalar"].pop()
    else:
        pairs = {}
    assert checks.check_equivalence(pairs)


# -- fabric-chaos ------------------------------------------------------------

CLEAN_CHAOS = {"ok": True, "replans": 3, "infeasible_replans": 0,
               "dropped_events": [], "render_sha": "abc"}


def test_chaos_run_accepts_a_clean_run():
    assert checks.check_chaos_run(CLEAN_CHAOS, "abc") == []


@pytest.mark.parametrize("corrupt", [
    {"ok": False},
    {"replans": 2, "infeasible_replans": 2},
    {"replans": 0},
    {"dropped_events": ["r9: at=1 fail r9.server0"]},
    {"render_sha": "abd"},
])
def test_chaos_run_rejects_corruption(corrupt):
    assert checks.check_chaos_run({**CLEAN_CHAOS, **corrupt}, "abc")


# -- serve-churn -------------------------------------------------------------


def test_serve_ack_accepts_applied_and_rejected():
    assert checks.check_serve_ack(200, {"status": "applied"}) == []
    assert checks.check_serve_ack(409, {"status": "rejected"}) == []


@pytest.mark.parametrize("status,body", [
    (400, {"status": "invalid"}),
    (500, {"status": "error"}),
    (200, {"status": "rejected"}),
    (409, {"status": "applied"}),
])
def test_serve_ack_rejects_failures(status, body):
    assert checks.check_serve_ack(status, body)


def test_digest_check():
    assert checks.check_digests("x", "d" * 64, "d" * 64) == []
    assert checks.check_digests("x", "d" * 63 + "e", "d" * 64)
    assert checks.check_digests("x", "", "")


def test_rejection_path_must_run():
    assert checks.check_rejections_seen([200, 409, 200]) == []
    assert checks.check_rejections_seen([200, 200])


def test_counts_must_repeat():
    run = {"core.solve_calls": 34.0, "core.lp_solves": 42.0}
    assert checks.check_counts_repeat([run, dict(run)]) == []
    assert checks.check_counts_repeat([run, {**run, "core.lp_solves": 43.0}])
    assert checks.check_counts_repeat([])


# -- tracing -----------------------------------------------------------------


def _span(sid, layer, start, end):
    span = Span(sid, layer, layer, start, None, None, 0)
    span.end = end
    return span


def test_self_times_add_up_to_the_wall():
    spans = [
        _span(1, "bench", 1.0, 9.0),
        _span(2, "core", 2.0, 5.0),
        _span(3, "p4c", 3.0, 4.0),
        _span(4, "sim.runtime", 6.0, 8.5),
    ]
    layers, unattributed = attribute(spans, 0.0, 10.0)
    assert layers == pytest.approx(
        {"bench": 2.5, "core": 2.0, "p4c": 1.0, "sim.runtime": 2.5})
    assert unattributed == pytest.approx(2.0)
    assert sum(layers.values()) + unattributed == pytest.approx(10.0)


def test_tracer_records_parent_and_request_id(tmp_path):
    tracer = Tracer()

    class Box:
        def work(self):
            with tracer.span("inner", "core"):
                return 7

    tracer.wrap(Box, "work", "outer", "bench")
    tracer.rid = 12
    assert Box().work() == 7
    outer, inner = tracer.spans
    assert inner.parent == outer.id and inner.rid == 12
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path), outer.start, {})
    import json

    events = json.loads(path.read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]


# -- statistics and comparison -----------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert common.tail_percentile(1000) == 99
    assert common.tail_percentile(100) == 90
    assert common.tail_percentile(99) == 75
    assert common.tail_percentile(20) == 50


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0]
    assert verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    assert verdict(parent, [v * 0.9 for v in parent], "lower", 0.1) == \
        "improved"
    assert verdict(parent, [v * 0.95 for v in parent], "higher", 0.1) == \
        "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(parent, noisy, "lower", 0.1) == "unresolved"
