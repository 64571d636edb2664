"""Tests for the synthesis-as-a-service layer: the ``repro serve`` HTTP
coordinator, the ``backend="http"`` sweep executor, the ``repro worker
--url`` network worker loop, and the :class:`RemoteCache` tier.

The coordinator's lease/retry/quarantine state machine is unit-tested
directly with an injected clock (no sleeping, no sockets); the end-to-end
parity tests then run a real asyncio coordinator with real worker threads
and assert the merged sweep is *bit-identical* to the serial backend —
including under injected network faults.  Worker-crash chaos
(``os._exit``) is deliberately NOT exercised here: killing the test
process is the CI ``service`` job's business, which drives it through
real subprocesses.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import re
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.flow import (
    ArtifactCache,
    CoordinatorHandle,
    FaultPlan,
    FaultRule,
    FlowConfig,
    HttpExecutor,
    QueueExecutor,
    RemoteCache,
    RetryPolicy,
    Sweep,
    run_http_worker,
    run_worker,
    set_active_plan,
)
from repro.flow.backends.queue import payload_digest
from repro.flow.net import NET_SCHEMA
from repro.flow.pipeline import stage_keys
from repro.flow.sweep import leader_first
from repro.fsm import load_benchmark
from repro.flow.net.coordinator import Coordinator, free_port
from repro.flow.net.protocol import (
    CoordinatorError,
    IntegrityError,
    NotFoundError,
    TransportError,
    _parse_response,
    check_schema,
    close_connections,
    request,
    request_with_retry,
    signed_body,
    site_label,
    split_netloc,
)
from repro.reporting import cache_hit_rate, cache_stats_rows, sweep_executor_rows

NAMES = ["dk512", "ex4"]


def normalized(sweep_dict: dict) -> dict:
    """Strip timing/worker metadata; the rest must be bit-identical."""
    data = json.loads(json.dumps(sweep_dict))
    for key in ("total_seconds", "executor", "cache_stats"):
        data.pop(key, None)
    for result in data["results"]:
        result.pop("total_seconds", None)
        for stage in result["stages"]:
            stage.pop("seconds", None)
            stage.pop("cached", None)
    for baseline in data.get("baselines", {}).values():
        for key in ("seconds", "lookup_seconds", "cached"):
            baseline.pop(key, None)
    return data


def start_worker_thread(url: str, worker_id: str, box: dict = None,
                        **kwargs) -> threading.Thread:
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("max_idle", 60.0)

    def run():
        stats = run_http_worker(url, worker_id=worker_id, **kwargs)
        if box is not None:
            box[worker_id] = stats

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def serial_sweep():
    return Sweep(NAMES, structures=("PST",), random_trials=2).run()


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    set_active_plan(None)


# ------------------------------------------------------------- protocol


class TestProtocol:
    def test_site_label_and_netloc(self):
        assert site_label("POST", "/api/v1/claim") == "POST /api/v1/claim"
        assert split_netloc("http://coord.example:9999/api") == ("coord.example", 9999)
        assert split_netloc("coord.example") == ("coord.example", 8520)

    def test_signed_body_roundtrip(self):
        raw = signed_body({"cell": "a", "n": 1})
        payload = _parse_response(raw)
        assert payload["cell"] == "a" and payload["n"] == 1

    def test_tampered_body_is_an_integrity_error(self):
        raw = signed_body({"cell": "a"}).replace(b'"a"', b'"b"')
        with pytest.raises(IntegrityError, match="sha256"):
            _parse_response(raw)
        with pytest.raises(IntegrityError, match="unparseable"):
            _parse_response(b'{"torn": ')
        with pytest.raises(IntegrityError, match="not a JSON object"):
            _parse_response(b"[1, 2]")

    def test_coordinator_reply_is_encoded_once_and_verifies(self):
        """A reply's body is its canonical encoding with the signature
        spliced in: it verifies, and one flipped byte fails the check."""
        with CoordinatorHandle(port=0) as handle:
            conn = http.client.HTTPConnection(*split_netloc(handle.url), timeout=5.0)
            conn.request("GET", "/api/v1/health")
            raw = conn.getresponse().read()
            conn.close()
        payload = _parse_response(raw)
        assert payload["ok"] is True
        assert raw == signed_body({"schema": NET_SCHEMA, "ok": True})
        assert payload["sha256"] == payload_digest(payload)
        at = raw.index(NET_SCHEMA.encode()) + len(NET_SCHEMA) - 1  # the "1" of /1
        flipped = raw[:at] + b"2" + raw[at + 1:]
        with pytest.raises(IntegrityError, match="sha256"):
            _parse_response(flipped)

    def test_check_schema(self):
        check_schema({"schema": NET_SCHEMA})
        check_schema({})  # absent schema reads as current
        with pytest.raises(CoordinatorError, match="repro.net/999"):
            check_schema({"schema": "repro.net/999"})

    def test_unreachable_coordinator_is_a_transport_error(self):
        url = f"http://127.0.0.1:{free_port()}/api/v1/stats"
        with pytest.raises(CoordinatorError):
            request(url, timeout=0.5)
        started = time.monotonic()
        with pytest.raises(CoordinatorError):
            request_with_retry(url, timeout=0.5, tries=2, backoff_base=0.01)
        assert time.monotonic() - started < 5.0

    def test_retry_validation(self):
        with pytest.raises(ValueError, match="tries"):
            request_with_retry("http://127.0.0.1:1/", tries=0)


# --------------------------------------------- coordinator state machine


def make_coordinator(now, **kwargs):
    kwargs.setdefault("lease_timeout", 5.0)
    return Coordinator(clock=lambda: now[0], **kwargs)


def submit(coord, cells=("a", "b"), run_id="r", max_attempts=3,
           backoff_base=0.01, lease_timeout=5.0):
    retry = RetryPolicy(max_attempts=max_attempts, backoff_base=backoff_base)
    status, body = coord._handle_submit({
        "schema": NET_SCHEMA,
        "run": run_id,
        "tasks": [{"cell": name, "kind": "flow", "name": "m"} for name in cells],
        "retry": retry.to_dict(),
        "lease_timeout": lease_timeout,
    })
    assert status == 200 and body["cells"] == len(cells)
    return retry


def ok_outcome(cid, worker):
    return {"kind": "flow", "cell": cid, "result": {"value": cid},
            "worker": worker, "cache_stats": None}


def err_outcome(cid, worker, message):
    return {"kind": "flow", "cell": cid, "result": None, "worker": worker,
            "cache_stats": None,
            "error": {"type": "ChaosStageError", "message": message,
                      "traceback": "tb"}}


class TestCoordinatorStateMachine:
    def test_submit_claim_complete_in_submission_order(self):
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a", "b"))
        # Claims hand out cells in submission order.
        _, first = coord._handle_claim({"worker": "w1"})
        _, second = coord._handle_claim({"worker": "w2"})
        assert (first["cell"], second["cell"]) == ("r-a", "r-b")
        assert first["attempt"] == 1 and first["stop"] is False
        # Completion out of order; outcomes still merge in submission order.
        coord._handle_result("r-b", {"worker": "w2",
                                     "outcome": ok_outcome("r-b", "w2")})
        coord._handle_result("r-a", {"worker": "w1",
                                     "outcome": ok_outcome("r-a", "w1")})
        status, body = coord._handle_run_status("r")
        assert status == 200 and body["status"] == "complete"
        assert [o["cell"] for o in body["outcomes"]] == ["r-a", "r-b"]
        assert body["workers_seen"] == ["w1", "w2"]
        assert body["quarantined"] == []
        # Delete frees the cell index for reuse.
        assert coord._handle_run_delete("r")[0] == 200
        assert coord._handle_run_status("r")[0] == 404

    def test_submission_is_idempotent_and_rejects_duplicates(self):
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a",))
        submit(coord, cells=("a",))  # client retry of a dropped response
        assert coord._totals["runs_submitted"] == 1
        status, body = coord._handle_submit({
            "run": "r2", "tasks": [{"cell": "x"}, {"cell": "x"}]})
        assert status == 400 and "duplicate" in body["error"]
        status, body = coord._handle_submit({
            "schema": "repro.net/999", "run": "r3", "tasks": [{"cell": "y"}]})
        assert status == 400 and "schema" in body["error"]

    def test_lease_expiry_requeues_and_stale_upload_is_abandoned(self):
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a",), lease_timeout=5.0)
        coord._handle_claim({"worker": "w1"})
        now[0] = 6.0  # past the lease window
        coord._tick()
        status, body = coord._handle_run_status("r")
        assert body["counters"]["requeues"] == 1
        # The requeued cell is claimable again with a bumped attempt.
        _, claim = coord._handle_claim({"worker": "w2"})
        assert claim["cell"] == "r-a" and claim["attempt"] == 2
        # The original worker's late upload must be abandoned, not merged.
        _, resp = coord._handle_result(
            "r-a", {"worker": "w1", "outcome": ok_outcome("r-a", "w1")})
        assert resp == {"accepted": False, "reason": "stale-lease"}
        _, resp = coord._handle_result(
            "r-a", {"worker": "w2", "outcome": ok_outcome("r-a", "w2")})
        assert resp["accepted"] is True
        _, body = coord._handle_run_status("r")
        assert body["status"] == "complete"
        assert body["outcomes"][0]["worker"] == "w2"

    def test_heartbeat_renews_lease_and_reports_loss(self):
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a",), lease_timeout=5.0)
        coord._handle_claim({"worker": "w1"})
        now[0] = 4.0
        _, beat = coord._handle_heartbeat({"worker": "w1", "cell": "r-a"})
        assert beat == {"ok": True}
        now[0] = 8.0  # inside the renewed window, past the original
        coord._tick()
        _, body = coord._handle_run_status("r")
        assert body["counters"]["requeues"] == 0
        now[0] = 20.0
        coord._tick()
        _, beat = coord._handle_heartbeat({"worker": "w1", "cell": "r-a"})
        assert beat == {"ok": False, "reason": "lease-lost"}
        _, beat = coord._handle_heartbeat({"worker": "w1", "cell": "nope"})
        assert beat == {"ok": False, "reason": "unknown-cell"}

    def test_deterministic_error_quarantines_after_two_attempts(self):
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a", "b"), max_attempts=5, backoff_base=0.01)
        for attempt in (1, 2):
            _, claim = coord._handle_claim({"worker": "w1"})
            assert claim["cell"] == "r-a" and claim["attempt"] == attempt
            coord._handle_result("r-a", {
                "worker": "w1",
                "outcome": err_outcome("r-a", "w1", "minimize exploded")})
            now[0] += 1.0
            coord._tick()  # serve the backoff (first iteration only)
        _, body = coord._handle_run_status("r")
        assert body["cells"]["failed"] == 1
        # Healthy sibling still completes: partial, not empty.
        _, claim = coord._handle_claim({"worker": "w1"})
        assert claim["cell"] == "r-b"
        coord._handle_result("r-b", {"worker": "w1",
                                     "outcome": ok_outcome("r-b", "w1")})
        _, body = coord._handle_run_status("r")
        assert body["status"] == "partial"
        assert body["quarantined"] == ["r-a"]
        failed = body["outcomes"][0]
        assert failed["quarantine_reason"] == "deterministic"
        assert failed["attempts"] == 2
        assert failed["quarantined"] == "coordinator:r/r-a"
        assert [e["type"] for e in failed["error_attempts"]] == (
            ["ChaosStageError"] * 2)

    def test_changing_errors_exhaust_max_attempts(self):
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a",), max_attempts=3, backoff_base=0.01)
        for attempt in (1, 2, 3):
            coord._handle_claim({"worker": "w1"})
            coord._handle_result("r-a", {
                "worker": "w1",
                "outcome": err_outcome("r-a", "w1", f"flake {attempt}")})
            now[0] += 1.0
            coord._tick()
        _, body = coord._handle_run_status("r")
        assert body["status"] == "partial"
        failed = body["outcomes"][0]
        assert failed["quarantine_reason"] == "exhausted"
        assert failed["attempts"] == 3
        assert body["counters"]["retries"] == 2

    def test_runaway_requeues_hit_the_hard_cap(self):
        now = [0.0]
        coord = make_coordinator(now)
        retry = submit(coord, cells=("a",), max_attempts=2, lease_timeout=1.0)
        hard_cap = retry.max_attempts * 4
        for _ in range(hard_cap + 1):
            _, claim = coord._handle_claim({"worker": "w1"})
            if claim["cell"] is None:
                break
            now[0] += 2.0  # every lease expires without an upload
            coord._tick()
        _, body = coord._handle_run_status("r")
        assert body["status"] == "partial"
        failed = body["outcomes"][0]
        assert failed["quarantine_reason"] == "runaway"
        assert failed["error"]["type"] == "QueueRunawayError"
        assert body["counters"]["requeues"] == hard_cap

    def test_corrupt_result_backs_off_then_resubmits(self):
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a",), backoff_base=0.5)
        coord._handle_claim({"worker": "w1"})
        status, body = coord._handle_result("r-a", None)
        assert status == 400 and body["accepted"] is False
        status, body = coord._handle_result(
            "r-a", {"worker": "w1", "outcome": "torn string"})
        assert status == 400  # claimed no longer; recovery already fired
        _, body = coord._handle_run_status("r")
        assert body["counters"]["corrupt_results"] == 1
        assert body["cells"]["backoff"] == 1
        # Not claimable until the backoff elapses.
        _, claim = coord._handle_claim({"worker": "w1"})
        assert claim["cell"] is None
        now[0] = 1.0
        coord._tick()
        _, claim = coord._handle_claim({"worker": "w1"})
        assert claim["cell"] == "r-a" and claim["attempt"] == 2

    def test_requests_do_not_scan_leases(self):
        """Lease expiry is the sweeper's job: a request costs no O(cells) scan."""
        now = [0.0]
        coord = make_coordinator(now)
        submit(coord, cells=("a",), lease_timeout=5.0)
        coord._handle_claim({"worker": "w1"})
        now[0] = 6.0  # past the lease window
        assert coord._dispatch("GET", "/api/v1/stats", {}, None)[0] == 200
        _, body = coord._handle_run_status("r")
        assert body["cells"]["claimed"] == 1 and body["counters"]["requeues"] == 0
        coord._tick()
        _, body = coord._handle_run_status("r")
        assert body["cells"]["pending"] == 1 and body["counters"]["requeues"] == 1

    def test_unknown_cell_result_is_rejected(self):
        coord = make_coordinator([0.0])
        _, resp = coord._handle_result("ghost", {"worker": "w",
                                                 "outcome": {"cell": "ghost"}})
        assert resp == {"accepted": False, "reason": "unknown-cell"}

    def test_stop_answers_every_claim(self):
        coord = make_coordinator([0.0])
        submit(coord, cells=("a",))
        assert coord._handle_stop()[1] == {"stopping": True}
        _, claim = coord._handle_claim({"worker": "w1"})
        assert claim == {"cell": None, "stop": True}
        _, reg = coord._handle_register({"worker": "w2"}, leaving=False)
        assert reg["stop"] is True

    def test_cache_endpoints_and_stats(self, tmp_path):
        now = [0.0]
        coord = make_coordinator(now, cache_dir=tmp_path / "cache")
        key = "ab" + "0" * 62
        assert coord._handle_cache({"get": [key]}) == (200, {"found": {}})
        # Puts land before gets: one exchange can push and read a key.
        status, body = coord._handle_cache(
            {"put": {key: {"x": 1}}, "get": [key]})
        assert status == 200 and body == {"found": {key: {"x": 1}}}
        # A malformed put is counted, never stored; its siblings land.
        other = "cd" + "0" * 62
        status, body = coord._handle_cache(
            {"put": {key: [1], other: {"y": 2}, "../escape": {"z": 3}}})
        assert status == 200
        assert coord._handle_cache({"get": [other, "../escape"]})[1] == {
            "found": {other: {"y": 2}}}
        # A body that failed its signature, or of the wrong shape, is a
        # counted corrupt exchange.
        assert coord._handle_cache(None)[0] == 400
        assert coord._handle_cache({"put": [key]})[0] == 400
        status, stats = coord._handle_stats()
        assert status == 200 and stats["schema"] == NET_SCHEMA
        counters = stats["counters"]
        assert counters["cache_gets"] == 3 and counters["cache_puts"] == 2
        assert counters["corrupt_cache_puts"] == 4
        assert stats["cache"]["hit_rate"] == round(2 / 3, 4)
        assert stats["cache"]["root"] == str(tmp_path / "cache")

    def test_cacheless_coordinator_404s_the_cache_api(self):
        coord = make_coordinator([0.0])
        assert coord._handle_cache({"get": ["k"]})[0] == 404
        assert coord._handle_cache({"put": {"k": {}}})[0] == 404


# ------------------------------------------------- persistent connections


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


class TestPersistentConnections:
    def test_requests_share_one_connection(self):
        with CoordinatorHandle(port=0) as handle:
            for _ in range(5):
                assert request(f"{handle.url}/api/v1/health", timeout=5.0)["ok"]
            totals = handle.coordinator._totals
            assert totals["requests"] == 5 and totals["connections"] == 1
            stats = request(f"{handle.url}/api/v1/stats", timeout=5.0)
            assert stats["counters"]["requests"] == 5
            assert stats["counters"]["connections"] == 1
        close_connections()

    def test_dropped_idle_connection_reconnects_transparently(self):
        with CoordinatorHandle(port=0) as handle:
            url = handle.url
            coord = handle.coordinator
            request(f"{url}/api/v1/health", timeout=5.0)
            _wait_for(lambda: len(coord._idle) == 1)
            # The coordinator drops the idle keep-alive connection.
            handle._loop.call_soon_threadsafe(
                lambda: [writer.close() for writer in list(coord._idle)])
            _wait_for(lambda: not coord._connections)
            assert request(f"{url}/api/v1/health", timeout=5.0)["ok"] is True
            assert coord._totals["connections"] == 2
            assert coord._totals["requests"] == 2
        close_connections()

    def test_forked_child_opens_its_own_connection(self):
        import multiprocessing

        with CoordinatorHandle(port=0) as handle:
            url = handle.url
            request(f"{url}/api/v1/health", timeout=5.0)
            child = multiprocessing.get_context("fork").Process(
                target=request, args=(f"{url}/api/v1/health",), kwargs={"timeout": 5.0})
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            # The parent's connection is intact and still its own.
            assert request(f"{url}/api/v1/health", timeout=5.0)["ok"] is True
            totals = handle.coordinator._totals
            assert totals["requests"] == 3 and totals["connections"] == 2
        close_connections()

    def test_connection_close_clients_get_answers(self):
        """``urllib`` sends ``Connection: close``; each request is answered
        and the connection then ends."""
        with CoordinatorHandle(port=0) as handle:
            for _ in range(2):
                with urllib.request.urlopen(f"{handle.url}/api/v1/health",
                                            timeout=5) as response:
                    assert response.headers["Connection"] == "close"
                    assert json.loads(response.read())["ok"] is True
            totals = handle.coordinator._totals
            assert totals["requests"] == 2 and totals["connections"] == 2
            _wait_for(lambda: not handle.coordinator._connections)

    def test_stopping_a_handle_closes_open_connections_cleanly(self, caplog):
        caplog.set_level(logging.DEBUG, logger="asyncio")
        handle = CoordinatorHandle(port=0).start()
        url = handle.url
        clients = [http.client.HTTPConnection(url.split("://")[1], timeout=5)
                   for _ in range(2)]
        for client in clients:
            client.request("GET", "/api/v1/health")
            assert json.loads(client.getresponse().read())["ok"] is True
        request(f"{url}/api/v1/health", timeout=5.0)
        _wait_for(lambda: len(handle.coordinator._idle) == 3)
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 5.0
        assert not handle._thread.is_alive()
        assert not handle.coordinator._connections
        for client in clients:
            assert client.sock.recv(1) == b""  # closed by the coordinator
            client.close()
        # The pooled connection is stale and the coordinator gone: the one
        # reconnect fails, as a TransportError.
        with pytest.raises(TransportError):
            request(f"{url}/api/v1/health", timeout=2.0)
        noise = [record.getMessage() for record in caplog.records
                 if record.levelno >= logging.WARNING
                 or "Cancelled" in record.getMessage()]
        assert noise == []

    def test_shutdown_ends_every_handler_and_finishes_busy_replies(self):
        set_active_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind="net-slow", match="GET /api/v1/stats",
                      seconds=0.2, attempts=()),
        )))

        async def exchange(coord, path):
            reader, writer = await asyncio.open_connection(coord.host, coord.port)
            writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            await writer.drain()
            return reader, writer

        async def read_reply(reader):
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            return head, json.loads(await reader.readexactly(length))

        async def scenario():
            coord = Coordinator(port=0)
            await coord.start()
            idle_reader, idle_writer = await exchange(coord, "/api/v1/health")
            head, _ = await read_reply(idle_reader)
            assert b"Connection: keep-alive" in head
            busy_reader, busy_writer = await exchange(coord, "/api/v1/stats")
            for _ in range(500):
                if len(coord._idle) == 1 and len(coord._connections) == 2:
                    break
                await asyncio.sleep(0.01)
            await coord.shutdown()
            leftover = [task for task in asyncio.all_tasks()
                        if task is not asyncio.current_task()]
            assert leftover == [] and not coord._connections
            # The busy connection got its answer, then the close.
            head, payload = await read_reply(busy_reader)
            assert b"Connection: close" in head and payload["schema"] == NET_SCHEMA
            assert await busy_reader.read() == b""
            assert await idle_reader.read() == b""
            for writer in (idle_writer, busy_writer):
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())


# --------------------------------------------------------- http parity


class TestHttpSweepParity:
    def test_two_workers_match_serial_bit_for_bit(self, serial_sweep, tmp_path):
        box = {}
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord-cache") as handle:
            url = handle.url
            threads = [start_worker_thread(url, f"w{i}", box, drain=False)
                       for i in range(2)]
            result = Sweep(
                NAMES, structures=("PST",), random_trials=2,
                backend="http", coordinator_url=url, queue_timeout=120,
            ).run()
            request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
            for thread in threads:
                thread.join(timeout=30)
        assert result.status == "complete"
        assert normalized(result.to_dict()) == normalized(serial_sweep.to_dict())
        executor = result.executor
        assert executor["backend"] == "http"
        assert executor["workers"] == 2
        assert sorted(executor["workers_seen"]) == ["w0", "w1"]
        assert all(stats.stopped_by == "stop" for stats in box.values())
        assert sum(stats.cells for stats in box.values()) == len(
            Sweep(NAMES, structures=("PST",), random_trials=2).cells())

    def test_network_faults_recover_to_bit_identical_parity(
            self, serial_sweep, tmp_path):
        set_active_plan(FaultPlan(seed=7, rules=(
            FaultRule(kind="net-drop", match="POST /api/v1/claim",
                      attempts=(1,)),
            FaultRule(kind="net-5xx", match="POST /api/v1/results",
                      attempts=(1,)),
            FaultRule(kind="net-corrupt", match="GET /api/v1/runs/*",
                      attempts=(1,)),
            FaultRule(kind="net-slow", match="POST /api/v1/heartbeat",
                      seconds=0.05, attempts=(1,)),
        )))
        with CoordinatorHandle(port=0) as handle:
            url = handle.url
            threads = [start_worker_thread(url, f"w{i}") for i in range(2)]
            result = Sweep(
                NAMES, structures=("PST",), random_trials=2,
                backend="http", coordinator_url=url, queue_timeout=120,
            ).run()
            request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
            for thread in threads:
                thread.join(timeout=30)
        assert result.status == "complete"
        assert normalized(result.to_dict()) == normalized(serial_sweep.to_dict())

    def test_second_run_serves_everything_from_the_remote_tier(self, tmp_path):
        """A fresh client against a warm coordinator recomputes nothing."""
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord-cache") as handle:
            url = handle.url
            threads = [
                start_worker_thread(url, f"warm{i}",
                                    cache_dir=tmp_path / f"warm{i}")
                for i in range(2)
            ]
            kwargs = dict(structures=("PST",), random_trials=2,
                          backend="http", coordinator_url=url, queue_timeout=120)
            first = Sweep(NAMES, cache=ArtifactCache(tmp_path / "c1"),
                          **kwargs).run()
            second = Sweep(NAMES, cache=ArtifactCache(tmp_path / "c2"),
                           **kwargs).run()
            request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
            for thread in threads:
                thread.join(timeout=30)
        assert normalized(first.to_dict()) == normalized(second.to_dict())
        assert second.all_cached
        assert second.uncached_seconds == 0.0
        assert second.cache_stats["misses"] == 0

    def test_worker_cache_dirs_fill_the_coordinator_tier_without_a_client_cache(
            self, tmp_path):
        """Workers' --cache-dir writes through even when the client has none.

        The second pass runs on fresh workers with empty local tiers, so
        every hit must come from the coordinator; its read-through
        populates are reads, not writes.
        """
        coord_dir = tmp_path / "coord-cache"
        passes = []
        for name in ("cold", "warm"):
            # One coordinator per pass over the same --cache-dir, so the
            # first pass's workers cannot serve the second pass's cells.
            with CoordinatorHandle(port=0, cache_dir=coord_dir) as handle:
                url = handle.url
                threads = [
                    start_worker_thread(url, f"{name}{i}",
                                        cache_dir=tmp_path / f"{name}{i}")
                    for i in range(2)
                ]
                passes.append(Sweep(NAMES, structures=("PST",),
                                    coordinator_url=url,
                                    queue_timeout=120).run())
                request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
            if name == "cold":
                stored = len(ArtifactCache(coord_dir))
        cold, warm = passes
        assert stored > 0
        assert normalized(cold.to_dict()) == normalized(warm.to_dict())
        assert not any(stage["cached"] for result in cold.to_dict()["results"]
                       for stage in result["stages"])
        assert warm.all_cached
        assert warm.uncached_seconds == 0.0
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] > 0
        assert warm.cache_stats["writes"] == 0

    def test_poison_cell_degrades_to_partial_with_quarantine(self, tmp_path):
        set_active_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                      stage="minimize", attempts=()),
        )))
        with CoordinatorHandle(port=0) as handle:
            url = handle.url
            thread = start_worker_thread(url, "w0")
            result = Sweep(
                NAMES, structures=("PST",), random_trials=2, strict=False,
                backend="http", coordinator_url=url, queue_timeout=120,
                max_attempts=3, retry_backoff=0.01,
            ).run()
            request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
            thread.join(timeout=30)
        assert result.status == "partial"
        assert len(result.failed_cells) == 1
        failed = result.failed_cells[0]
        assert (failed["fsm"], failed["structure"]) == ("dk512", "PST")
        # Two identical error records classify the fault as deterministic.
        assert failed["attempts"] == 2
        assert failed["quarantined"].startswith("coordinator:")
        assert [e["type"] for e in failed["errors"]] == ["ChaosStageError"] * 2
        assert {r.fsm for r in result.results} == {"ex4"}

    def test_strict_mode_raises_with_attempt_count(self, tmp_path):
        set_active_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind="stage-error", match="flow:dk512:PST:0",
                      stage="minimize", attempts=()),
        )))
        with CoordinatorHandle(port=0) as handle:
            url = handle.url
            thread = start_worker_thread(url, "w0")
            try:
                with pytest.raises(RuntimeError, match=r"after 2 attempt\(s\)"):
                    Sweep(
                        ["dk512"], structures=("PST",), random_trials=2,
                        backend="http", coordinator_url=url, queue_timeout=120,
                        retry_backoff=0.01,
                    ).run()
            finally:
                request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
                thread.join(timeout=30)

    def test_timeout_names_pending_cells_and_attempts(self):
        with CoordinatorHandle(port=0) as handle:  # no workers at all
            executor = HttpExecutor(handle.url, timeout=0.4, poll_interval=0.05)
            with pytest.raises(TimeoutError) as excinfo:
                executor.execute([{"cell": "00000-flow-x", "kind": "flow"}])
        message = str(excinfo.value)
        assert "1 unfinished cell(s)" in message
        assert "00000-flow-x [pending, attempt 1]" in message

    def test_empty_task_list_never_touches_the_network(self):
        report = HttpExecutor("http://127.0.0.1:1").execute([])
        assert report.outcomes == [] and report.workers == 0


# ------------------------------------------------- leader-first dispatch


def _cell_label(task: dict) -> tuple:
    if task["kind"] == "baseline":
        return ("baseline", task["name"])
    return (task["name"], task["config"]["structure"], task["config"]["seed"])


class TestLeaderFirstDispatch:
    def test_leaders_of_every_assign_family_go_first(self, tmp_path):
        config = FlowConfig(fault_patterns=64)
        sweep = Sweep(["dk512", "ex4"], structures=("DFF", "SIG", "PST"),
                      seeds=(1, 2), config=config, random_trials=2,
                      cache=tmp_path / "cache")
        fsms = {fsm.name: fsm for fsm in sweep.fsms}
        tasks = sweep.cells()
        # DFF cells share one assign artifact across seeds; the SIG and PST
        # cells of one seed share another.  Baselines lead on their own.
        leaders = [("baseline", "dk512"), ("dk512", "DFF", 1), ("dk512", "SIG", 1),
                   ("dk512", "SIG", 2), ("baseline", "ex4"), ("ex4", "DFF", 1),
                   ("ex4", "SIG", 1), ("ex4", "SIG", 2)]
        rest = [(name, structure, seed) for name in ("dk512", "ex4")
                for structure, seed in (("PST", 1), ("DFF", 2), ("PST", 2))]
        ordered = leader_first(tasks, fsms)
        assert [_cell_label(task) for task in ordered] == leaders + rest
        assert sorted(task["cell"] for task in ordered) == [task["cell"] for task in tasks]

    def test_unparseable_cell_keeps_its_place_among_the_leaders(self):
        sweep = Sweep(["dk512"], structures=("PST", "SIG"))
        tasks = sweep.cells()
        tasks[1]["config"]["structure"] = "BOGUS"
        fsms = {fsm.name: fsm for fsm in sweep.fsms}
        assert leader_first(tasks, fsms) == tasks

    def test_two_workers_compute_each_assign_artifact_once(self, tmp_path):
        seeds = (1, 2, 3, 4)
        structures = ("DFF", "PAT", "SIG", "PST")
        serial = Sweep(["dk512"], structures=structures, seeds=seeds).run()
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            threads = [start_worker_thread(url, f"w{i}", cache_dir=tmp_path / f"w{i}")
                       for i in range(2)]
            result = Sweep(["dk512"], structures=structures, seeds=seeds,
                           coordinator_url=url, queue_timeout=120).run()
            request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
            for thread in threads:
                thread.join(timeout=30)
        assert result.status == "complete"
        assert normalized(result.to_dict()) == normalized(serial.to_dict())
        assert ([cell["cell"] for cell in result.executor["cells"]]
                == [cell["cell"] for cell in serial.executor["cells"]])

        fsm = load_benchmark("dk512")
        computed = [
            stage_keys(fsm, FlowConfig.from_dict(cell.config))["assign"]
            for cell in result.results if not cell.stage("assign").cached
        ]
        families = {stage_keys(fsm, FlowConfig.from_dict(cell.config))["assign"]
                    for cell in result.results}
        assert len(families) == 2 + len(seeds)  # DFF, PAT, one MISR key per seed
        assert sorted(computed) == sorted(families)
        assert result.cache_stats["writes"] == len(ArtifactCache(tmp_path / "coord"))


# ----------------------------------------------------- worker lifecycle


class TestWorkerLifecycle:
    def test_http_worker_drain_and_max_cells(self, tmp_path):
        with CoordinatorHandle(port=0) as handle:
            url = handle.url
            # Drain with an empty coordinator: immediate graceful exit.
            stats = run_http_worker(url, worker_id="idle", drain=True,
                                    poll_interval=0.02)
            assert stats.stopped_by == "drained" and stats.cells == 0

            box = {}
            client = threading.Thread(
                target=lambda: box.setdefault("result", Sweep(
                    NAMES, structures=("PST",), random_trials=2,
                    backend="http", coordinator_url=url, queue_timeout=120,
                ).run()),
                daemon=True,
            )
            client.start()
            # A capped worker finishes exactly one cell, then exits.
            capped = run_http_worker(url, worker_id="capped", max_cells=1,
                                     poll_interval=0.02, max_idle=60.0)
            assert capped.stopped_by == "max-cells" and capped.cells == 1
            # A draining worker sweeps up the rest and exits on empty.
            finisher = run_http_worker(url, worker_id="finisher", drain=True,
                                       poll_interval=0.02, max_idle=60.0)
            assert finisher.stopped_by == "drained"
            client.join(timeout=120)
        result = box["result"]
        assert result.status == "complete"
        assert finisher.cells == len(Sweep(
            NAMES, structures=("PST",), random_trials=2).cells()) - 1

    def test_http_worker_stop_signal(self):
        with CoordinatorHandle(port=0) as handle:
            url = handle.url
            request_with_retry(f"{url}/api/v1/stop", "POST", tries=3)
            stats = run_http_worker(url, worker_id="w0", poll_interval=0.02)
        assert stats.stopped_by == "stop"

    def test_http_worker_unreachable_coordinator(self):
        stats = run_http_worker(f"http://127.0.0.1:{free_port()}",
                                worker_id="w0")
        assert stats.stopped_by == "coordinator-unreachable"
        assert stats.cells == 0

    def test_queue_worker_max_cells(self, tmp_path):
        queue_dir = tmp_path / "queue"
        box = {}
        client = threading.Thread(
            target=lambda: box.setdefault("result", Sweep(
                NAMES, structures=("PST",), random_trials=2,
                backend=QueueExecutor(queue_dir, lease_timeout=10.0,
                                      poll_interval=0.02, timeout=120),
            ).run()),
            daemon=True,
        )
        client.start()
        capped = run_worker(queue_dir=queue_dir, worker_id="capped",
                            poll_interval=0.02, max_idle=60.0, max_cells=2)
        assert capped.stopped_by == "max-cells" and capped.cells == 2
        finisher = run_worker(queue_dir=queue_dir, worker_id="finisher",
                              poll_interval=0.02, max_idle=60.0, once=True)
        client.join(timeout=120)
        assert box["result"].status == "complete"
        assert capped.cells + finisher.cells == len(Sweep(
            NAMES, structures=("PST",), random_trials=2).cells())


# --------------------------------------------------------- remote cache


class TestRemoteCache:
    KEY = "ab" + "1" * 62

    def test_read_through_populates_the_local_tier(self, tmp_path):
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            writer = RemoteCache(url, tmp_path / "writer")
            writer.put(self.KEY, {"stage": "minimize", "v": 1})
            assert writer.flush() == 1
            reader = RemoteCache(url, tmp_path / "reader")
            assert reader.get(self.KEY) == {"stage": "minimize", "v": 1}
            assert reader.remote_hits == 1 and reader.hits == 1
            # Second lookup is a purely local hit.
            assert reader.get(self.KEY) == {"stage": "minimize", "v": 1}
            assert reader.remote_hits == 1 and reader.hits == 2
            # A key nobody wrote misses both tiers.
            assert reader.get("cd" + "2" * 62) is None
            assert reader.remote_misses == 1 and reader.misses == 1
            stats = reader.stats
            assert stats["remote_hits"] == 1 and stats["remote_misses"] == 1

    def test_read_through_populates_count_no_writes(self, tmp_path):
        keys = [f"{i:02d}" + "5" * 62 for i in range(3)]
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            writer = RemoteCache(url, tmp_path / "writer")
            for key in keys:
                writer.put(key, {"k": key})
            assert writer.writes == 3
            assert writer.flush() == 3
            reader = RemoteCache(url, tmp_path / "reader")
            assert reader.get(keys[0]) == {"k": keys[0]}
            assert reader.warm(keys) == 2
            assert reader.writes == 0
            assert reader.stats["writes"] == 0
            # The populated copies are real: served locally from now on.
            assert all(reader._load_local(key) is not None for key in keys)

    def test_warm_prefetches_a_batch(self, tmp_path):
        keys = [f"{i:02d}" + "3" * 62 for i in range(3)]
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            writer = RemoteCache(url, tmp_path / "writer")
            for key in keys[:2]:
                writer.put(key, {"k": key})
            writer.flush()
            reader = RemoteCache(url, tmp_path / "reader")
            assert reader.warm(keys) == 2
            assert reader._load_local(keys[0]) is not None

    def test_corrupt_download_is_a_counted_miss(self, tmp_path):
        set_active_plan(FaultPlan(seed=3, rules=(
            FaultRule(kind="net-corrupt", match="POST /api/v1/cache",
                      attempts=()),
        )))
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            writer = RemoteCache(url, tmp_path / "writer")
            writer.put(self.KEY, {"v": 1})
            # The push lands; only its (corrupted) answer is unreadable.
            writer.flush()
            reader = RemoteCache(url, tmp_path / "reader", tries=2)
            assert reader.get(self.KEY) is None
        assert reader.remote_corrupt == 1
        assert reader.misses == 1 and reader.hits == 0

    def test_unreachable_coordinator_degrades_to_local(self, tmp_path):
        cache = RemoteCache(f"http://127.0.0.1:{free_port()}",
                            tmp_path / "local", timeout=0.5, tries=1)
        cache.put(self.KEY, {"v": 2})
        assert cache.flush() == 0  # remote push fails, local write lands
        assert cache.remote_errors == 1
        assert cache.get(self.KEY) == {"v": 2}  # pure local hit, no network
        assert cache.get("cd" + "4" * 62) is None  # remote miss -> error path
        assert cache.remote_errors == 2
        assert cache.misses == 1

    def test_warm_and_flush_are_one_request_each(self, tmp_path):
        keys = [f"{i:02d}" + "6" * 62 for i in range(4)]
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            totals = handle.coordinator._totals
            writer = RemoteCache(handle.url, tmp_path / "writer")
            for key in keys[:3]:
                writer.put(key, {"k": key})
            before = totals["requests"]
            assert writer.flush() == 3
            assert totals["requests"] == before + 1
            assert totals["cache_puts"] == 3
            assert writer.flush() == 0  # an empty queue sends nothing
            reader = RemoteCache(handle.url, tmp_path / "reader")
            assert reader.warm(keys) == 3
            assert totals["requests"] == before + 2
            assert reader.remote_hits == 3 and reader.remote_misses == 1
            # Held keys are local and the absent one is remembered, so
            # nothing is asked for again.
            assert reader.warm(keys) == 0
            assert reader.get(keys[3]) is None
            assert totals["requests"] == before + 2
            assert [reader.get(key) for key in keys[:3]] == [
                {"k": key} for key in keys[:3]]
            assert reader.hits == 3 and reader.misses == 1
            assert reader.writes == 0

    def test_corrupt_batch_response_is_a_counted_miss(self, tmp_path):
        keys = [f"{i:02d}" + "7" * 62 for i in range(2)]
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            writer = RemoteCache(handle.url, tmp_path / "writer")
            for key in keys:
                writer.put(key, {"k": key})
            writer.flush()
            set_active_plan(FaultPlan(seed=5, rules=(
                FaultRule(kind="net-corrupt", match="POST /api/v1/cache",
                          attempts=()),
            )))
            reader = RemoteCache(handle.url, tmp_path / "reader", tries=2)
            assert reader.warm(keys) == 0
            assert reader.remote_corrupt == 1 and reader.remote_hits == 0
            assert all(reader._load_local(key) is None for key in keys)
            assert reader.get(keys[0]) is None
            assert reader.remote_corrupt == 2 and reader.misses == 1
            set_active_plan(None)
            # A corrupt answer is no report of absence: the keys are
            # asked for again once the wire is healthy.
            assert reader.warm(keys) == 2

    def test_coordinator_without_a_cache_tier_reads_as_absent(self, tmp_path):
        keys = [f"{i:02d}" + "9" * 62 for i in range(2)]
        with CoordinatorHandle(port=0) as handle:  # no cache_dir
            totals = handle.coordinator._totals
            cache = RemoteCache(handle.url, tmp_path / "local")
            assert cache.warm(keys) == 0
            assert cache.remote_misses == 2 and cache.remote_errors == 0
            requests = totals["requests"]
            assert cache.get(keys[0]) is None  # remembered: no second ask
            assert totals["requests"] == requests
            cache.put(keys[0], {"v": 1})
            assert cache.flush() == 0 and cache.remote_errors == 1

    def test_failed_flush_counts_an_error_and_keeps_local_artifacts(self, tmp_path):
        keys = [f"{i:02d}" + "8" * 62 for i in range(2)]
        cache = RemoteCache(f"http://127.0.0.1:{free_port()}",
                            tmp_path / "local", timeout=0.5, tries=1)
        for key in keys:
            cache.put(key, {"k": key})
        assert cache.flush() == 0
        assert cache.remote_errors == 1 and cache.writes == 2
        # Local hits never touch the (unreachable) network.
        assert [cache.get(key) for key in keys] == [{"k": key} for key in keys]
        assert cache.remote_errors == 1
        # The failed batch was dropped, not retried on the next flush.
        assert cache.flush() == 0 and cache.remote_errors == 1

    def test_run_cell_costs_one_exchange_each_way(self, tmp_path):
        from repro.flow.cells import run_cell

        task = next(cell for cell in Sweep(
            ["dk512"], structures=("PST",), config=FlowConfig(fault_patterns=256),
            cache=ArtifactCache(tmp_path / "unused"),
        ).cells() if cell["kind"] == "flow")
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            totals = handle.coordinator._totals
            cold_task = dict(task, cache_dir=str(tmp_path / "w0"), cache_url=handle.url)
            before = totals["requests"]
            cold = run_cell(cold_task, worker="w0")
            # One exchange asks for the four stage artifacts, one pushes them.
            assert totals["requests"] == before + 2
            assert totals["cache_gets"] == 4 and totals["cache_puts"] == 4
            assert cold["cache_stats"]["remote_misses"] == 4
            warm = run_cell(dict(cold_task, cache_dir=str(tmp_path / "w1")), worker="w1")
            assert totals["requests"] == before + 3
            assert warm["cache_stats"]["remote_hits"] == 4
            assert warm["cache_stats"]["misses"] == 0
            assert warm["cache_stats"]["writes"] == 0

    def test_worker_resolves_cache_url_through_remote_tier(self, tmp_path):
        """run_cell builds a RemoteCache when the task ships a cache_url."""
        from repro.flow.cells import run_cell

        task = Sweep(NAMES, structures=("PST",),
                     cache=ArtifactCache(tmp_path / "unused")).cells()[0]
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            shipped = dict(task)
            shipped["cache_dir"] = str(tmp_path / "worker-local")
            shipped["cache_url"] = url
            first = run_cell(shipped, worker="w0")
            # A second worker with a fresh local dir hits the remote tier.
            shipped2 = dict(shipped)
            shipped2["cache_dir"] = str(tmp_path / "worker-local-2")
            second = run_cell(shipped2, worker="w1")

        def strip_timing(outcome):
            result = json.loads(json.dumps(outcome["result"]))
            result.pop("total_seconds", None)
            for stage in result.get("stages", []):
                stage.pop("seconds", None)
                stage.pop("cached", None)
            return result

        assert strip_timing(first) == strip_timing(second)
        assert second["cache_stats"]["hits"] > 0
        assert second["cache_stats"]["remote_hits"] > 0


# ------------------------------------------- cache stats + table rows


class TestCacheStatsReporting:
    def test_corrupt_artifact_is_counted_and_dropped(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "ab" + "5" * 62
        cache.put(key, {"v": 1})
        cache.path_for(key).write_text("{torn json")
        assert cache.get(key) is None
        assert cache.stats == {"hits": 0, "misses": 1, "writes": 1,
                               "evictions": 0, "corrupt": 1}
        assert not cache.path_for(key).exists()
        # Non-dict JSON gets the same treatment.
        cache.put(key, {"v": 1})
        cache.path_for(key).write_text("[1, 2]")
        assert cache.get(key) is None
        assert cache.stats["corrupt"] == 2

    def test_evictions_are_counted(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=0)
        cache.put("ab" + "6" * 62, {"v": 1})
        assert cache.stats["evictions"] >= 1
        assert len(cache) == 0

    def test_cache_hit_rate(self):
        assert cache_hit_rate({"hits": 0, "misses": 0}) is None
        assert cache_hit_rate({"hits": 3, "misses": 1}) == 0.75
        assert cache_hit_rate({}) is None

    def test_cache_stats_rows_render_rates_and_optional_counters(self):
        rows = cache_stats_rows({"hits": 3, "misses": 1, "writes": 1,
                                 "evictions": 0, "corrupt": 0})
        as_map = {row[0]: row[1] for row in rows}
        assert as_map["cache hits / misses / writes"] == "3 / 1 / 1"
        assert as_map["cache hit rate"] == "75.0%"
        assert "cache evictions" not in as_map
        rows = cache_stats_rows({
            "hits": 0, "misses": 0, "writes": 0, "evictions": 2, "corrupt": 1,
            "remote_hits": 4, "remote_misses": 2, "remote_corrupt": 1,
            "remote_errors": 3,
        })
        as_map = {row[0]: row[1] for row in rows}
        assert as_map["cache hit rate"] == "n/a"
        assert as_map["remote hits / misses"] == "4 / 2"
        assert as_map["corrupt remote downloads (served as misses)"] == 1
        assert as_map["remote cache errors (degraded to local)"] == 3
        assert as_map["cache evictions"] == 2
        assert as_map["corrupt cache entries dropped"] == 1

    def test_sweep_executor_rows_include_coordinator_and_hit_rate(self):
        rows = sweep_executor_rows({
            "executor": {"backend": "http", "workers": 2,
                         "coordinator_url": "http://127.0.0.1:8520",
                         "workers_seen": ["w0", "w1"]},
            "cache_stats": {"hits": 2, "misses": 2, "writes": 2,
                            "evictions": 0, "corrupt": 0},
        })
        as_map = {row[0]: row[1] for row in rows}
        assert as_map["coordinator"] == "http://127.0.0.1:8520"
        assert as_map["cache hit rate"] == "50.0%"

    def test_cli_cache_stats_reports_hit_rate(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path)
        cache.put("ab" + "7" * 62, {"v": 1})
        exit_code = main(["cache", "stats", "--cache-dir", str(tmp_path),
                          "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        # A fresh CLI session sees the stored artifact but starts its own
        # hit/miss counters at zero.
        assert payload["artifacts"] == 1
        assert payload["total_bytes"] > 0
        assert payload["writes"] == 0
        assert payload["hit_rate"] is None

    def test_cli_cache_remote_stats(self, tmp_path, capsys):
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            writer = RemoteCache(url, tmp_path / "w")
            writer.put("ab" + "8" * 62, {"v": 1})
            writer.flush()
            writer.get("cd" + "9" * 62)  # one remote miss
            exit_code = main(["cache", "stats", "--url", url, "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["url"] == url
        assert payload["writes"] == 1
        assert payload["misses"] == 1
        assert main(["cache", "clear", "--url", "http://127.0.0.1:1"]) == 2


# ------------------------------------------------------------ live stats


class TestLiveCoordinatorStats:
    def test_stats_endpoint_over_http(self, tmp_path):
        with CoordinatorHandle(port=0, cache_dir=tmp_path / "coord") as handle:
            url = handle.url
            stats = request_with_retry(f"{url}/api/v1/stats", "GET", tries=3)
            check_schema(stats)
            assert stats["runs"] == {"active": 0}
            assert stats["stopping"] is False
            assert stats["cache"]["root"] == str(tmp_path / "coord")
            # The bare /stats alias serves the same document.
            alias = request_with_retry(f"{url}/stats", "GET", tries=3)
            assert alias["schema"] == NET_SCHEMA
            with pytest.raises(NotFoundError):
                request(f"{url}/api/v1/nope", timeout=5.0)
