"""The traced run: per-layer metrics measured at layer boundaries.

Tracing is a switch of the benchmark, not of the program.  Before the
traced deployment is built, :class:`Tracer` swaps the public functions
of each layer for thin wrappers from this file (and puts the originals
back afterwards).  Each wrapper records a span — name, start, end —
on a per-thread stack; when a span closes, its duration is added to its
parent's child time, so every layer gets both its total time and its
self time (duration minus the part its child spans cover).  Spans are
folded into per-name aggregates in memory as they close and read out
once, when the run ends.  Generator functions (the server's streamed
replies, lazy query handlers) are timed across every resume, so a span
covers the work of the call however the caller consumes it.

Counts come either from the same wrappers or from counters the program
already exposes: ``Journal.stats()``, ``AccessCache.stats()``,
``CdcExtractor.stats``, ``Database.mvcc_stats()`` and the ``_batch.*``
rows of the ``_wal_stats`` pseudo-query.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import deque

from repro.client.lib import MoiraClient
from repro.db.closure import MembershipClosure
from repro.db.engine import Database, Table
from repro.db.journal import Journal
from repro.db.mvcc import SnapshotTable
from repro.dcm.cdc import CdcExtractor
from repro.dcm.generators.base import all_generators
from repro.hosts.update_daemon import UpdateDaemon
from repro.kerberos.kdc import KDC
from repro.protocol import wire
from repro.protocol.transport import ClientConnection
from repro.queries.base import check_query_access, get_query
from repro.server.moira_server import MoiraServer
from repro.server.write_batch import WriteBatcher
from repro.servers.hesiod import HesiodServer
from repro.servers.mailhub import MailHub
from repro.servers.nfs import NFSServer
from repro.servers.zephyrd import ZephyrServer
import repro.dcm.dcm as dcm_module
import repro.server.moira_server as moira_server_module

# every handle any workload sends; each gets queries.handler_us.<handle>
HANDLES = (
    "get_user_by_login", "get_finger_by_login", "get_pobox",
    "get_machine", "get_filesys_by_label", "get_list_info",
    "get_members_of_list", "get_lists_of_member", "update_user_shell",
    "update_finger_by_login", "add_member_to_list",
    "delete_member_from_list", "add_machine", "delete_machine",
    "set_pobox", "update_nfs_quota", "register_user",
)
SERVICES = ("HESIOD", "MAIL", "NFS", "ZEPHYR")
WRITE_HANDLES = frozenset(h for h in HANDLES
                          if get_query(h).side_effects)
BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
CODEC = ("encode_request", "decode_request", "encode_reply",
         "decode_reply")


class _Span:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs the wrappers (as a context manager) and turns the spans
    and program counters of one timed phase into per-layer metrics."""

    def __init__(self, workload):
        self.workload = workload
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self.spans: dict = {}
        # protocol: frames/bytes the client decoded; TCP round trips
        # and server frame streams, split by single/multi-frame replies
        self.frames = itertools.count()
        self.reply_bytes = 0
        self.client_rt = {False: [0.0, 0], True: [0.0, 0]}
        self.server_hfs = {False: [0.0, 0], True: [0.0, 0]}
        self.pool_wait = [0.0, 0]
        self._submitted: dict = {}
        self.selects = itertools.count()
        self.rows_scanned = 0
        self.rows_returned = 0

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, duration, self_time, count):
        with self._lock:
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = _Span()
            span.count += count
            span.total += duration
            span.self_time += self_time

    def _enter(self):
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _leave(self, name, count) -> float:
        end = time.perf_counter()
        stack = self._stack()
        start, child = stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        self._record(name, duration, duration - child, count)
        return duration

    def call(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(name, 1)

        return traced

    def _resumes(self, name, gen, on_end=None, count=1):
        """Re-yield *gen*, timing every resume under span *name*, which
        gains *count* calls when *gen* ends."""
        total = 0.0
        items = 0
        try:
            while True:
                self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    total += self._leave(name, 0)
                items += 1
                yield item
        finally:
            close = getattr(gen, "close", None)
            if close is not None:
                close()
            self._record(name, 0.0, 0.0, count)
            if on_end is not None:
                on_end(total, items)

    # -- installing the wrappers --------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn, replacement):
        """Swap *fn* in every program module that imported it."""
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, replacement)

    def __enter__(self):
        t = self
        for name in CODEC:
            fn = getattr(wire, name)
            wrapped = t.call("protocol.codec", fn)
            if name == "decode_reply":
                wrapped = t._counting_decode(wrapped)
            t._patch_function(fn, wrapped)
        t._patch(ClientConnection, "stream",
                 t._client_stream(ClientConnection.stream))
        t._patch(MoiraServer, "handle_frame_stream",
                 t._frame_stream(MoiraServer.handle_frame_stream))
        t._patch(MoiraServer, "submit_frame",
                 t._submit(MoiraServer.submit_frame))
        t._patch(moira_server_module, "check_query_access",
                 t.call("server.access", check_query_access))
        t._patch(WriteBatcher, "submit",
                 t.call("server.write_submit", WriteBatcher.submit))
        t._patch(KDC, "verify_authenticator",
                 t.call("kerberos.verify", KDC.verify_authenticator))
        for handle in HANDLES:
            query = get_query(handle)
            t._patch(query, "handler",
                     t._handler(f"queries.handler.{handle}", query.handler))
        for cls in (Table, SnapshotTable):
            t._patch(cls, "iter_select", t._counted(cls.iter_select))
        t._patch(Database, "unpin_snapshot",
                 t._unpin(Database.unpin_snapshot))
        for method in ("lists_containing", "contains", "poke"):
            t._patch(MembershipClosure, method,
                     t.call("db.closure", getattr(MembershipClosure,
                                                  method)))
        for method in ("record", "sync"):
            t._patch(Journal, method,
                     t.call("db.journal", getattr(Journal, method)))
        t._patch(CdcExtractor, "pump",
                 t.call("dcm.pump", CdcExtractor.pump))
        for service, generator in all_generators().items():
            for method in ("generate", "generate_incremental"):
                t._patch(generator, method,
                         t.call(f"dcm.generate.{service}",
                                getattr(generator, method)))
        t._patch(dcm_module, "push_update",
                 t.call("dcm.push", dcm_module.push_update))
        for method in ("receive_file", "receive_script", "execute"):
            t._patch(UpdateDaemon, method,
                     t.call("hosts.install", getattr(UpdateDaemon, method)))
        for cls, method in ((HesiodServer, "restart"),
                            (MailHub, "install_aliases"),
                            (NFSServer, "apply_update"),
                            (ZephyrServer, "install_acls")):
            t._patch(cls, method,
                     t.call("servers.reload", getattr(cls, method)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- special wrappers -----------------------------------------------------------

    def _counting_decode(self, decode):
        tracer = self

        def traced(body):
            next(tracer.frames)
            tracer.reply_bytes += len(body) + 4
            return decode(body)

        return traced

    def _client_stream(self, stream):
        tracer = self

        def traced(conn, major, args):
            tcp = type(conn).__name__ == "_TcpClientConnection"

            def on_end(total, items):
                if tcp:
                    with tracer._lock:
                        slot = tracer.client_rt[items > 1]
                        slot[0] += total
                        slot[1] += 1

            return tracer._resumes("protocol.client_stream",
                                   stream(conn, major, args), on_end)

        return traced

    def _submit(self, submit):
        tracer = self

        def traced(server, conn_id, frame, on_reply, on_done):
            with tracer._lock:
                tracer._submitted.setdefault(conn_id, deque()).append(
                    time.perf_counter())
            return submit(server, conn_id, frame, on_reply, on_done)

        return traced

    def _frame_stream(self, handle_frame_stream):
        tracer = self

        def traced(server, conn_id, frame):
            with tracer._lock:
                queued = tracer._submitted.get(conn_id)
                enqueued = queued.popleft() if queued else None
            if enqueued is not None:
                waited = time.perf_counter() - enqueued
                with tracer._lock:
                    tracer.pool_wait[0] += waited
                    tracer.pool_wait[1] += 1

            def on_end(total, items):
                with tracer._lock:
                    slot = tracer.server_hfs[items > 1]
                    slot[0] += total
                    slot[1] += 1

            return tracer._resumes("server.frame",
                                   handle_frame_stream(server, conn_id,
                                                       frame), on_end)

        return traced

    def _handler(self, name, handler):
        tracer = self

        def traced(ctx, args):
            tracer._enter()
            try:
                result = handler(ctx, args)
            finally:
                tracer._leave(name, 1)
            if isinstance(result, list):
                return result
            # a lazy result: its resumes are more of the same call
            return tracer._resumes(name, iter(result), count=0)

        return traced

    def _counted(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            next(tracer.selects)
            return fn(*args, **kwargs)

        return traced

    def _unpin(self, unpin):
        tracer = self

        def traced(db, snapshot):
            with tracer._lock:
                tracer.rows_scanned += snapshot.rows_scanned
                tracer.rows_returned += snapshot.rows_returned
            return unpin(db, snapshot)

        return traced

    # -- the phase --------------------------------------------------------------------

    def _counters(self, dep) -> dict:
        """Program counters at one instant (read from the outside)."""
        out = {"cache": dep.server.access_cache.stats(),
               "mvcc": dep.db.mvcc_stats(),
               "wal": dep.journal.stats(),
               "cdc": dict(dep.cdc.stats) if dep.cdc is not None else {}}
        client = MoiraClient(dispatcher=dep.server).connect()
        try:
            out["batch"] = {row[0]: float(row[1])
                            for row in client.query("_wal_stats")
                            if row[0].startswith("_batch.")}
        finally:
            client.mr_disconnect()
        return out

    def _reset(self):
        self.spans = {}
        self.frames = itertools.count()
        self.reply_bytes = 0
        self.client_rt = {False: [0.0, 0], True: [0.0, 0]}
        self.server_hfs = {False: [0.0, 0], True: [0.0, 0]}
        self.pool_wait = [0.0, 0]
        self.selects = itertools.count()
        self.rows_scanned = self.rows_returned = 0

    def start(self, workload) -> None:
        self.before = self._counters(workload.dep)
        self._reset()

    def stop(self, workload) -> None:
        self.frozen = {
            "spans": dict(self.spans),
            "frames": next(self.frames),
            "reply_bytes": self.reply_bytes,
            "selects": next(self.selects),
            "client_rt": {k: list(v) for k, v in self.client_rt.items()},
            "server_hfs": {k: list(v) for k, v in self.server_hfs.items()},
            "pool_wait": list(self.pool_wait),
            "rows": (self.rows_scanned, self.rows_returned),
        }
        self.after = self._counters(workload.dep)

    # -- metrics ------------------------------------------------------------------------

    def per_layer(self, phase, traced_parts, setup_parts) -> dict:
        spans = self.frozen["spans"]
        with open(BENCHMARK_JSON) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        ops = max(1, len(phase.latencies))
        b, a = self.before, self.after

        def total(name):
            span = spans.get(name)
            return span.total if span else 0.0

        def self_time(name):
            span = spans.get(name)
            return span.self_time if span else 0.0

        def count(name):
            span = spans.get(name)
            return span.count if span else 0

        def ratio(x, y):
            return x / y if y else 0.0

        m = {}
        m["protocol.codec_us_per_op"] = total("protocol.codec") / ops * 1e6
        m["protocol.frames_per_op"] = self.frozen["frames"] / ops
        m["protocol.bytes_per_op"] = self.frozen["reply_bytes"] / ops
        waits = {}
        for multi in (False, True):
            rt, n = self.frozen["client_rt"][multi]
            hfs = self.frozen["server_hfs"][multi][0] if n else 0.0
            waits[multi] = (rt - hfs, n)
        m["protocol.tcp_wait_us_per_op"] = ratio(
            sum(w for w, _ in waits.values()) * 1e6, ops)
        m["protocol.tcp_wait_us_per_multiframe_reply"] = ratio(
            waits[True][0] * 1e6, waits[True][1])
        m["protocol.tcp_wait_us_per_singleframe_reply"] = ratio(
            waits[False][0] * 1e6, waits[False][1])
        handler_total = sum(total(f"queries.handler.{h}") for h in HANDLES)
        m["server.frame_self_us_per_op"] = (
            total("server.frame") - total("server.access")
            - handler_total) / ops * 1e6
        m["server.pool_wait_us_per_op"] = self.frozen["pool_wait"][0] / ops * 1e6
        m["server.access_us_per_op"] = total("server.access") / ops * 1e6
        hits = a["cache"]["hits"] - b["cache"]["hits"]
        misses = a["cache"]["misses"] - b["cache"]["misses"]
        m["server.access_cache_hit_ratio"] = ratio(hits, hits + misses)
        writes = count("server.write_submit")
        write_handlers = sum(total(f"queries.handler.{h}")
                             for h in WRITE_HANDLES)
        m["server.write_lane_wait_us_per_write"] = ratio(
            (total("server.write_submit") - write_handlers) * 1e6, writes)
        batches = (a["batch"].get("_batch.batches", 0)
                   - b["batch"].get("_batch.batches", 0))
        m["server.writes_per_window"] = ratio(
            a["batch"].get("_batch.batched_writes", 0)
            - b["batch"].get("_batch.batched_writes", 0), batches)
        m["kerberos.verify_us_per_auth"] = ratio(
            total("kerberos.verify") * 1e6, count("kerberos.verify"))
        for h in HANDLES:
            name = f"queries.handler.{h}"
            m[f"queries.handler_us.{h}"] = ratio(total(name) * 1e6,
                                                 count(name))
        m["db.pins_per_op"] = (a["mvcc"]["snapshots_pinned"]
                               - b["mvcc"]["snapshots_pinned"]) / ops
        m["db.selects_per_op"] = self.frozen["selects"] / ops
        m["db.rows_scanned_per_returned"] = ratio(*self.frozen["rows"])
        m["db.closure_us_per_op"] = total("db.closure") / ops * 1e6
        m["db.journal_us_per_write"] = ratio(total("db.journal") * 1e6,
                                             writes)
        m["db.fsyncs_per_write"] = ratio(
            a["wal"]["fsyncs"] - b["wal"]["fsyncs"], writes)
        m["db.wal_bytes_per_write"] = ratio(
            a["wal"]["wal_bytes"] - b["wal"]["wal_bytes"], writes)
        mutations = ops if self.workload.name == "propagation" else 0

        def cdc(key):
            return a["cdc"].get(key, 0) - b["cdc"].get(key, 0)

        m["dcm.pump_ms_per_mutation"] = ratio(total("dcm.pump") * 1e3,
                                              mutations)
        m["dcm.converges_per_mutation"] = ratio(cdc("converges"), mutations)
        m["dcm.unchanged_per_mutation"] = ratio(
            cdc("converges_no_change"), mutations)
        m["dcm.skipped_per_mutation"] = ratio(cdc("converges_skipped"),
                                              mutations)
        for service in SERVICES:
            m[f"dcm.generate_ms.{service}"] = ratio(
                total(f"dcm.generate.{service}") * 1e3, mutations)
        m["dcm.pushes_per_mutation"] = ratio(cdc("host_pushes"), mutations)
        m["dcm.push_bytes_per_mutation"] = ratio(cdc("bytes_pushed"),
                                                 mutations)
        m["dcm.push_ms_per_mutation"] = ratio(total("dcm.push") * 1e3,
                                              mutations)
        pushes = count("dcm.push")
        m["hosts.install_ms_per_push"] = ratio(
            self_time("hosts.install") * 1e3, pushes)
        m["servers.reload_ms_per_push"] = ratio(
            total("servers.reload") * 1e3, pushes)
        for key in ("workload.load_population_s", "core.deploy_rest_s",
                    "dcm.setup_converge_s"):
            m[key] = statistics.median(p.get(key, 0.0)
                                       for p in setup_parts)
        m["runtime.gc_pause_ms"] = phase.gc_pause_s * 1e3
        m["runtime.gc_gen2_collections"] = phase.gc_gen2
        return {name: (value, units[name]) for name, value in m.items()}
