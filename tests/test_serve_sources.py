"""Tests for the serve layer's query sources and wire protocol.

Covers the newline-JSON protocol round-trip and error surface, the three
:class:`~repro.serve.sources.QuerySource` implementations (trace, queue,
socket), source-spec resolution, and the harness-side migration:
``replay`` (with or without a re-design policy) consumes a
``QuerySource`` and rejects raw window lists with a ``TypeError``.
"""

import asyncio
import json
import socket

import pytest

from repro.serve.protocol import (
    SHUTDOWN_OP,
    ProtocolError,
    ServeControl,
    decode_line,
    encode_control,
    encode_query,
)
from repro.serve.sources import (
    QueueSource,
    QuerySource,
    SocketSource,
    TraceSource,
    as_windows,
    resolve_source,
)
from repro.workload.query import WorkloadQuery
from repro.workload.windows import split_windows


def same_windows(left, right) -> bool:
    """Window-list equality by content (Workload has no ``__eq__``)."""
    return len(left) == len(right) and all(
        list(a) == list(b) for a, b in zip(left, right)
    )


def collect(source: QuerySource) -> list[WorkloadQuery]:
    """Drain a source's stream on a fresh event loop."""

    async def drain():
        return [query async for query in source.stream()]

    return asyncio.run(drain())


class TestProtocol:
    def test_query_round_trip(self):
        query = WorkloadQuery(sql="SELECT a FROM t WHERE b = 1", timestamp=12.5, frequency=3.0)
        decoded = decode_line(encode_query(query))
        assert decoded == query

    def test_decodes_bytes(self):
        query = WorkloadQuery(sql="SELECT 1 FROM t", timestamp=1.0)
        assert decode_line(encode_query(query).encode("utf-8")) == query

    def test_defaults_timestamp_and_frequency(self):
        decoded = decode_line('{"sql":"SELECT x FROM t"}')
        assert decoded.timestamp == 0.0
        assert decoded.frequency == 1.0

    def test_shutdown_control_round_trip(self):
        decoded = decode_line(encode_control())
        assert decoded == ServeControl(op=SHUTDOWN_OP)

    def test_unknown_control_op_is_surfaced(self):
        decoded = decode_line('{"op":"pause"}')
        assert isinstance(decoded, ServeControl)
        assert decoded.op == "pause"

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "   ",
            "not json",
            "[1, 2]",
            '"just a string"',
            '{"op": 7}',
            '{"sql": ""}',
            '{"sql": 42}',
            '{"no_sql_key": true}',
            '{"sql": "SELECT 1 FROM t", "timestamp": "noon"}',
            '{"sql": "SELECT 1 FROM t", "frequency": true}',
            '{"sql": "SELECT 1 FROM t", "frequency": -1.0}',
            b"\xff\xfe invalid utf8 \xff",
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ProtocolError):
            decode_line(line)

    @pytest.mark.parametrize("field", ["timestamp", "frequency"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400])
    def test_non_finite_numbers_raise(self, field, literal):
        """json.loads accepts these; a NaN timestamp used to raise
        ``ValueError`` out of the daemon's window index, and a NaN
        frequency was accepted."""
        with pytest.raises(ProtocolError, match=f"{field} must be finite"):
            decode_line(f'{{"sql": "SELECT 1 FROM t", "{field}": {literal}}}')

    def test_wire_format_is_compact_json(self):
        line = encode_query(WorkloadQuery(sql="SELECT 1 FROM t", timestamp=2.0))
        record = json.loads(line)
        assert record == {"sql": "SELECT 1 FROM t", "timestamp": 2.0, "frequency": 1.0}
        assert "\n" not in line


class TestTraceSource:
    def test_sorts_by_timestamp(self, tiny_trace):
        shuffled = list(reversed(tiny_trace))
        source = TraceSource(shuffled)
        stamps = [q.timestamp for q in source.queries()]
        assert stamps == sorted(stamps)
        assert len(source) == len(tiny_trace)

    def test_stream_is_replayable(self, tiny_trace):
        source = TraceSource(tiny_trace[:50])
        assert source.replayable
        assert collect(source) == collect(source) == list(source.queries())

    def test_windows_split(self, tiny_trace):
        source = TraceSource(tiny_trace, window_days=28)
        assert same_windows(source.windows(), split_windows(list(tiny_trace), 28))

    def test_windows_requires_a_length(self, tiny_trace):
        with pytest.raises(ValueError, match="window_days"):
            TraceSource(tiny_trace).windows()

    def test_from_windows_is_verbatim(self, tiny_windows):
        source = TraceSource.from_windows(tiny_windows, window_days=28)
        assert source.windows() == list(tiny_windows)

    def test_describe_mentions_size(self, tiny_trace):
        description = TraceSource(tiny_trace).describe()
        assert str(len(tiny_trace)) in description


class TestQueueSource:
    def test_streams_until_closed(self):
        source = QueueSource()
        queries = [WorkloadQuery(sql="SELECT 1 FROM t", timestamp=float(i)) for i in range(5)]
        for query in queries:
            source.put_nowait(query)
        source.close()
        assert source.backlog() == 6  # 5 queries + close sentinel
        assert collect(source) == queries
        assert source.backlog() == 0

    def test_not_replayable_and_not_windowable(self):
        source = QueueSource()
        assert not source.replayable
        with pytest.raises(TypeError, match="unbounded"):
            source.windows()


class TestSocketSource:
    def feed(self, address, lines, family=socket.AF_UNIX):
        import time

        payload = ("\n".join(lines) + "\n").encode("utf-8")
        deadline = time.monotonic() + 10.0
        while True:  # the listener binds concurrently; retry the connect
            client = socket.socket(family, socket.SOCK_STREAM)
            try:
                client.connect(address)
                break
            except OSError:
                client.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)
        try:
            client.sendall(payload)
        finally:
            client.close()

    def run_source(self, source, address, lines, family=socket.AF_UNIX):
        async def drain():
            received = []
            stream = source.stream()
            # First iteration binds the listener; then feed from a thread.
            first = asyncio.ensure_future(anext(stream))
            await asyncio.sleep(0)
            await asyncio.to_thread(self.feed, address, lines, family)
            received.append(await first)
            async for query in stream:
                received.append(query)
            return received

        return asyncio.run(drain())

    def test_unix_socket_round_trip(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        source = SocketSource(path=path)
        queries = [WorkloadQuery(sql="SELECT 1 FROM t", timestamp=float(i)) for i in range(4)]
        lines = [encode_query(q) for q in queries] + [encode_control()]
        assert self.run_source(source, path, lines) == queries
        assert source.protocol_errors == 0

    def test_malformed_lines_are_counted_and_skipped(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        source = SocketSource(path=path)
        good = WorkloadQuery(sql="SELECT 1 FROM t", timestamp=1.0)
        lines = ["this is not json", encode_query(good), '{"sql": ""}', encode_control()]
        assert self.run_source(source, path, lines) == [good]
        assert source.protocol_errors == 2

    def test_stale_socket_file_is_replaced(self, tmp_path):
        # A SIGKILLed daemon leaves the bound socket file behind; a
        # resumed daemon must be able to bind the same address.
        path = tmp_path / "serve.sock"
        path.write_text("stale")
        source = SocketSource(path=str(path))
        good = WorkloadQuery(sql="SELECT 1 FROM t", timestamp=1.0)
        lines = [encode_query(good), encode_control()]
        assert self.run_source(source, str(path), lines) == [good]
        assert not path.exists()  # cleaned up at stream end

    def test_tcp_socket_binds_a_free_port(self):
        source = SocketSource(host="127.0.0.1", port=0)
        good = WorkloadQuery(sql="SELECT 1 FROM t", timestamp=1.0)

        async def drain():
            received = []
            stream = source.stream()
            first = asyncio.ensure_future(anext(stream))
            while source.bound_port is None:  # resolved once listening
                await asyncio.sleep(0.01)
            await asyncio.to_thread(
                self.feed,
                ("127.0.0.1", source.bound_port),
                [encode_query(good), encode_control()],
                socket.AF_INET,
            )
            received.append(await first)
            async for query in stream:
                received.append(query)
            return received

        assert asyncio.run(drain()) == [good]

    def test_requires_exactly_one_address(self):
        with pytest.raises(ValueError):
            SocketSource()
        with pytest.raises(ValueError):
            SocketSource(path="/tmp/x.sock", host="127.0.0.1", port=1)
        with pytest.raises(ValueError):
            SocketSource(host="127.0.0.1")  # tcp needs a port


class TestResolveSource:
    def test_passes_sources_through(self, tiny_trace):
        source = TraceSource(tiny_trace)
        assert resolve_source(source) is source

    def test_unix_spec(self):
        source = resolve_source("unix:/tmp/serve.sock")
        assert isinstance(source, SocketSource)
        assert source.path == "/tmp/serve.sock"

    def test_tcp_spec(self):
        source = resolve_source("tcp:127.0.0.1:0")
        assert isinstance(source, SocketSource)
        assert source.host == "127.0.0.1"
        assert source.port == 0

    @pytest.mark.parametrize("spec", ["serve.sock", "tcp:nohost", "udp:1:2", ""])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            resolve_source(spec)

    def test_non_string_raises(self):
        with pytest.raises(TypeError):
            resolve_source(42)


class TestHarnessMigration:
    def test_as_windows_accepts_sources(self, tiny_windows):
        source = TraceSource.from_windows(tiny_windows, window_days=28)
        assert as_windows(source) == list(tiny_windows)

    def test_as_windows_rejects_raw_lists(self, tiny_windows):
        with pytest.raises(TypeError, match="TraceSource.from_windows"):
            as_windows(list(tiny_windows))

    def test_replay_accepts_a_source(self, columnar_adapter, tiny_trace, tiny_windows):
        from repro.designers.columnar_nominal import ColumnarNominalDesigner
        from repro.designers.no_design import NoDesign
        from repro.harness.replay import replay

        nominal = ColumnarNominalDesigner(columnar_adapter)
        designers = {"NoDesign": NoDesign(columnar_adapter), "ExistingDesigner": nominal}

        def run(windows):
            return replay(
                windows,
                dict(designers),
                columnar_adapter,
                candidate_source=nominal,
                workload_name="tiny",
                max_transitions=1,
            )

        wrapped = run(TraceSource.from_windows(tiny_windows, window_days=28))
        split = run(TraceSource(tiny_trace, window_days=28))
        with pytest.raises(TypeError):
            run(list(tiny_windows))
        for name in designers:
            # Compare the deterministic fields (design_seconds is
            # wall-clock; the cost-call counters depend on cache warmth
            # carried across the two runs).
            for a, b in zip(wrapped.run(name).windows, split.run(name).windows):
                assert a.window_index == b.window_index
                assert a.average_ms == b.average_ms
                assert a.max_ms == b.max_ms
                assert a.structure_count == b.structure_count
                assert a.design_price_bytes == b.design_price_bytes

    def test_scheduled_replay_accepts_a_source(
        self, columnar_adapter, tiny_trace, tiny_windows
    ):
        """A replay under a re-design policy takes the same sources."""
        from repro.designers.columnar_nominal import ColumnarNominalDesigner
        from repro.harness.replay import replay
        from repro.serve.policy import PeriodicPolicy

        nominal = ColumnarNominalDesigner(columnar_adapter)

        def run(windows):
            return replay(
                windows, {"n": nominal}, columnar_adapter, policy=PeriodicPolicy(every=1)
            ).run("n")

        wrapped = run(TraceSource.from_windows(tiny_windows, window_days=28))
        split = run(TraceSource(tiny_trace, window_days=28))
        with pytest.raises(TypeError):
            run(list(tiny_windows))
        assert [w.average_ms for w in wrapped.windows] == [w.average_ms for w in split.windows]
        assert [w.redesigned for w in wrapped.windows] == [w.redesigned for w in split.windows]
