"""Unit tests for the discrete-event simulator (repro.network)."""

import pytest

from repro import observability
from repro.errors import NetworkError, UnknownNetworkNode
from repro.network import LatencyModel, NetworkSimulator


class TestLatencyModel:
    def test_bounds(self):
        model = LatencyModel(base=0.1, jitter=0.5)
        for _ in range(50):
            sample = model.sample("a", "b")
            assert 0.1 <= sample <= 0.6

    def test_deterministic_given_seed(self):
        a = LatencyModel(seed=b"s")
        b = LatencyModel(seed=b"s")
        assert [a.sample("x", "y") for _ in range(5)] == [
            b.sample("x", "y") for _ in range(5)
        ]

    def test_per_link_independence(self):
        model = LatencyModel(seed=b"s")
        assert model.sample("a", "b") != model.sample("b", "a")


class TestSimulator:
    def _sim(self):
        sim = NetworkSimulator(LatencyModel(base=0.1, jitter=0.0))
        received: dict[str, list] = {"a": [], "b": [], "c": []}
        for name in received:
            sim.register(name, lambda src, msg, name=name: received[name].append((src, msg)))
        return sim, received

    def test_send_and_deliver(self):
        sim, received = self._sim()
        at = sim.send("a", "b", "hello")
        assert at == pytest.approx(0.1)
        sim.run()
        assert received["b"] == [("a", "hello")]
        assert sim.clock == pytest.approx(0.1)

    def test_a_link_delivers_in_send_order(self):
        sim = NetworkSimulator(LatencyModel(base=0.05, jitter=0.1, seed=b"fifo"))
        got = []
        sim.register("a", lambda src, msg: None)
        sim.register("b", lambda src, msg: got.append(msg))
        times = [sim.send("a", "b", i) for i in range(20)]
        sim.run()
        assert got == list(range(20))
        assert times == sorted(times)

    def test_broadcast_excludes_sender(self):
        sim, received = self._sim()
        sim.broadcast("a", "ping")
        sim.run()
        assert received["a"] == []
        assert received["b"] == [("a", "ping")]
        assert received["c"] == [("a", "ping")]

    def test_unknown_destination_rejected(self):
        sim, _ = self._sim()
        with pytest.raises(KeyError):
            sim.send("a", "nope", "x")

    def test_unknown_destination_typed_error(self):
        sim, _ = self._sim()
        with pytest.raises(UnknownNetworkNode) as excinfo:
            sim.send("a", "nope", "x")
        # the typed error slots into the library hierarchy AND stays a
        # KeyError for pre-existing callers
        assert isinstance(excinfo.value, NetworkError)
        assert isinstance(excinfo.value, KeyError)
        assert "nope" in str(excinfo.value)

    def test_unknown_destination_counts_drop(self):
        sim, _ = self._sim()
        dropped = observability.registry().get("repro_network_dropped_total")
        before = dropped.value(reason="unknown_dst")
        with pytest.raises(UnknownNetworkNode):
            sim.send("a", "nope", "x")
        assert dropped.value(reason="unknown_dst") == before + 1

    def test_unknown_broadcast_destination_rejected(self):
        sim = NetworkSimulator()
        sim.register("a", lambda src, msg: None)
        # broadcast over known nodes only — never drops
        assert sim.broadcast("a", "ping") == []

    def test_event_ordering(self):
        sim = NetworkSimulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("late"))
        sim.schedule_at(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_run_until(self):
        sim = NetworkSimulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.clock == 2.0

    def test_scheduling_into_past_rejected(self):
        sim = NetworkSimulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_cascading_events(self):
        sim, received = self._sim()

        def relay(src, msg):
            if msg < 3:
                sim.send("b", "c", msg + 1)

        sim.register("b", relay)
        sim.send("a", "b", 1)
        sim.run()
        assert received["c"] == [("b", 2)]

    def test_step_returns_false_when_empty(self):
        sim = NetworkSimulator()
        assert not sim.step()
