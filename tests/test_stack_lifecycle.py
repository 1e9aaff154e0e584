"""Full-stack lifecycle: reaper-driven idle and TIME-WAIT eviction.

These tests run real TCP conversations through :class:`HostStack` with
the lifecycle reaper attached and assert that dead connections leave
the PCB table (and the fast path's intern tables) on schedule, while
live conversations are untouched.
"""

from repro.core.bsd import BSDDemux
from repro.core.sequent import SequentDemux
from repro.lifecycle.metrics import count_interned
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.tcpstack.stack import HostStack


def build(server_kwargs=None, algorithm=None):
    sim = Simulator()
    net = Network(sim, default_delay=0.0005)
    if algorithm is None:
        algorithm = BSDDemux()
    server = HostStack(
        sim, net, "10.0.0.1", algorithm, **(server_kwargs or {})
    )
    client = HostStack(sim, net, "10.0.1.1", BSDDemux())
    return sim, net, server, client


class TestIdleReaping:
    def test_abandoned_connection_is_reaped(self):
        sim, net, server, client = build({"idle_timeout": 5.0})
        server.listen(80, on_data=lambda ep, data: None)
        # Client establishes, sends one query, then goes silent forever
        # (no FIN): the classic vanished-peer leak.
        client.connect("10.0.0.1", 80, on_establish=lambda e: e.send(b"q"))
        sim.run(until=2.0)
        assert len(server.table) == 1
        sim.run(until=30.0)
        assert len(server.table) == 0
        assert server.reaped["idle"] == 1
        assert server.reaper.stats.reaped_idle == 1

    def test_active_connection_survives_idle_timeout(self):
        sim, net, server, client = build({"idle_timeout": 5.0})
        server.listen(80, on_data=lambda ep, data: ep.send(b"r"))

        def keep_talking(endpoint):
            def ping():
                endpoint.send(b"ping")
                sim.schedule(3.0, ping)  # always inside the 5s window

            ping()

        client.connect("10.0.0.1", 80, on_establish=keep_talking)
        sim.run(until=60.0)
        assert len(server.table) == 1
        assert server.reaped["idle"] == 0

    def test_reaping_evicts_fast_path_interned_keys(self):
        algorithm = SequentDemux(7)
        sim, net, server, client = build({"idle_timeout": 5.0}, algorithm)
        server.listen(80, on_data=lambda ep, data: None)
        for port_offset in range(4):
            client.connect(
                "10.0.0.1", 80, on_establish=lambda e: e.send(b"q")
            )
        sim.run(until=2.0)
        assert count_interned(algorithm) == len(server.table) == 4
        sim.run(until=30.0)
        assert len(server.table) == 0
        assert count_interned(algorithm) == 0


class TestTimeWaitReaping:
    def close_scenario(self, server_kwargs):
        """A full conversation where the *client* closes first, so the
        client side enters TIME-WAIT; returns (sim, server, client)."""
        sim = Simulator()
        net = Network(sim, default_delay=0.0005)
        server = HostStack(sim, net, "10.0.0.1", BSDDemux())
        client = HostStack(
            sim, net, "10.0.1.1", BSDDemux(), **(server_kwargs or {})
        )
        server.listen(80, on_data=lambda ep, data: ep.send(b"r"))
        client.connect(
            "10.0.0.1", 80, on_establish=lambda e: e.send(b"q")
        )

        def close_client_side():
            for pcb in list(client.table):
                endpoint = pcb.user_data
                if endpoint is not None:
                    endpoint.close()

        def drain_server_side():
            # The passive closer sits in CLOSE_WAIT until its app
            # closes too; do that so the client can finish the
            # four-way teardown and actually reach TIME-WAIT.
            for pcb in list(server.table):
                endpoint = pcb.user_data
                if endpoint is not None and pcb.state == "CLOSE_WAIT":
                    endpoint.close()

        sim.schedule(0.5, close_client_side)
        sim.schedule(0.7, drain_server_side)
        return sim, server, client

    def test_reaper_expires_time_wait_at_configured_timeout(self):
        sim, server, client = self.close_scenario(
            {"idle_timeout": 100.0, "time_wait_timeout": 0.3}
        )
        sim.run(until=0.9)
        assert client.table.time_wait_count == 1
        # Stock TIME-WAIT is 1.0s; the reaper's 0.3s must win.  Give
        # it until t=1.0 max: teardown ends ~0.75, +0.3 ≈ 1.05... so
        # check an intermediate point before stock expiry could fire.
        sim.run(until=1.35)
        assert client.table.time_wait_count == 0
        assert client.reaped["time-wait"] == 1

    def test_stock_time_wait_still_works_without_reaper(self):
        sim, server, client = self.close_scenario(None)
        assert client.reaper is None
        sim.run(until=0.9)
        assert client.table.time_wait_count == 1
        sim.run(until=2.5)  # stock 1.0s timer
        assert client.table.time_wait_count == 0
        assert client.reaped["time-wait"] == 0

    def test_idle_only_reaper_leaves_time_wait_to_stock_timer(self):
        sim, server, client = self.close_scenario({"idle_timeout": 50.0})
        assert client.reaper is not None
        assert not client.reaper.handles_time_wait
        sim.run(until=0.9)
        assert client.table.time_wait_count == 1
        sim.run(until=2.5)
        assert client.table.time_wait_count == 0
        # Stock timer closed it; the reaper reaped nothing.
        assert client.reaped == {"idle": 0, "time-wait": 0}


class TestCensus:
    def test_state_census_counts_by_state(self):
        sim, net, server, client = build()
        server.listen(80, on_data=lambda ep, data: None)
        client.connect("10.0.0.1", 80, on_establish=lambda e: e.send(b"q"))
        sim.run(until=1.0)
        census = server.table.state_census()
        assert census == {"ESTABLISHED": 1}
        assert server.table.time_wait_count == 0
