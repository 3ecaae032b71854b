"""Request-level determinism: the service returns bit-identical candidate
sets to the direct ``core.diagnosis`` path.

This is the serving layer's contract with the reproduction: batching,
queueing and executor threads must be invisible in the numbers.
"""

from repro.service.client import ServiceClient

from .conftest import SMALL, GatedEngine, coalesce_behind_gate, small_request
from .test_engine import direct_results


def service_candidates(server, engine, indices):
    """Submit all indices concurrently, behind a busy engine (so they
    actually coalesce)."""
    out = {}

    def fire(i):
        with ServiceClient(port=server.server.port, timeout_s=60) as client:
            out[i] = tuple(client.diagnose(
                dict(SMALL, fault_index=i, timeout_ms=60_000)).candidate_cells)

    coalesce_behind_gate(server, engine, fire, list(indices))
    return out


class TestServiceMatchesDirectPath:
    def test_serial_server_bit_identical(self, live_server):
        _, expected = direct_results()
        engine = GatedEngine()
        server, port = live_server(batch_max=16, engine=engine)
        ServiceClient(port=port).wait_ready()
        got = service_candidates(server, engine, range(SMALL["fault_count"]))
        for i, direct in enumerate(expected):
            assert got[i] == tuple(sorted(direct.candidate_cells)), \
                f"fault {i} differs on the serial server"

    def test_repeated_requests_are_stable(self, live_server):
        _, port = live_server()
        ServiceClient(port=port).wait_ready()
        with ServiceClient(port=port) as client:
            first = client.diagnose(small_request(2))
            second = client.diagnose(small_request(2))
        assert first.candidate_cells == second.candidate_cells
        assert first.actual_cells == second.actual_cells
