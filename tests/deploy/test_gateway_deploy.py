"""Gateway × deployment: admin plane, cache-scope safety, shadow decisions.

The acceptance-criteria pair lives here: an identical-weights candidate
is promoted and a corrupted candidate (shuffled embedding rows) is
demoted, both *deterministically*, driven through the real gateway
ingest/recommend path. The never-serve-a-demoted-generation property is
asserted via the cache scope: rankings cached while a session was on the
candidate arm must not be served after rollback.
"""

import itertools
import json
import urllib.error
import urllib.request

import pytest

from repro.artifacts import load_artifact
from repro.deploy import (
    DeploymentConfig,
    DeploymentError,
    DeploymentManager,
    DeploymentStore,
    EventRingBuffer,
)
from repro.reliability import armed, crashing, raising
from repro.serve import RecommenderService
from repro.serving import GatewayConfig, ServingGateway

from .conftest import RAW_IDS, corrupt_weights

SWAP_FAILPOINTS = ["deploy.swap.load", "deploy.swap.warm", "deploy.swap.flip", "deploy.swap.commit"]


@pytest.fixture()
def stack(artifact_path, tmp_path):
    """(gateway, manager, store) with the batcher running."""
    store = DeploymentStore(tmp_path / "deploy")
    service = RecommenderService.from_artifact(
        artifact_path, event_buffer=EventRingBuffer()
    )
    manager = DeploymentManager(
        service,
        store=store,
        config=DeploymentConfig(
            canary_pct=50.0,
            shadow_sample_pct=100.0,
            min_observations=5,
            window=50,
        ),
        incumbent_path=str(artifact_path),
    )
    gateway = ServingGateway(service, GatewayConfig(), deployment=manager)
    gateway.batcher.start()
    try:
        yield gateway, manager, store
    finally:
        gateway.batcher.stop()


def drive(gateway, sid):
    gateway.ingest(sid, 1005, 1)
    gateway.ingest(sid, 1010, 2)


def follow_recommendations(gateway, manager, rounds, sessions=6):
    """Self-fulfilling stream: each session goes where the gateway points.

    Every follow-up event is a macro transition whose target is the top
    pick of the arm serving that session, so shadow evaluation compares
    the generations on their own online traffic.
    """
    sids = itertools.cycle([f"s{i}" for i in range(sessions)])
    for _ in range(rounds):
        sid = next(sids)
        top = gateway.recommend(sid, k=3)["items"]
        gateway.ingest(sid, top[0] if top else 1005, 1)
        if manager.candidate is None:
            return


class TestAdminPlane:
    def test_gateway_without_deployment_refuses(self, artifact_path):
        service = RecommenderService.from_artifact(artifact_path)
        gateway = ServingGateway(service, GatewayConfig())
        with pytest.raises(DeploymentError):
            gateway.deploy_status()
        with pytest.raises(DeploymentError):
            gateway.deploy_promote()

    def test_stage_promote_lifecycle_and_metrics(self, stack, make_artifact):
        gateway, manager, _ = stack
        out = gateway.deploy_stage(str(make_artifact("v2.npz")))
        assert out["staged"] is True
        assert out["candidate"]["version"] == 2
        assert gateway.health()["deployment"]["candidate"] == 2

        out = gateway.deploy_promote(reason="test")
        assert out["promoted"] == 2
        assert gateway.health()["deployment"] == {
            "generation": 1,
            "incumbent": 2,
            "candidate": None,
        }
        snap = gateway.registry.snapshot()
        assert snap["deploy_swaps_total"] == 1
        assert snap["deploy_promotes_total"] == 1
        assert snap["deploy_generation"] == 1
        assert snap["deploy_candidate_active"] == 0

    def test_promote_without_candidate_is_conflict(self, stack):
        gateway, _, _ = stack
        with pytest.raises(DeploymentError):
            gateway.deploy_promote()
        with pytest.raises(DeploymentError):
            gateway.deploy_rollback()

    def test_failed_stage_reports_unstaged(self, stack, make_artifact):
        gateway, manager, _ = stack
        bad = make_artifact("bad.npz", item_ids=[i + 1 for i in RAW_IDS])
        out = gateway.deploy_stage(str(bad))
        assert out["staged"] is False
        assert manager.candidate is None
        assert gateway.registry.snapshot()["deploy_swap_failures_total"] == 1


class TestCacheScopeSafety:
    """A demoted generation's rankings must never be served again."""

    def test_candidate_cache_entries_die_on_rollback(self, stack, make_artifact, base_weights):
        gateway, manager, _ = stack
        corrupted = make_artifact("v2.npz", weights=corrupt_weights(base_weights))
        gateway.deploy_stage(str(corrupted), canary_pct=100.0)

        sid = "canary-user"
        drive(gateway, sid)
        first = gateway.recommend(sid, k=5)
        assert first["source"] == "model" and manager.arm_for(sid) is manager.candidate
        assert gateway.recommend(sid, k=5)["cached"] is True  # cached under v2 scope

        gateway.deploy_rollback(reason="test")
        after = gateway.recommend(sid, k=5)
        assert after["cached"] is False  # v2-scoped entry is unservable
        assert after["items"] != first["items"]  # incumbent ranks differently
        again = gateway.recommend(sid, k=5)
        assert again["cached"] is True and again["items"] == after["items"]

    def test_promote_also_retires_incumbent_scoped_entries(self, stack, make_artifact, base_weights):
        gateway, manager, _ = stack
        sid = "incumbent-user"
        drive(gateway, sid)
        before = gateway.recommend(sid, k=5)
        assert gateway.recommend(sid, k=5)["cached"] is True

        corrupted = make_artifact("v2.npz", weights=corrupt_weights(base_weights))
        gateway.deploy_stage(str(corrupted), canary_pct=0.0)
        gateway.deploy_promote(reason="test")
        after = gateway.recommend(sid, k=5)
        assert after["cached"] is False
        assert after["items"] != before["items"]


class TestShadowDecisions:
    """Acceptance criteria: deterministic promote / rollback from shadow HR."""

    def test_identical_weights_candidate_promotes(self, stack, make_artifact):
        gateway, manager, _ = stack
        for i in range(6):
            drive(gateway, f"s{i}")
        assert gateway.deploy_stage(str(make_artifact("v2.npz")))["staged"]

        follow_recommendations(gateway, manager, rounds=60)
        events = [e["event"] for e in manager.timeline]
        assert "promoted" in events
        assert manager.generation == 1
        assert manager.incumbent.version == 2
        snap = gateway.registry.snapshot()
        assert snap["deploy_promotes_total"] == 1
        assert snap["shadow_observations"] >= manager.config.min_observations

    def test_corrupted_candidate_rolls_back(self, stack, make_artifact, base_weights):
        gateway, manager, _ = stack
        for i in range(6):
            drive(gateway, f"s{i}")
        incumbent_hash = manager.incumbent.param_hash
        corrupted = make_artifact("v2.npz", weights=corrupt_weights(base_weights))
        assert gateway.deploy_stage(str(corrupted), canary_pct=0.0)["staged"]

        follow_recommendations(gateway, manager, rounds=80)
        events = [e["event"] for e in manager.timeline]
        assert "rolled_back" in events and "promoted" not in events
        assert manager.generation == 0
        assert manager.incumbent.param_hash == incumbent_hash  # bit-identical
        assert gateway.registry.snapshot()["deploy_rollbacks_total"] == 1

    def test_decisions_are_deterministic_across_replays(
        self, artifact_path, make_artifact, base_weights, tmp_path
    ):
        """Same stream twice → byte-identical timeline of decisions."""
        corrupted_weights = corrupt_weights(base_weights)

        def run(run_dir):
            store = DeploymentStore(run_dir / "deploy")
            service = RecommenderService.from_artifact(artifact_path)
            manager = DeploymentManager(
                service,
                store=store,
                config=DeploymentConfig(
                    canary_pct=0.0, shadow_sample_pct=100.0, min_observations=5, window=50
                ),
                incumbent_path=str(artifact_path),
            )
            gateway = ServingGateway(
                service, GatewayConfig(), deployment=manager
            )
            gateway.batcher.start()
            try:
                for i in range(6):
                    drive(gateway, f"s{i}")
                corrupted = make_artifact(f"{run_dir.name}.npz", weights=corrupted_weights)
                gateway.deploy_stage(str(corrupted))
                follow_recommendations(gateway, manager, rounds=80)
            finally:
                gateway.batcher.stop()
            return [e["event"] for e in manager.timeline if e["event"] != "shadow_eval"]

        assert run(tmp_path / "a") == run(tmp_path / "b")


class TestChaos:
    """Faults in the deploy path must never surface as request failures."""

    def test_canary_assign_faults_never_fail_requests(self, stack, make_artifact):
        gateway, manager, _ = stack
        gateway.deploy_stage(str(make_artifact("v2.npz")))
        with armed("deploy.canary.assign", raising(RuntimeError("assign blew up")), every=5):
            for i in range(50):  # 20% of assignments fault; retries absorb all
                sid = f"chaos-{i}"
                drive(gateway, sid)
                result = gateway.recommend(sid, k=5)
                assert result["items"], result

    @pytest.mark.parametrize("site", SWAP_FAILPOINTS)
    def test_swap_crash_mid_traffic_keeps_serving(self, site, stack, make_artifact):
        gateway, manager, _ = stack
        sid = "steady-user"
        drive(gateway, sid)
        before = gateway.recommend(sid, k=5)["items"]

        with armed(site, crashing()):
            gateway.deploy_stage(str(make_artifact("v2.npz")))
        assert manager.candidate is None
        after = gateway.recommend(sid, k=5)
        assert after["items"] == before  # incumbent, bit-identical behavior


def http_json(url, payload=None):
    if payload is not None:
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
        )
    else:
        req = url
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


@pytest.mark.slow
class TestHTTPAdmin:
    """The /deploy control plane over real sockets."""

    @pytest.fixture()
    def server(self, stack):
        gateway, manager, store = stack
        gateway.start()
        try:
            yield gateway, manager
        finally:
            gateway.stop()

    def test_deploy_routes(self, server, make_artifact):
        gateway, manager = server
        status, body = http_json(f"{gateway.address}/deploy")
        assert status == 200 and body["incumbent"]["version"] == 1

        status, body = http_json(
            f"{gateway.address}/deploy",
            {"artifact": str(make_artifact("v2.npz")), "canary_pct": 25.0},
        )
        assert status == 200 and body["staged"] is True

        status, body = http_json(f"{gateway.address}/deploy/promote", {"reason": "ship it"})
        assert status == 200 and body["promoted"] == 2

        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{gateway.address}/deploy/promote", {})
        assert err.value.code == 409  # no candidate live

    def test_failed_stage_maps_to_conflict(self, server, make_artifact):
        gateway, _ = server
        bad = make_artifact("bad.npz", item_ids=[i + 1 for i in RAW_IDS])
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{gateway.address}/deploy", {"artifact": str(bad)})
        assert err.value.code == 409

    def test_stage_without_artifact_is_bad_request(self, server):
        gateway, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{gateway.address}/deploy", {"wait": True})
        assert err.value.code == 400
