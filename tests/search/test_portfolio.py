"""Portfolio runner: determinism, merging, checkpoints and resume."""

import numpy as np
import pytest

from repro.core.pareto import dominates
from repro.errors import StoreError
from repro.search import HillClimbStrategy, PortfolioRunner
from repro.store import ArtifactStore, RunLedger


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _run(space, models, *, store=None, rounds=2,
         strategies=("hill", "nsga2:population_size=12", "random"),
         budget=500, seed=11, resume_from=None):
    qor, hw = models
    return PortfolioRunner(
        space, qor, hw, strategies=strategies, rounds=rounds,
        seed=seed, store=store,
    ).run(budget, resume_from=resume_from)


class TestPortfolioRun:
    def test_front_mutually_nondominated(self, sobel_space, models):
        result = _run(sobel_space, models)
        minimised = np.stack(
            [-result.points[:, 0], result.points[:, 1]], axis=1
        )
        for i in range(len(minimised)):
            for j in range(len(minimised)):
                assert not dominates(minimised[i], minimised[j])
        for config in result.configs:
            sobel_space.validate_configuration(config)

    def test_budget_spent_exactly(self, sobel_space, models):
        result = _run(sobel_space, models, budget=437)
        assert result.evaluations == 437
        assert sum(r.evaluations for r in result.islands) == 437

    def test_bit_identical_across_workers(self, sobel_space, models,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = _run(sobel_space, models)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        parallel = _run(sobel_space, models)
        assert serial.configs == parallel.configs
        assert np.array_equal(serial.points, parallel.points)
        assert serial.evaluations == parallel.evaluations
        assert [
            (r.round, r.island, r.evaluations) for r in serial.islands
        ] == [
            (r.round, r.island, r.evaluations) for r in parallel.islands
        ]

    def test_deterministic_same_seed(self, sobel_space, models):
        a = _run(sobel_space, models, seed=4)
        b = _run(sobel_space, models, seed=4)
        assert a.configs == b.configs
        assert np.array_equal(a.points, b.points)


class TestCheckpointResume:
    def test_manifest_and_checkpoint_recorded(
        self, sobel_space, models, store
    ):
        result = _run(sobel_space, models, store=store, rounds=3)
        assert result.run_id is not None
        ledger = RunLedger(store.root)
        manifest = ledger.get(result.run_id)
        assert manifest["kind"] == "search"
        assert manifest["status"] == "complete"
        assert len(manifest["stages"]) == 3
        extra = manifest["extra"]
        assert extra["evaluations"] == result.evaluations
        payload = store.get(
            extra["checkpoint"]["kind"], extra["checkpoint"]["key"]
        )
        assert payload["round"] == 3
        assert payload["spent"] == result.evaluations
        assert len(payload["front"]["configs"]) == len(result)

    def test_interrupted_run_resumes_bit_identical(
        self, sobel_space, models, store, monkeypatch
    ):
        """Kill the search after round 0; resume must reconverge exactly."""

        class Exploding(HillClimbStrategy):
            def run(self, *args, **kwargs):
                state = kwargs.get("state")
                if state.get("ran"):
                    raise RuntimeError("simulated crash")
                state["ran"] = True
                return super().run(*args, **kwargs)

        strategies = ("hill", "random")
        reference = _run(
            sobel_space, models, strategies=strategies, rounds=3,
            budget=450, seed=9,
        )

        qor, hw = models
        # In-process: the test-local strategy class cannot be pickled
        # into pool workers.
        with monkeypatch.context() as m, pytest.raises(
            RuntimeError, match="simulated crash"
        ):
            m.setenv("REPRO_WORKERS", "1")
            PortfolioRunner(
                sobel_space, qor, hw,
                strategies=(Exploding(), "random"), rounds=3,
                seed=9, store=store,
            ).run(450)
        partial = RunLedger(store.root).latest()
        assert partial["status"] == "partial"
        assert partial["extra"]["round"] == 1

        resumed = _run(
            sobel_space, models, strategies=strategies, rounds=3,
            budget=450, seed=9, store=store,
            resume_from=partial["run_id"],
        )
        assert resumed.configs == reference.configs
        assert np.array_equal(resumed.points, reference.points)
        assert resumed.evaluations == reference.evaluations
        manifest = RunLedger(store.root).get(resumed.run_id)
        assert manifest["status"] == "complete"
        assert manifest["extra"]["resumed_from"] == partial["run_id"]

    def test_resume_of_complete_run_returns_front(
        self, sobel_space, models, store
    ):
        done = _run(sobel_space, models, store=store)
        again = _run(
            sobel_space, models, store=store, resume_from=done.run_id,
        )
        assert again.configs == done.configs
        assert again.evaluations == done.evaluations
        assert again.run_id == done.run_id  # nothing new recorded

    def test_resume_rejects_mismatched_strategies(
        self, sobel_space, models, store
    ):
        done = _run(sobel_space, models, store=store)
        with pytest.raises(StoreError, match="do not match"):
            _run(
                sobel_space, models, store=store,
                strategies=("random",), resume_from=done.run_id,
            )

    def test_resume_without_store_rejected(self, sobel_space, models):
        with pytest.raises(StoreError, match="store"):
            _run(sobel_space, models, resume_from="nope")
