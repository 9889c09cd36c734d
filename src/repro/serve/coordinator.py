"""The serving coordinator: coalescing, caching, metering, ledgering.

The coordinator sits between the async HTTP front end and the
synchronous evaluation stack.  Its contract:

* **one pass per distinct computation** — concurrent submissions with
  the same :meth:`~repro.serve.jobs.JobRequest.job_key` are *coalesced*
  onto one in-flight pipeline execution; every follower gets the
  leader's result document the moment it lands.  The pipeline itself
  batches all real evaluations of a pass through
  ``EvaluationEngine.evaluate_many`` on the shared
  :class:`~repro.core.runtime.ParallelRuntime`, so N clients asking for
  the same workload cost exactly one engine pass;
* **warm answers never recompute** — finished results are kept in a
  bounded in-memory LRU; repeat submissions are answered immediately
  (``source: "memory"``, zero synthesis, zero fits).  Cache misses
  still run against the persistent
  :class:`~repro.store.artifacts.ArtifactStore`, so a restarted server
  replays stages from the store (``source: "store"`` when every stage
  hits);
* **per-API-key metering** — each cold pass charges the submitting
  account's thread-safe :class:`~repro.core.budget.EvaluationBudget`
  *before* any model call; an exhausted budget fails the job without
  touching the engine.  Coalesced and cache-served jobs are free;
* **everything is ledgered** — with a store attached, every job lands
  in the :class:`~repro.store.ledger.RunLedger` as a ``serve-job``
  manifest (API key id, request params, cache source, outcome, and the
  underlying pipeline run id), so ``repro runs list --kind serve-job``
  is the service's audit log.

Job execution runs on a single worker thread by default
(``parallel_jobs=1``): passes serialise, and the parallelism lives
*inside* a pass (the runtime's worker count, ``--workers`` /
``REPRO_WORKERS``, fans out the real evaluations).  Concurrent passes
(``parallel_jobs > 1``) share the runtime's one fixed-size pool.  All
job-state mutation is marshalled back onto the event-loop thread.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.serve.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SOURCE_COALESCED,
    SOURCE_COLD,
    SOURCE_MEMORY,
    SOURCE_STORE,
    Job,
    JobBoard,
    JobRequest,
    job_result_doc,
)
from repro.telemetry import get_metrics, maybe_span

#: Finished result documents kept for instant warm answers.
MEMORY_CACHE_SIZE = 128


class Coordinator:
    """Batching job executor (see module docstring)."""

    def __init__(
        self,
        store=None,
        parallel_jobs: int = 1,
    ):
        if parallel_jobs < 1:
            raise ValueError("parallel_jobs must be >= 1")
        self.store = store
        self.board = JobBoard()
        self._executor = ThreadPoolExecutor(
            max_workers=parallel_jobs, thread_name_prefix="serve-job"
        )
        #: job_key -> jobs sharing the in-flight execution (leader first).
        self._inflight: Dict[str, List[Job]] = {}
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()
        self._ledger = None
        if store is not None:
            from repro.store import RunLedger

            self._ledger = RunLedger(store)
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "pipeline_passes": 0,
            "coalesced": 0,
            "memory_hits": 0,
            "store_warm": 0,
            "done": 0,
            "failed": 0,
        }

    # -- submission (event-loop thread) --------------------------------------

    async def submit(self, account, request: JobRequest) -> Job:
        """Admit one job: cache-hit, coalesce, or start a new pass."""
        job = Job(
            id=self.board.new_id(),
            request=request,
            account_name=account.name,
            key_id=account.key_id,
        )
        self.board.add(job)
        account.jobs_submitted += 1
        self.stats["submitted"] += 1
        metrics = get_metrics()
        metrics.inc("serve.submitted")

        key = request.job_key()
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats["memory_hits"] += 1
            metrics.inc("serve.memory_hits")
            self._finish(job, result=dict(cached), source=SOURCE_MEMORY)
            await self.board.notify()
            return job

        group = self._inflight.get(key)
        if group is not None:
            self.stats["coalesced"] += 1
            metrics.inc("serve.coalesced")
            group.append(job)
            if group[0].status == RUNNING:
                job.status = RUNNING
                job.started_at = time.time()
            await self.board.notify()
            return job

        self._inflight[key] = [job]
        asyncio.get_running_loop().create_task(
            self._execute(key, request, account)
        )
        return job

    # -- execution -----------------------------------------------------------

    async def _execute(self, key: str, request: JobRequest, account):
        loop = asyncio.get_running_loop()
        for job in self._inflight[key]:
            if job.status == QUEUED:
                job.status = RUNNING
                job.started_at = time.time()
        await self.board.notify()
        self.stats["pipeline_passes"] += 1
        get_metrics().inc("serve.pipeline_passes")
        try:
            doc = await loop.run_in_executor(
                self._executor, self._run_pass, request, account
            )
        except Exception as exc:  # noqa: BLE001 - jobs report, not crash
            group = self._inflight.pop(key)
            message = f"{type(exc).__name__}: {exc}"
            for job in group:
                self._finish(job, error=message)
        else:
            group = self._inflight.pop(key)
            stage_cache = doc.get("stage_cache") or {}
            warm = bool(stage_cache) and all(
                outcome == "hit" for outcome in stage_cache.values()
            )
            if warm:
                self.stats["store_warm"] += 1
                get_metrics().inc("serve.store_warm")
            self._memory[key] = doc
            while len(self._memory) > MEMORY_CACHE_SIZE:
                self._memory.popitem(last=False)
            for position, job in enumerate(group):
                self._finish(
                    job,
                    result=dict(doc),
                    source=(
                        (SOURCE_STORE if warm else SOURCE_COLD)
                        if position == 0 else SOURCE_COALESCED
                    ),
                )
        await self.board.notify()

    def _run_pass(self, request: JobRequest, account) -> Dict:
        """One pipeline pass (runs on the executor thread).

        The admission charge happens here, *before* the engine sees the
        job, through the account's thread-safe budget — concurrent
        passes for one key can never jointly overspend it.
        """
        from repro.experiments.setup import run_workload_pipeline

        account.budget.charge(request.evals)
        with maybe_span(
            "serve.pass", cat="serve",
            args={"workload": request.workload,
                  "evals": request.evals},
        ):
            setup, result = run_workload_pipeline(
                request.workload,
                scale=request.scale,
                n_images=request.images,
                train=request.train,
                evals=request.evals,
                seed=request.seed,
                store=self.store,
            )
        return job_result_doc(request, setup, result)

    # -- completion (event-loop thread) --------------------------------------

    def _finish(
        self,
        job: Job,
        result: Optional[Dict] = None,
        source: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        job.finished_at = time.time()
        if job.started_at is None:
            job.started_at = job.finished_at
        metrics = get_metrics()
        if error is not None:
            job.status = FAILED
            job.error = error
            self.stats["failed"] += 1
            metrics.inc("serve.failed")
        else:
            job.status = DONE
            job.result = result
            job.source = source
            self.stats["done"] += 1
            metrics.inc("serve.done")
        latency = job.finished_at - (job.created_at or job.finished_at)
        metrics.observe(
            f"serve.job_seconds.{job.source or 'failed'}", latency
        )
        self._record(job)

    def _record(self, job: Job) -> None:
        """One ``serve-job`` ledger manifest per finished job."""
        if self._ledger is None:
            return
        from repro.store import RunLedger
        from repro.store.hashing import content_hash

        result = job.result or {}
        self._ledger.record(
            RunLedger.new_run_id(),
            kind="serve-job",
            label=f"serve:{job.request.workload}",
            params={
                **job.request.as_dict(),
                "job_id": job.id,
                "account": job.account_name,
                "api_key": job.key_id,
            },
            config_hash=content_hash(
                {"serve-job": job.request.as_dict()}
            ),
            stages=[
                {
                    "name": "serve",
                    "seconds": round(
                        (job.finished_at or 0.0)
                        - (job.created_at or 0.0),
                        6,
                    ),
                    "cache": job.source or "none",
                    "artifacts": [],
                }
            ],
            seed=job.request.seed,
            status="complete" if job.status == DONE else "failed",
            extra={
                "source": job.source,
                "error": job.error,
                "pipeline_run_id": result.get("run_id"),
                "engine_stats": result.get("engine_stats"),
                "metrics": get_metrics().snapshot(),
            },
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain the worker thread(s); safe to call repeatedly."""
        self._executor.shutdown(wait=True, cancel_futures=True)
