"""Shared parallel runtime: pool rule, shm lifecycle, spawn identity.

The runtime's three load-bearing promises are pinned here:

* the **pool rule**: a batch fans out over
  ``min(default_workers(), usable_cores(), len(tasks))`` processes, and
  runs in-process when that is below 2, inside a worker or under
  ``REPRO_PARALLEL=never``; the pool is started once and never resized,
  so concurrent batches of different sizes share it;
* every published **shared-memory segment** is tracked and unlinked —
  after normal use, worker crashes, ``KeyboardInterrupt`` and plain
  interpreter exit (asserted against ``/dev/shm`` directly);
* execution is **bit-identical for any worker count and any start
  method** — including the forced-``spawn`` path that non-fork
  platforms take.
"""

from __future__ import annotations

import ast
import glob
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import runtime as rt
from repro.core.engine import EvaluationEngine
from repro.core.runtime import (
    MIN_SHARED_ARRAY_BYTES,
    ParallelRuntime,
    get_runtime,
    reset_runtime,
)
from repro.library.generation import GenerationPlan
from repro.library.io import library_payload
from repro.library.pipeline import build_library


@pytest.fixture()
def two_cores(monkeypatch):
    """Let the pool rule fan out to two workers on any host."""
    monkeypatch.setattr(rt, "usable_cores", lambda: 2)


def _use_workers(monkeypatch, count):
    """Set the process-wide worker count the runtime resolves."""
    monkeypatch.setenv("REPRO_WORKERS", str(count))


@pytest.fixture()
def fresh_runtime():
    """Isolate each test's singleton (and its pool/segments)."""
    reset_runtime()
    yield get_runtime()
    reset_runtime()


def _shm_entries(pid: int):
    return glob.glob(f"/dev/shm/repro-{pid}-*")


# Module-level task functions (the runtime's fn(context, task) contract).

def _sum_task(context, n):
    (arr,) = context
    return int(arr[:n].sum())


def _flags_task(context, n):
    (arr,) = context
    return bool(arr.flags.writeable)


def _crash_task(context, n):
    # Only die when this actually runs inside a pool worker.
    if rt._IN_WORKER:
        os._exit(13)
    return n


def _interrupt_task(context, n):
    if rt._IN_WORKER:
        raise KeyboardInterrupt
    return n


BIG = np.arange(100_000, dtype=np.int64)  # well above the shm threshold


class TestWorkersConventions:
    def test_search_and_pipeline_share_the_convention(self):
        import repro.library.pipeline as pipeline_mod
        import repro.search.portfolio as portfolio_mod

        src_p = open(pipeline_mod.__file__).read()
        src_s = open(portfolio_mod.__file__).read()
        for src in (src_p, src_s):
            assert "def validate_workers" not in src
            assert 'get_context("fork")' not in src

    def test_only_the_runtime_takes_a_worker_count(self):
        """No function outside the runtime takes a worker count, and no
        class holds one (the library build only reports it)."""
        root = Path(rt.__file__).resolve().parents[1]
        found = []
        for path in sorted(root.rglob("*.py")):
            if path.name == "runtime.py" and path.parent.name == "core":
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    args = node.args
                    names = [
                        a.arg for a in
                        args.posonlyargs + args.args + args.kwonlyargs
                    ]
                    found += [
                        f"{path.name}:{node.name}({name})"
                        for name in names if name.endswith("workers")
                    ]
                elif (isinstance(node, ast.ClassDef)
                      and node.name != "LibraryBuildStats"):
                    found += [
                        f"{path.name}:{node.name}.{item.target.id}"
                        for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.target.id.endswith("workers")
                    ]
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and node.attr.endswith("workers")):
                    found.append(f"{path.name}:self.{node.attr}")
        assert found == []


def _batches(runtime):
    return (
        runtime.stats["serial_batches"], runtime.stats["parallel_batches"]
    )


@pytest.mark.usefixtures("two_cores")
class TestPoolRule:
    def test_no_workers_stays_serial(self, fresh_runtime, monkeypatch):
        """``REPRO_WORKERS=1`` keeps a batch in-process on a multi-core
        host."""
        _use_workers(monkeypatch, 1)
        out = fresh_runtime.map(_sum_task, [5, 10], context=(BIG,))
        assert out == [10, 45]
        assert _batches(fresh_runtime) == (1, 0)

    def test_default_fans_out_over_usable_cores(
        self, fresh_runtime, monkeypatch
    ):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        out = fresh_runtime.map(_sum_task, [5, 10], context=(BIG,))
        assert out == [10, 45]
        assert _batches(fresh_runtime) == (0, 1)

    def test_applied_count_overrides_env(self, fresh_runtime,
                                         monkeypatch):
        """The ``--workers`` count ``use_workers`` applies wins over
        ``REPRO_WORKERS`` and is dropped when the block ends."""
        _use_workers(monkeypatch, 4)
        with rt.use_workers(1):
            assert rt.default_workers() is None
            fresh_runtime.map(_sum_task, [5, 10], context=(BIG,))
        assert rt.default_workers() == 4
        fresh_runtime.map(_sum_task, [5, 10], context=(BIG,))
        assert _batches(fresh_runtime) == (1, 1)

    def test_single_task_stays_serial(self, fresh_runtime, monkeypatch):
        _use_workers(monkeypatch, 4)
        out = fresh_runtime.map(_sum_task, [3], context=(BIG,))
        assert out == [3]
        assert _batches(fresh_runtime) == (1, 0)

    def test_parallel_never_env(self, fresh_runtime, monkeypatch):
        _use_workers(monkeypatch, 4)
        monkeypatch.setenv("REPRO_PARALLEL", "never")
        fresh_runtime.map(_sum_task, [2, 3, 4], context=(BIG,))
        assert _batches(fresh_runtime) == (1, 0)

    def test_single_core_floor_is_exact(self, fresh_runtime, monkeypatch):
        """On one usable core, a count of 4 runs the literal serial
        path."""
        _use_workers(monkeypatch, 4)
        monkeypatch.setattr(rt, "usable_cores", lambda: 1)
        fresh_runtime.map(_sum_task, [2, 3, 4], context=(BIG,))
        assert _batches(fresh_runtime) == (1, 0)
        assert fresh_runtime.stats["contexts_published"] == 0

    def test_small_batch_with_workers_fans_out(self, fresh_runtime,
                                               monkeypatch):
        _use_workers(monkeypatch, 4)
        out = fresh_runtime.map(_sum_task, [1, 2, 3, 4], context=(BIG,))
        assert out == [0, 1, 3, 6]
        assert _batches(fresh_runtime) == (0, 1)

    def test_nested_calls_inside_workers_stay_serial(
        self, fresh_runtime, monkeypatch
    ):
        _use_workers(monkeypatch, 4)
        monkeypatch.setattr(rt, "_IN_WORKER", True)
        fresh_runtime.map(_sum_task, [2, 3], context=(BIG,))
        assert _batches(fresh_runtime) == (1, 0)

    def test_empty_batch(self, fresh_runtime, monkeypatch):
        _use_workers(monkeypatch, 2)
        assert fresh_runtime.map(_sum_task, [], context=(BIG,)) == []
        assert _batches(fresh_runtime) == (1, 0)

    def test_bad_parallel_env_rejected(self, fresh_runtime, monkeypatch):
        _use_workers(monkeypatch, 2)
        for mode in ("sometimes", "always"):
            monkeypatch.setenv("REPRO_PARALLEL", mode)
            with pytest.raises(ValueError, match="REPRO_PARALLEL"):
                fresh_runtime.map(_sum_task, [1, 2], context=(BIG,))


@pytest.mark.usefixtures("two_cores")
class TestParallelExecution:
    def test_forced_parallel_matches_serial(self, fresh_runtime,
                                            monkeypatch):
        tasks = list(range(2, 40))
        _use_workers(monkeypatch, 1)
        serial = fresh_runtime.map(_sum_task, tasks, context=(BIG,))
        _use_workers(monkeypatch, 2)
        parallel = fresh_runtime.map(_sum_task, tasks, context=(BIG,))
        assert parallel == serial
        assert _batches(fresh_runtime) == (1, 1)

    def test_imap_streams_in_task_order(self, fresh_runtime, monkeypatch):
        _use_workers(monkeypatch, 2)
        tasks = list(range(1, 20))
        out = list(fresh_runtime.imap(_sum_task, tasks, context=(BIG,)))
        assert out == [int(BIG[:n].sum()) for n in tasks]

    def test_workers_see_zero_copy_readonly_views(self, fresh_runtime,
                                                  monkeypatch):
        _use_workers(monkeypatch, 2)
        flags = fresh_runtime.map(
            _flags_task, [1, 2, 3, 4], context=(BIG,)
        )
        # Every task attaches the published read-only shm view.
        assert flags == [False] * 4

    def test_pool_and_context_are_reused_across_batches(
        self, fresh_runtime, monkeypatch
    ):
        _use_workers(monkeypatch, 2)
        context = (BIG,)
        fresh_runtime.map(_sum_task, [1, 2, 3], context=context)
        published = fresh_runtime.stats["contexts_published"]
        segments = fresh_runtime.tracked_segments()
        fresh_runtime.map(_sum_task, [4, 5, 6], context=context)
        assert fresh_runtime.stats["contexts_published"] == published
        assert fresh_runtime.stats["context_cache_hits"] >= 1
        assert fresh_runtime.tracked_segments() == segments

    def test_concurrent_batches_of_different_sizes_share_the_pool(
        self, fresh_runtime, monkeypatch
    ):
        """Two threads mapping batches of 3 and 8 tasks (what ``repro
        serve --parallel-jobs 2`` does) both complete: a batch never
        shuts down the pool another thread is using."""
        monkeypatch.setattr(rt, "usable_cores", lambda: 4)
        _use_workers(monkeypatch, 4)
        errors = []

        def batches(size):
            tasks = list(range(1, size + 1))
            expected = [int(BIG[:n].sum()) for n in tasks]
            for _ in range(6):
                try:
                    out = fresh_runtime.map(
                        _sum_task, tasks, context=(BIG,)
                    )
                    assert out == expected
                except Exception as exc:  # collected for the main thread
                    errors.append(repr(exc))

        threads = [
            threading.Thread(target=batches, args=(size,))
            for size in (3, 8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert _batches(fresh_runtime) == (0, 12)


class TestShmLifecycle:
    def test_normal_close_unlinks_everything(
        self, fresh_runtime, monkeypatch
    ):
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        _use_workers(monkeypatch, 2)
        fresh_runtime.map(_sum_task, [1, 2, 3], context=(BIG,))
        assert fresh_runtime.tracked_segments()
        assert _shm_entries(os.getpid())
        fresh_runtime.close()
        assert fresh_runtime.tracked_segments() == []
        assert _shm_entries(os.getpid()) == []

    def test_worker_crash_cleans_up_and_recovers(
        self, fresh_runtime, monkeypatch
    ):
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        _use_workers(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool):
            fresh_runtime.map(_crash_task, [1, 2, 3, 4], context=(BIG,))
        # The runtime recovers with a fresh pool...
        out = fresh_runtime.map(_sum_task, [2, 3], context=(BIG,))
        assert out == [1, 3]
        # ...and still owns (and can unlink) every segment.
        fresh_runtime.close()
        assert _shm_entries(os.getpid()) == []

    def test_keyboard_interrupt_cleans_up(
        self, fresh_runtime, monkeypatch
    ):
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        _use_workers(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            fresh_runtime.map(_interrupt_task, [1, 2, 3], context=(BIG,))
        fresh_runtime.close()
        assert _shm_entries(os.getpid()) == []

    def test_interpreter_exit_unlinks_segments(self, tmp_path):
        """atexit cleanup: no /dev/shm leak even without close()."""
        script = textwrap.dedent(
            """
            import os
            import numpy as np
            from repro.core import runtime as rt

            rt.usable_cores = lambda: 2
            runtime = rt.get_runtime()
            arr = np.arange(100_000, dtype=np.int64)

            def task(context, n):
                return int(context[0][:n].sum())

            out = runtime.map(task, [1, 2, 3], context=(arr,))
            assert out == [0, 1, 3]
            assert runtime.tracked_segments()
            print(os.getpid())
            # exit WITHOUT close(): atexit must unlink the segments
            """
        )
        env = dict(os.environ, REPRO_WORKERS="2")
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        child_pid = int(proc.stdout.strip().splitlines()[-1])
        assert _shm_entries(child_pid) == []

    def test_context_eviction_unlinks_old_segments(self):
        runtime = ParallelRuntime(max_contexts=2)
        try:
            refs = []
            for i in range(5):
                ctx = (np.arange(50_000, dtype=np.int64) + i,)
                refs.append(runtime.publish(ctx))
            # Only the two newest contexts may still own segments.
            alive = runtime.tracked_segments()
            assert len(alive) <= 4  # <= 2 contexts x (array + payload)
            assert runtime.stats["segments_created"] == 10
        finally:
            runtime.close()
        assert runtime.tracked_segments() == []

    def test_forked_children_never_unlink_parent_segments(
        self, fresh_runtime, monkeypatch
    ):
        """close() in an inheriting process must be a no-op."""
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        _use_workers(monkeypatch, 2)
        fresh_runtime.map(_sum_task, [1, 2, 3], context=(BIG,))
        before = fresh_runtime.tracked_segments()
        assert before
        pid = os.fork()
        if pid == 0:  # child: inherited runtime object, not owner
            fresh_runtime.close()
            os._exit(0)
        os.waitpid(pid, 0)
        assert fresh_runtime.tracked_segments() == before
        assert len(_shm_entries(os.getpid())) == len(before)


class TestSharedArrayPublication:
    def test_large_arrays_ride_shared_memory(self, fresh_runtime):
        arr = np.arange(
            MIN_SHARED_ARRAY_BYTES // 8 + 1, dtype=np.int64
        )
        ref = fresh_runtime.publish((arr,))
        assert ref is not None
        # context payload segment + one hoisted array segment
        assert len(fresh_runtime.tracked_segments()) == 2

    def test_small_arrays_stay_inline(self, fresh_runtime):
        arr = np.arange(8, dtype=np.int64)
        fresh_runtime.publish((arr,))
        assert len(fresh_runtime.tracked_segments()) == 1

    def test_no_shm_mode_falls_back_to_inline_blobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        _use_workers(monkeypatch, 2)
        runtime = ParallelRuntime()
        try:
            out = runtime.map(_sum_task, [2, 3, 4], context=(BIG,))
            assert out == [1, 3, 6]
            assert runtime.tracked_segments() == []
        finally:
            runtime.close()


class TestForcedSpawn:
    """Satellite: the non-fork path must be bit-identical (and exist)."""

    def test_spawn_evaluate_many_matches_serial(
        self, fixed_gf, small_images, gf_space, monkeypatch
    ):
        # A non-LUT space: evaluate_many takes the pool route on it.
        reset_runtime()
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        try:
            assert get_runtime().start_method == "spawn"
            configs = gf_space.random_configurations(6, rng=7)
            _use_workers(monkeypatch, 1)
            serial = EvaluationEngine(
                fixed_gf, small_images
            ).evaluate_many(gf_space, configs)
            _use_workers(monkeypatch, 2)
            spawned = EvaluationEngine(
                fixed_gf, small_images
            ).evaluate_many(gf_space, configs)
            assert pickle.dumps(serial) == pickle.dumps(spawned)
        finally:
            reset_runtime()

    def test_spawn_library_build_matches_serial(self, monkeypatch):
        plan = GenerationPlan(
            {("add", 4): 10, ("mul", 4): 6}, seed=3, sample_size=1 << 10
        )
        reset_runtime()
        _use_workers(monkeypatch, 1)
        serial = build_library(plan, chunk_size=4)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        _use_workers(monkeypatch, 2)
        try:
            spawned = build_library(plan, chunk_size=4)
            assert library_payload(spawned.library) == library_payload(
                serial.library
            )
        finally:
            reset_runtime()

    def test_invalid_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "thread")
        with pytest.raises(ValueError, match="REPRO_START_METHOD"):
            ParallelRuntime()
