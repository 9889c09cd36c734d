"""Command-line interface: ``python -m repro <command>``.

Commands

* ``inventory`` — print the operation inventory of the case-study
  accelerators (Table 1).
* ``generate-library`` — build and characterise a component library
  through the parallel construction pipeline (``--workers`` processes,
  per-component memoisation with ``--store``, per-chunk progress lines
  on stderr) and save it as JSON (``--out``) and/or into the store.
* ``profile`` — profile an accelerator on the synthetic benchmark set and
  print per-operation operand statistics (Fig. 3 numbers).
* ``run`` — execute the full autoAx pipeline and print (optionally save)
  the final Pareto front.
* ``workloads`` — ``list`` the registered workloads or ``run <name>``:
  the full pipeline on any registry entry, with a library generated (and
  cached) to cover exactly that workload's operation signatures.
* ``search`` — the ``workloads run`` pipeline stopped after its
  pseudo-Pareto stage: profile with the workload's scenarios, reduce,
  fit the ``--engines`` models, then run the paper's hill climber
  (Algorithm 1) for exactly ``--budget`` model evaluations and print
  the pseudo-Pareto front.  It shares stage-cache keys with ``workloads
  run``.
* ``runs`` — the persistent experiment store's run ledger: ``list`` and
  ``show`` recorded runs, ``resume`` one (``run``, ``workloads run`` or
  ``search``) by re-executing its recorded params against the warm
  store, ``gc`` artifacts no manifest references.
* ``export-verilog`` — lower an accelerator with exact components and
  write structural Verilog.

``run``, ``workloads run``, ``search`` and ``runs resume`` go through
one front door (``_run_pipeline``).  With a store it first looks up the
``result`` artifact an identical earlier command recorded, keyed by the
command's params, a digest of the package source and the bytes of a
``--library`` file (:mod:`repro.store.replay`), before numpy or any
accelerator is imported: a full hit (checksum good, every referenced
stage artifact present, the recording manifest still there) prints the
recorded output, counts itself on that manifest (``replays``) and
writes no manifest of its own.  Any miss, and every resume, names the
command's inputs by keys that already fix them and runs the stages
through one builder; the pipeline writes that run's manifest and the
command records the result for the next replay.

Store-aware commands accept ``--store [URI]``/``--no-store`` to enable
the persistent stage cache (default: on when ``REPRO_STORE_DIR`` is
set).  The optional URI is ``sqlite:PATH`` or a bare path; any other
scheme is rejected.  ``run``, ``workloads run``,
``search`` and every ``runs`` command accept ``--json`` for
machine-readable output (stable key order, ``version`` field).  With
``--json``, stdout carries the JSON document and nothing else —
progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError, ValidationError
from repro.telemetry import get_logger, setup_logging
from repro.utils.tabulate import format_table


def _accelerator(module: str, name: str) -> Callable[[], object]:
    """A constructor that imports its accelerator class when called."""
    def build():
        return getattr(importlib.import_module(module), name)()
    return build


#: Accelerator name -> constructor.  A class is imported only when a
#: command builds it, so a served replay loads no accelerator.
ACCELERATORS = {
    "sobel": _accelerator("repro.accelerators.sobel", "SobelEdgeDetector"),
    "fixed_gf": _accelerator(
        "repro.accelerators.gaussian_fixed", "FixedGaussianFilter"
    ),
    "generic_gf": _accelerator(
        "repro.accelerators.gaussian_generic", "GenericGaussianFilter"
    ),
}

#: Version of every ``--json`` document this CLI emits.
JSON_VERSION = 1


def _emit_json(doc: Dict) -> None:
    """Print a machine-readable result (sorted keys, version field)."""
    doc = {"version": JSON_VERSION, **doc}
    print(json.dumps(doc, sort_keys=True, indent=2))


@contextlib.contextmanager
def _tracing(command: str, trace_path: Optional[str]):
    """Span-trace one CLI command when ``--trace``/``REPRO_TRACE`` asks.

    Installs a process-wide :class:`~repro.telemetry.tracing.Tracer`,
    wraps the whole command in one top-level ``cli.<command>`` span
    (worker spans parent under it through the runtime piggyback), and
    writes the Chrome trace-event JSON on the way out — including when
    the command raises, so a failed run still leaves its timeline.
    """
    import os

    from repro.telemetry import TRACE_ENV, Tracer, install_tracer
    from repro.telemetry import uninstall_tracer

    if trace_path is None:
        raw = os.environ.get(TRACE_ENV)
        if raw is not None:
            if not raw.strip():
                raise ValidationError(
                    f"{TRACE_ENV} must name a trace output file, "
                    f"got {raw!r}"
                )
            trace_path = raw.strip()
    if trace_path is None:
        yield
        return
    tracer = Tracer()
    install_tracer(tracer)
    try:
        with tracer.span(f"cli.{command}", cat="cli"):
            yield
    finally:
        uninstall_tracer()
        tracer.write(trace_path)
        get_logger("cli").info(
            "trace written", extra={"data": {"file": trace_path}}
        )


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON timeline of this "
             "command (default: REPRO_TRACE env, else off)",
    )


def _workers_arg(text: str) -> int:
    """argparse type for ``--workers``: clear error on bad values.

    This is the one place the flag is validated.  The value is kept
    verbatim — an explicit ``--workers 1`` must reach the runtime as 1
    (forcing in-process execution) rather than collapsing to the
    ``REPRO_WORKERS`` fallback; :func:`main` applies it for the
    command through :func:`repro.settings.use_workers`.
    """
    from repro.settings import validate_workers

    try:
        validate_workers(text, source="--workers")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_workers_arg, default=None,
        help="worker processes for every parallel stage "
             "(default: REPRO_WORKERS env, else every usable core; "
             "0 or 1 run in-process)",
    )


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", nargs="?", const=True, default=None, metavar="URI",
        help="persist/reuse pipeline stages in the experiment store; "
             "optionally a store URI (sqlite:PATH or a bare path) "
             "(default: enabled when REPRO_STORE_DIR is set)",
    )
    parser.add_argument(
        "--no-store", action="store_const", const=False, dest="store",
        help="disable the experiment store",
    )


def _add_accelerator_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--accelerator",
        choices=sorted(ACCELERATORS),
        default="sobel",
        help="target accelerator (default: sobel)",
    )


def _resolve_store(flag):
    """Map ``--store [URI]`` / ``--no-store`` to a store (or None).

    ``None`` (unset) enables the store iff ``REPRO_STORE_DIR`` is set;
    ``True``/``False`` force it on/off; a string is a ``sqlite:PATH``
    store URI or plain path.
    """
    import os

    from repro.store import STORE_ENV, open_store

    if isinstance(flag, str):
        return open_store(flag)
    if flag is None:
        flag = os.environ.get(STORE_ENV) is not None
    return open_store() if flag else None


def _cmd_inventory(args: argparse.Namespace) -> int:
    from repro.experiments.table1_operations import (
        TABLE1_COLUMNS,
        table1_rows,
    )

    rows = table1_rows()
    headers = ["Problem"] + [
        f"{kind}{width}" for kind, width in TABLE1_COLUMNS
    ] + ["Total"]
    print(
        format_table(
            headers,
            [[r["problem"], *r["counts"], r["total"]] for r in rows],
        )
    )
    return 0


def _cmd_generate_library(args: argparse.Namespace) -> int:
    from repro.experiments.setup import default_library_key
    from repro.library.generation import scaled_plan
    from repro.library.io import save_library
    from repro.library.pipeline import build_library

    log = get_logger("library")
    store = _resolve_store(args.store)
    if not args.out and store is None:
        raise ValidationError("generate-library needs --out and/or --store")
    plan = scaled_plan(args.scale, seed=args.seed)
    log.info(
        "generating components",
        extra={"data": {
            "components": plan.total(),
            "store": store.uri if store else None,
        }},
    )
    result = build_library(plan, store=store, progress=log.info)
    library, stats = result.library, result.stats
    if store is not None:
        # Whole-library blob under the shared experiment-setup key, so
        # default_setup() gets a one-read hit.  `repro run --store`
        # builds only its accelerator's signatures, under its own key:
        # every one of its components is a per-component memo hit.
        store.put(
            "library",
            default_library_key(plan, args.scale),
            library,
            meta={"components": len(library)},
        )
    if args.out:
        save_library(library, args.out)
    if args.json:
        _emit_json(
            {
                "generate_library": {
                    "components": len(library),
                    "scale": args.scale,
                    "seed": args.seed,
                    "summary": {
                        f"{kind}{width}": count
                        for (kind, width), count
                        in library.summary().items()
                    },
                    "stats": stats.as_dict(),
                    "out": args.out,
                    "store": store.uri if store else None,
                    "run_id": result.run_id,
                }
            }
        )
    else:
        where = args.out or f"store {store.uri}"
        print(
            f"wrote {len(library)} components to {where} "
            f"({stats.store_hits} cached, "
            f"{stats.characterized} characterised, "
            f"{stats.seconds:.1f}s, "
            f"workers={stats.workers})"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.accelerators.profiler import profile_accelerator
    from repro.imaging.datasets import benchmark_images

    accelerator = ACCELERATORS[args.accelerator]()
    images = benchmark_images(args.images)
    profiles = profile_accelerator(accelerator, images, rng=args.seed)
    rows = []
    for name, profile in profiles.items():
        rows.append(
            [
                name,
                f"{profile.signature[0]}{profile.signature[1]}",
                profile.total_count,
                "dense" if profile.pmf is not None else "sampled",
                profile.sample_a.size,
            ]
        )
    print(
        format_table(
            ["op", "signature", "operand pairs", "PMF", "samples"],
            rows,
        )
    )
    return 0


def _models_doc(selected, reports) -> Dict:
    """The selected model and every engine fitted for its target."""
    return {
        "name": selected.name,
        "fidelity_test": selected.fidelity_test,
        "candidates": [
            {
                "name": r.name,
                "fidelity_test": r.fidelity_test,
                "fit_seconds": r.fit_seconds,
            }
            for r in reports
        ],
    }


def _result_doc(result, label_key: str, label: str) -> Dict:
    """The ``--json`` document of one pipeline run."""
    order = result.final_points[:, 1].argsort()
    return {
        label_key: label,
        "run_id": result.run_id,
        "space": result.summary_row(),
        "models": {
            "qor": _models_doc(result.qor_model, result.qor_reports),
            "hw": _models_doc(result.hw_model, result.hw_reports),
        },
        "stage_cache": result.stage_cache,
        "timings": result.timings,
        "engine_stats": result.engine_stats,
        "front": [
            [float(s), float(a)] for s, a in result.final_points[order]
        ],
    }


def _write_front_csv(front: List[List[float]], out: str) -> None:
    """Write the final Pareto front as ``ssim,area`` CSV rows."""
    with open(out, "w") as handle:
        handle.write("ssim,area\n")
        for s, a in front:
            handle.write(f"{s},{a}\n")


def _print_pipeline_result(doc: Dict, out: Optional[str]) -> None:
    """Human-readable report of a ``run``/``workloads run`` document."""
    sizes = doc["space"]
    print(
        f"space: {sizes['all_possible']:.3g} -> "
        f"{sizes['after_preprocessing']:.3g} -> "
        f"{int(sizes['pseudo_pareto'])} pseudo -> "
        f"{int(sizes['final_pareto'])} final"
    )
    qor, hw = doc["models"]["qor"], doc["models"]["hw"]
    print(
        f"models: QoR={qor['name']} ({qor['fidelity_test']:.1%}), "
        f"HW={hw['name']} ({hw['fidelity_test']:.1%})"
    )
    if doc["run_id"] is not None:
        cache = doc["stage_cache"]
        hits = sum(1 for v in cache.values() if v == "hit")
        print(
            f"run {doc['run_id']}: {hits}/{len(cache)} stages from cache"
        )
    print(format_table(
        ["SSIM", "area (um^2)"],
        [[f"{s:.4f}", f"{a:.1f}"] for s, a in doc["front"]],
    ))
    if out:
        _write_front_csv(doc["front"], out)
        print(f"front written to {out}")


@dataclass
class _Identity:
    """A pipeline command named by the keys of its inputs, before any
    of them is built.

    ``inputs`` is set only with a store: the stage-key identities handed
    to ``AutoAx``.
    """

    params: Dict
    config: object
    kind: str
    label: str
    accelerator: object
    scenarios: Optional[List[Dict[str, int]]]
    load_library: Callable
    image_count: int
    image_shape: Tuple[int, int]
    inputs: Optional[Dict[str, str]] = None


def _identify(params: Dict, store) -> _Identity:
    """The cheap identity step: a command's recorded params (``scale``
    resolved) -> its :class:`_Identity`.

    ``run``, ``workloads run``, ``search`` and ``runs resume`` all start
    here, so a command and its resume get the identical
    :class:`~repro.core.identity.AutoAxConfig` and share stage-cache
    keys.  ``run`` uses the Table 2 library at ``scale`` restricted to
    the accelerator's signatures (the only candidates Step 1 draws
    from), unless ``--library`` names a file; ``workloads`` and
    ``search`` use the library covering the workload's signatures and
    its scenarios.

    Nothing is built or read here but the accelerator (and a
    ``--library`` file).  With a store the inputs are named by keys
    that already fix them: the generated library by its store key
    (which carries every circuit family's model version), the images by
    their ``image_key`` (index, shape), the accelerator by its
    fingerprint; a ``--library`` file keeps its content fingerprint.
    """
    from repro.core.identity import AutoAxConfig

    command = params["command"]
    search = command == "search"
    config = AutoAxConfig(
        n_train=params["train"],
        n_test=params["test"] if search else max(2, params["train"] // 2),
        engines=tuple(params["engines"]) if search
        else AutoAxConfig.engines,
        max_evaluations=params["budget"] if search else params["evals"],
        seed=params["seed"],
    )
    library_id = None
    if command == "run":
        from repro.imaging.datasets import DEFAULT_SHAPE as shape

        kind, label = "run", params["accelerator"]
        accelerator = ACCELERATORS[label]()
        scenarios = None
        if params.get("library"):
            from repro.library.io import load_library as read_library

            library = read_library(params["library"])

            def load_library(store):
                return library

            if store is not None:
                from repro.store import content_hash, library_fingerprint

                library_id = content_hash(library_fingerprint(library))
        else:
            from repro.experiments.setup import scaled_library_request

            request = scaled_library_request(
                params["scale"], seed=params["seed"],
                signatures=accelerator.op_inventory(),
            )
            load_library, library_id = request.load, request.key
    else:
        from repro.experiments.setup import DEFAULT_SHAPE as shape
        from repro.experiments.setup import workload_library_request
        from repro.workloads import WORKLOADS

        name = params["workload"] if search else params["name"]
        kind = "search" if search else "workload"
        label = f"search:{name}" if search else name
        workload = WORKLOADS.get(name)
        accelerator = workload.build_accelerator()
        scenarios = workload.build_scenarios()
        request = workload_library_request(
            accelerator, params["scale"], seed=params["seed"]
        )
        load_library, library_id = request.load, request.key
    identity = _Identity(
        params=params, config=config, kind=kind, label=label,
        accelerator=accelerator, scenarios=scenarios,
        load_library=load_library, image_count=params["images"],
        image_shape=shape,
    )
    if store is not None:
        from repro.imaging.datasets import image_key
        from repro.store import accelerator_fingerprint, content_hash

        identity.inputs = {
            "accelerator": content_hash(
                accelerator_fingerprint(accelerator)
            ),
            "library": library_id,
            "images": content_hash(
                [image_key(i, shape) for i in range(params["images"])]
            ),
        }
    return identity


def _pipeline(identity: _Identity, store):
    """The materialise step: an :class:`_Identity` -> an ``AutoAx``.

    With a store, the library and the benchmark images are read from
    it (built and written on a miss); the stage keys use the
    identity's ``inputs``.
    """
    from repro.core.pipeline import AutoAx
    from repro.imaging.datasets import benchmark_images

    return AutoAx(
        identity.accelerator,
        identity.load_library(store),
        benchmark_images(
            identity.image_count, shape=identity.image_shape, store=store
        ),
        scenarios=identity.scenarios,
        config=identity.config,
        store=store,
        run_kind=identity.kind,
        run_label=identity.label,
        run_params=identity.params,
        inputs=identity.inputs,
    )


def _executed(identity: _Identity, store, metrics_mark,
              key: Optional[str]) -> Dict:
    """Run the stages and return the output document.

    With a store the outcome is recorded as the ``result`` artifact
    ``key`` names, which the next identical command is served from.
    """
    params = identity.params
    search = params["command"] == "search"
    result = _pipeline(identity, store).run(
        final_analysis=not search, metrics_since=metrics_mark,
        result_key=key,
    )
    if search:
        doc = _search_doc(result, params)
    elif params["command"] == "run":
        doc = _result_doc(result, "accelerator", params["accelerator"])
    else:
        doc = _result_doc(result, "workload", params["name"])
        doc["runs_per_config"] = identity.image_count * len(
            identity.scenarios or [None]
        )
    if key is not None:
        from repro.store.replay import record

        record(store, key, result.run_id, doc, result.artifacts)
    return doc


def _search_doc(result, params: Dict) -> Dict:
    """The ``--json`` ``search`` object: the pseudo-Pareto front."""
    pseudo = result.pseudo_pareto
    return {
        "workload": params["workload"],
        "run_id": result.run_id,
        "resumed_from": None,
        "evaluations": pseudo.evaluations,
        "max_evaluations": params["budget"],
        "inserts": pseudo.inserts,
        "restarts": pseudo.restarts,
        "front_size": len(pseudo),
        "front": {
            "configs": [list(c) for c in pseudo.configs],
            "points": [[float(p[0]), float(p[1])] for p in pseudo.points],
        },
    }


def _print_search_result(doc: Dict) -> None:
    print(
        f"search on {doc['workload']}: {doc['evaluations']} "
        f"model evaluations (budget {doc['max_evaluations']}), "
        f"{doc['front_size']} front members, {doc['inserts']} "
        f"inserts, {doc['restarts']} restarts"
        + (f", run {doc['run_id']}" if doc["run_id"] else "")
    )


def _run_pipeline(
    params: Dict,
    store,
    as_json: bool,
    resumed_from: Optional[str] = None,
) -> int:
    """The one front door of ``run``, ``workloads run``, ``search`` and
    ``runs resume``: look up, else identify and run; then report.

    A missing scale resolves from ``REPRO_SCALE`` and is recorded, so a
    resume runs on the same library.  With a store the command's
    recorded ``result`` is looked up first, under the
    :func:`~repro.store.replay.replay_key` of its params (a
    ``--library`` file by its bytes) and the package source: a full hit
    is served before numpy, an accelerator or the pipeline is imported.
    Any miss names the inputs (:func:`_identify`) and runs the stages
    (:func:`_executed`), which record the result again.  A resume
    always re-executes through the stages and records a new manifest.
    ``search`` is the pipeline stopped after ``pseudo_pareto``.  A
    resume reports like its command, adds ``resumed_from`` and writes
    no ``--out`` file.
    """
    from repro.settings import default_scale
    from repro.telemetry import get_metrics

    # The manifest's metrics window opens before the builder, so it
    # counts the library build (``library.*``) the run paid for.
    metrics_mark = get_metrics().mark()
    params = dict(params)
    if params.get("scale") is None:
        params["scale"] = default_scale()
    key = doc = None
    if store is not None:
        from repro.store.replay import lookup, replay_key

        key = replay_key(params)
        if resumed_from is None:
            doc = lookup(store, key)
    if doc is None:
        doc = _executed(_identify(params, store), store, metrics_mark, key)
    if resumed_from and not as_json:
        print(f"resumed {resumed_from} -> {doc['run_id']}")
    command = params["command"]
    if command == "search":
        doc["resumed_from"] = resumed_from
        if as_json:
            _emit_json({"search": doc})
        else:
            _print_search_result(doc)
        return 0

    out = None if resumed_from else params.get("out")
    if command == "workloads" and not as_json:
        runs = doc["runs_per_config"]
        print(
            f"workload {params['name']}: {runs} "
            f"runs/config ({params['images']} images x "
            f"{runs // params['images']} scenarios)"
        )
    if resumed_from:
        doc["resumed_from"] = resumed_from
    if not as_json:
        _print_pipeline_result(doc, out)
        return 0
    if out:
        _write_front_csv(doc["front"], out)
        get_logger("cli").info(
            "front written", extra={"data": {"file": out}}
        )
    _emit_json(doc)
    return 0


def _params(args: argparse.Namespace, command: str, *flags: str) -> Dict:
    """A pipeline command's recorded params: its name and its flags."""
    return {"command": command, **{f: getattr(args, f) for f in flags}}


def _cmd_run(args: argparse.Namespace) -> int:
    params = _params(args, "run", "accelerator", "library", "scale",
                     "images", "train", "evals", "seed", "out")
    return _run_pipeline(params, _resolve_store(args.store), args.json)


def _cmd_workloads(args: argparse.Namespace) -> int:
    if args.workloads_command == "list":
        from repro.workloads import WORKLOADS

        rows = []
        for workload in WORKLOADS:
            accelerator = workload.build_accelerator()
            scenarios = workload.build_scenarios()
            rows.append(
                [
                    workload.name,
                    f"{accelerator.window}x{accelerator.window}",
                    len(accelerator.op_slots()),
                    len(scenarios) if scenarios else 1,
                    ",".join(workload.tags),
                    workload.description,
                ]
            )
        print(
            format_table(
                ["workload", "window", "op slots", "scenarios",
                 "tags", "description"],
                rows,
            )
        )
        return 0

    params = _params(args, "workloads", "name", "scale", "images",
                     "train", "evals", "seed", "out")
    return _run_pipeline(params, _resolve_store(args.store), args.json)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.settings import ENGINE_NAMES

    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    known = list(ENGINE_NAMES)
    unknown = [e for e in engines if e not in known]
    if unknown:
        raise ValidationError(f"unknown --engines {unknown}; known: {known}")
    if not engines:
        raise ValidationError("--engines names no learning engine")
    if args.budget < 1:
        raise ValidationError("--budget must be >= 1")
    params = _params(args, "search", "workload", "scale", "images",
                     "train", "test", "budget", "seed")
    params["engines"] = engines
    return _run_pipeline(params, _resolve_store(args.store), args.json)


# -- runs (experiment-store ledger) -----------------------------------------


def _runs_ledger(args: argparse.Namespace):
    from repro.store import RunLedger, require_store

    store = require_store(args.store_dir)
    return store, RunLedger(store)


def _stage_hits(manifest: Dict) -> str:
    stages = manifest.get("stages", [])
    hits = sum(1 for s in stages if s.get("cache") == "hit")
    return f"{hits}/{len(stages)}"


def _cmd_runs_list(args: argparse.Namespace) -> int:
    _, ledger = _runs_ledger(args)
    manifests = ledger.runs(kind=args.kind)
    if args.json:
        _emit_json({"runs": manifests})
        return 0
    rows = [
        [
            m.get("run_id", "?"),
            m.get("kind", "?"),
            m.get("label", ""),
            m.get("status", "?"),
            _stage_hits(m),
            f"{m.get('total_seconds', 0.0):.2f}",
            m.get("replays", 0),
            m.get("created_at", ""),
        ]
        for m in manifests
    ]
    print(
        format_table(
            ["run", "kind", "label", "status", "cache", "seconds",
             "replays", "created (UTC)"],
            rows,
        )
    )
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    _, ledger = _runs_ledger(args)
    manifest = ledger.get(args.run_id)
    if args.json:
        _emit_json({"run": manifest})
        return 0
    for key in ("run_id", "kind", "label", "status", "created_at",
                "seed", "config_hash", "total_seconds"):
        print(f"{key}: {manifest.get(key)}")
    print(f"replays: {manifest.get('replays', 0)}"
          + (f" (last {manifest['last_replayed_at']})"
             if manifest.get("last_replayed_at") else ""))
    print(f"params: {json.dumps(manifest.get('params', {}), sort_keys=True)}")
    stages = manifest.get("stages", [])
    total = sum(s.get("seconds", 0.0) for s in stages) or 1.0
    rows = [
        [
            stage.get("name", "?"),
            stage.get("cache", "?"),
            f"{stage.get('seconds', 0.0):.3f}",
            f"{100.0 * stage.get('seconds', 0.0) / total:.1f}%",
            ", ".join(
                f"{a['kind']}:{a['key'][:12]}"
                for a in stage.get("artifacts", [])
            ),
        ]
        for stage in stages
    ]
    print(format_table(
        ["stage", "cache", "seconds", "% of total", "artifacts"], rows
    ))
    hits = sum(1 for s in stages if s.get("cache") == "hit")
    print(f"cache: {hits}/{len(stages)} stages hit")
    extra = manifest.get("extra") or {}
    engine_stats = extra.get("engine_stats")
    if engine_stats:
        print(
            "engine: "
            + " ".join(
                f"{key}={value}"
                for key, value in sorted(engine_stats.items())
            )
        )
    metrics = extra.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        print(format_table(
            ["metric", "count"],
            [[name, counters[name]] for name in sorted(counters)],
        ))
    histograms = metrics.get("histograms") or {}
    if histograms:
        print(format_table(
            ["histogram", "count", "p50", "p95", "p99"],
            [
                [
                    name,
                    h.get("count", 0),
                    f"{h.get('p50') or 0.0:.4g}",
                    f"{h.get('p95') or 0.0:.4g}",
                    f"{h.get('p99') or 0.0:.4g}",
                ]
                for name, h in sorted(histograms.items())
            ],
        ))
    return 0


def _cmd_runs_resume(args: argparse.Namespace) -> int:
    from repro.errors import StoreError

    store, ledger = _runs_ledger(args)
    manifest = ledger.get(args.run_id)
    params = manifest.get("params") or {}
    if "strategies" in params:
        raise StoreError(
            f"run {args.run_id!r} is a portfolio search; the "
            "portfolio runner is retired, so it cannot be resumed "
            "(start a new 'repro search' instead)"
        )
    if params.get("command") not in ("run", "workloads", "search"):
        raise StoreError(
            f"run {args.run_id!r} (kind {manifest.get('kind')!r}) has "
            f"no resumable params (command={params.get('command')!r})"
        )
    return _run_pipeline(params, store, args.json, resumed_from=args.run_id)


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    store, ledger = _runs_ledger(args)
    keep_kinds = () if args.all else None
    stats = store.gc(
        ledger.referenced_artifacts(),
        keep_kinds=keep_kinds,
        dry_run=args.dry_run,
    )
    if args.json:
        _emit_json({"gc": stats, "store": store.uri})
        return 0
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"gc {store.uri}: {verb} {stats['removed']} artifacts "
        f"({stats['freed_bytes']} bytes), kept {stats['kept']}"
    )
    by_kind = stats.get("by_kind") or {}
    if by_kind:
        print(format_table(
            ["kind", "artifacts", "bytes"],
            [
                [kind, entry["count"], entry["bytes"]]
                for kind, entry in sorted(by_kind.items())
            ],
        ))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    return {
        "list": _cmd_runs_list,
        "show": _cmd_runs_show,
        "resume": _cmd_runs_resume,
        "gc": _cmd_runs_gc,
    }[args.runs_command](args)


def _cmd_export_verilog(args: argparse.Namespace) -> int:
    from repro.circuits.base import (
        ExactAdder,
        ExactMultiplier,
        ExactSubtractor,
    )
    from repro.library.component import record_from_circuit
    from repro.netlist.verilog import to_verilog
    from repro.synthesis.synthesizer import optimize

    accelerator = ACCELERATORS[args.accelerator]()
    records = {}
    for slot in accelerator.op_slots():
        kind, width = slot.signature
        klass = {
            "add": ExactAdder,
            "sub": ExactSubtractor,
            "mul": ExactMultiplier,
        }[kind]
        records[slot.name] = record_from_circuit(
            klass(width), sample_size=1 << 8
        )
    netlist = accelerator.to_netlist(records)
    if args.optimize:
        optimize(netlist)
    text = to_verilog(netlist, module_name=args.accelerator)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({netlist.gate_count()} gates)")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="autoAx (DAC 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("inventory", help="Table 1 operation inventory")

    gen = sub.add_parser("generate-library",
                         help="build a characterised library")
    gen.add_argument("--scale", type=float, default=0.02)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out",
                     help="library JSON file (optional with --store)")
    _add_workers_arg(gen)
    _add_store_arg(gen)
    gen.add_argument("--json", action="store_true",
                     help="machine-readable result document")

    prof = sub.add_parser("profile", help="operand profiling stats")
    _add_accelerator_arg(prof)
    prof.add_argument("--images", type=int, default=4)
    prof.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="full autoAx pipeline")
    _add_accelerator_arg(run)
    run.add_argument("--library", help="library JSON (else generated)")
    run.add_argument("--scale", type=float, default=0.01)
    run.add_argument("--images", type=int, default=4)
    run.add_argument("--train", type=int, default=150)
    run.add_argument("--evals", type=int, default=10_000)
    run.add_argument("--seed", type=int, default=0)
    _add_workers_arg(run)
    _add_store_arg(run)
    _add_trace_arg(run)
    run.add_argument("--json", action="store_true",
                     help="machine-readable result document")
    run.add_argument("--out", help="CSV file for the final front")

    workloads = sub.add_parser("workloads",
                               help="workload registry operations")
    wl_sub = workloads.add_subparsers(dest="workloads_command",
                                      required=True)
    wl_sub.add_parser("list", help="print the registered workloads")
    wl_run = wl_sub.add_parser(
        "run", help="full autoAx pipeline on a registered workload"
    )
    wl_run.add_argument("name", help="workload name (see 'list')")
    wl_run.add_argument("--scale", type=float, default=None,
                        help="library scale (default: REPRO_SCALE)")
    wl_run.add_argument("--images", type=int, default=4)
    wl_run.add_argument("--train", type=int, default=150)
    wl_run.add_argument("--evals", type=int, default=10_000)
    wl_run.add_argument("--seed", type=int, default=0)
    _add_workers_arg(wl_run)
    _add_store_arg(wl_run)
    _add_trace_arg(wl_run)
    wl_run.add_argument("--json", action="store_true",
                        help="machine-readable result document")
    wl_run.add_argument("--out", help="CSV file for the final front")

    search = sub.add_parser(
        "search", help="Algorithm 1 design-space search, exact budget"
    )
    search.add_argument("--workload", default="sobel",
                        help="workload name (see 'workloads list')")
    search.add_argument("--budget", type=int, default=2_000,
                        help="exact model-evaluation budget")
    search.add_argument("--scale", type=float, default=None,
                        help="library scale (default: REPRO_SCALE)")
    search.add_argument("--images", type=int, default=2)
    search.add_argument("--train", type=int, default=60,
                        help="real-evaluated training configurations")
    search.add_argument("--test", type=int, default=30,
                        help="held-out configurations for fidelity")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--engines", default="K-Neighbors",
                        help="comma-separated learning engines")
    _add_workers_arg(search)
    _add_store_arg(search)
    _add_trace_arg(search)
    search.add_argument("--json", action="store_true",
                        help="machine-readable result document")

    runs = sub.add_parser(
        "runs", help="experiment-store run ledger operations"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    specs = {
        "list": "list recorded pipeline runs",
        "show": "print one run's manifest",
        "resume": "re-execute a recorded run against the warm store",
        "gc": "drop store artifacts no run manifest references",
    }
    for name, help_text in specs.items():
        cmd = runs_sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--store-dir", default=None, metavar="URI",
            help="store root or sqlite:PATH URI "
                 "(default: REPRO_STORE_DIR / .repro-store)",
        )
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output")
        if name == "list":
            cmd.add_argument(
                "--kind", default=None,
                help="only manifests of this kind "
                     "(e.g. workload, search)",
            )
        if name in ("show", "resume"):
            cmd.add_argument("run_id", help="ledger run id")
        if name == "resume":
            _add_workers_arg(cmd)
        if name == "gc":
            cmd.add_argument(
                "--all", action="store_true",
                help="also drop unreferenced shared pools "
                     "(synthesis reports, libraries)",
            )
            cmd.add_argument(
                "--dry-run", action="store_true",
                help="report what would be removed (per-kind counts "
                     "and byte totals) without deleting anything",
            )

    export = sub.add_parser("export-verilog",
                            help="structural Verilog of an accelerator")
    _add_accelerator_arg(export)
    export.add_argument("--out", help="output .v file (else stdout)")
    export.add_argument("--optimize", action="store_true",
                        help="run synthesis optimisation first")

    return parser


_COMMANDS = {
    "inventory": _cmd_inventory,
    "generate-library": _cmd_generate_library,
    "profile": _cmd_profile,
    "run": _cmd_run,
    "workloads": _cmd_workloads,
    "search": _cmd_search,
    "runs": _cmd_runs,
    "export-verilog": _cmd_export_verilog,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ReproError` ends the command with one
    ``error: ...`` line on stderr and no traceback: exit 2 for a
    :class:`~repro.errors.ValidationError` (a bad setting), else 1.
    """
    from repro.settings import use_workers

    args = build_parser().parse_args(argv)
    setup_logging()
    try:
        with use_workers(getattr(args, "workers", None)), _tracing(
            args.command, getattr(args, "trace", None)
        ):
            return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
