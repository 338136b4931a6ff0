"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro.cli sparsity --scene bigcity
    python -m repro.cli max-size --scene bigcity --testbed rtx4090
    python -m repro.cli throughput --scene rubble --system clm --n 30.4e6
    python -m repro.cli comm-volume --scene ithaca --ordering tsp
    python -m repro.cli engines
    python -m repro.cli backends
    python -m repro.cli train --engine clm --batches 20
    python -m repro.cli train --engine clm --kernel-backend numpy
    python -m repro.cli train --engine clm --ordering gs_count
    python -m repro.cli serve --stream trajectory --requests 96 --rate 500
    python -m repro.cli bench list
    python -m repro.cli bench run --quick
    python -m repro.cli bench gate BENCH_results.json
    python -m repro.cli bench compare --baseline BENCH_results.json

Every subcommand prints a small table; `--scale`/`--views` control the
synthetic-scene fidelity (see DESIGN.md §5).  Functional-training engines
are resolved through the registry (`repro engines` lists them), so a newly
registered engine shows up in `train --engine` with no CLI change; the
`bench` group drives the benchmark registry the same way (`repro bench
list` shows whatever the benchmarks directory registers).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.reporting import format_table
from repro.analysis.sparsity import sparsity_summary
from repro.core import memory_model as mm
from repro.core.config import TimingConfig
from repro.core.culling_index import CullingIndex
from repro.core.timed import SYSTEM_NAMES, communication_volume_per_batch, run_timed
from repro.planning.orders import STRATEGIES
from repro.engines import available_engines, engine_descriptions
from repro.hardware.specs import TESTBEDS
from repro.scenes.datasets import build_scene, scene_names
from repro.serving import requests as serving_requests


def _add_scene_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", choices=scene_names(), default="bigcity")
    p.add_argument("--scale", type=float, default=2e-4,
                   help="fraction of the paper Gaussian count to synthesize")
    p.add_argument("--views", type=int, default=192)
    p.add_argument("--seed", type=int, default=1)


def _scene_and_index(args):
    scene = build_scene(args.scene, scale=args.scale, num_views=args.views,
                        seed=args.seed)
    return scene, CullingIndex.build(scene.model, scene.cameras)


def cmd_sparsity(args) -> int:
    scene, index = _scene_and_index(args)
    s = sparsity_summary(index)
    print(format_table(
        ["metric", "value %"],
        [[k, 100 * v] for k, v in s.items()],
        title=f"Per-view sparsity rho — {args.scene} "
              f"({scene.num_gaussians} Gaussians, {len(scene.cameras)} views)",
        floatfmt="{:.3f}",
    ))
    return 0


def cmd_max_size(args) -> int:
    scene, index = _scene_and_index(args)
    profile = mm.profile_from_scene(scene, index)
    testbed = TESTBEDS[args.testbed]
    rows = [
        [system, mm.max_model_size(system, testbed, profile) / 1e6]
        for system in mm.SYSTEMS
    ]
    print(format_table(
        ["system", "max N (millions)"], rows,
        title=f"Max trainable model size — {args.scene} on {testbed.name}",
        floatfmt="{:.1f}",
    ))
    return 0


def cmd_throughput(args) -> int:
    scene, index = _scene_and_index(args)
    cfg = TimingConfig(
        testbed=TESTBEDS[args.testbed],
        paper_num_gaussians=args.n,
        num_batches=args.batches,
        batch_size=args.batch_size,
        ordering=args.ordering,
        seed=args.seed,
    )
    res = run_timed(args.system, scene, index, cfg)
    d = res.decomposition
    rows = [
        ["images/s", res.images_per_second],
        ["CPU->GPU GB/batch", res.load_bytes_per_batch / 1e9],
        ["GPU->CPU GB/batch", res.store_bytes_per_batch / 1e9],
        ["Adam trailing ms", res.adam_trailing_s * 1e3],
        ["GPU compute busy s", d["compute_busy"]],
        ["comm busy s", d["comm_busy"]],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.system} — {args.scene} at N={args.n/1e6:.1f}M on "
              f"{cfg.testbed.name}",
        floatfmt="{:.3f}",
    ))
    return 0


def cmd_comm_volume(args) -> int:
    scene, index = _scene_and_index(args)
    rows = []
    for ordering in STRATEGIES:
        cfg = TimingConfig(
            testbed=TESTBEDS[args.testbed], paper_num_gaussians=args.n,
            num_batches=args.batches, batch_size=args.batch_size,
            ordering=ordering, seed=args.seed,
        )
        volume = communication_volume_per_batch(scene, index, cfg)
        rows.append([ordering, volume / 1e9])
    print(format_table(
        ["ordering", "GB/batch"], rows,
        title=f"CPU->GPU volume — {args.scene} at N={args.n/1e6:.1f}M",
        floatfmt="{:.3f}",
    ))
    return 0


def cmd_engines(args) -> int:
    rows = [[name, desc] for name, desc in engine_descriptions().items()]
    print(format_table(
        ["engine", "description"], rows,
        title="Registered training engines (repro train --engine NAME)",
    ))
    return 0


def cmd_backends(args) -> int:
    from repro.kernels import (
        KERNEL_OPS,
        backend_status,
        get_backend,
        resolve_backend_name,
    )

    status = backend_status()
    rows = [
        [
            s["name"],
            "yes" if s["available"] else "no",
            s["version"] or "-",
            s["priority"],
            s["description"],
        ]
        for s in status
    ]
    print(format_table(
        ["backend", "available", "version", "priority", "description"],
        rows,
        title="Registered kernel backends "
              "(repro train --kernel-backend NAME)",
    ))
    for s in status:
        if s["detail"]:
            print(f"{s['name']}: {s['detail']}")
    # The kernel ops each backend runs: every one (a backend that lacks an
    # op is refused at registration).
    for s in status:
        own = get_backend(s["name"]).capabilities()
        print(f"{s['name']} runs: {', '.join(op for op in KERNEL_OPS if op in own)}")
    print(f"auto resolves to: {resolve_backend_name(None)}")
    return 0


def cmd_train(args) -> int:
    from repro import session
    from repro.core.config import EngineConfig
    from repro.core.trainer import TrainerConfig
    from repro.scenes.images import make_trainable_scene

    scene = make_trainable_scene(
        reference_gaussians=args.gaussians, num_views=12,
        image_size=(32, 24), seed=args.seed,
    )
    # Unknown engine names never reach this point: the --engine choices
    # come from available_engines(), so argparse rejects them with the
    # registry's name list.
    engine = args.engine
    if args.devices > 1 and engine == "clm":
        # --devices implies the sharded engine; plain clm has no device
        # dimension.
        engine = "clm_sharded"
    fault_schedule = None
    if args.fail_at is not None:
        if args.devices < 2:
            raise SystemExit(
                "repro train: --fail-at needs --devices >= 2 "
                "(a fail-stop must leave survivors to recover onto)"
            )
        from repro.resilience import FaultEvent, FaultSchedule

        fault_schedule = FaultSchedule(
            events=(FaultEvent.fail_stop(args.fail_at, args.fail_device),)
        )
    sess = session(
        scene,
        engine=engine,
        config=EngineConfig(
            batch_size=4,
            seed=args.seed,
            ordering=args.ordering,
            overlap_workers=args.overlap_workers,
            num_devices=args.devices,
            kernel_backend=args.kernel_backend,
            fault_schedule=fault_schedule,
            use_task_graph=getattr(args, "task_graph", False),
            autotune=getattr(args, "autotune", False),
        ),
        trainer_config=TrainerConfig(
            num_batches=args.batches, batch_size=4,
            eval_every=max(1, args.batches // 4), seed=args.seed,
        ),
    )
    sess.train()
    rows = [[b, p] for b, p in
            zip(sess.metrics.eval_batches, sess.metrics.psnrs)]
    print(format_table(
        ["batch", "PSNR dB"], rows,
        title=f"Functional training with the {engine} engine "
              f"(ordering={args.ordering}, "
              f"kernels={sess.engine.kernel_backend})",
        floatfmt="{:.2f}",
    ))
    stats = sess.planner.stats()
    print(
        f"planner: {stats['plans_built']:.0f} plans built, "
        f"{stats['build_time_s'] * 1e3:.1f} ms planning"
    )
    perf = sess.perf
    print(
        f"runtime: {perf.adam_s * 1e3:.1f} ms Adam across "
        f"{perf.batches} batches, {perf.overlap_hidden_s * 1e3:.1f} ms "
        f"hidden under compute ({args.overlap_workers} overlap workers)"
    )
    if perf.device_busy_s:
        busy = ", ".join(
            f"gpu{k}={s * 1e3:.1f}ms"
            for k, s in sorted(perf.device_busy_s.items())
        )
        print(
            f"sharding: {args.devices} devices, "
            f"{perf.halo_gaussians} halo Gaussians "
            f"({perf.halo_bytes / 1e6:.2f} MB exchanged), "
            f"{perf.stolen_microbatches} microbatches stolen; "
            f"simulated makespan {perf.sim_makespan_s * 1e3:.1f} ms, "
            f"busy {busy}"
        )
    if perf.failed_devices:
        print(
            f"resilience: {perf.failed_devices} device(s) failed, "
            f"{perf.lost_batches} batch(es) lost, recovered in "
            f"{perf.recovery_s * 1e3:.1f} ms onto "
            f"{len(sess.engine.alive)} survivors"
        )
    if sess.tuner is not None:
        summary = sess.tuner.summary()
        chosen = summary["most_chosen"] or {}
        print(
            f"autotune: {summary['batches']} batches tuned over "
            f"{summary['candidates']} candidates "
            f"({summary['explored_batches']} calibration probe(s)), "
            f"mean |pred-meas|/meas = {100 * summary['mean_rel_error']:.1f}%; "
            f"most chosen: workers={chosen.get('overlap_workers')}, "
            f"ordering={chosen.get('ordering')}"
        )
    return 0


def cmd_serve(args) -> int:
    import numpy as np

    from repro.core.config import EngineConfig
    from repro.engines import create_engine
    from repro.scenes.images import make_trainable_scene
    from repro.serving import (
        LodConfig,
        RenderFaultInjector,
        ResilienceConfig,
        ServingConfig,
        ServingSession,
        build_stream,
        ring_cameras,
    )

    scene = make_trainable_scene(
        reference_gaussians=args.gaussians, num_views=8,
        image_size=(32, 24), seed=args.seed,
    )
    engine = create_engine(
        args.engine, scene.reference, scene.cameras,
        EngineConfig(batch_size=4, seed=args.seed),
    )
    sess = ServingSession.from_engine(engine, ServingConfig(
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        ordering=args.ordering,
        plan_cache_size=args.plan_cache,
        drop_expired=args.drop_expired,
        lod=None if args.no_lod else LodConfig(),
        seed=args.seed,
        fault_injector=(
            RenderFaultInjector(fault_rate=args.fault_rate,
                                seed=args.fault_seed)
            if args.fault_rate > 0 else None
        ),
        resilience=(
            ResilienceConfig(enable_degrade=args.degrade)
            if args.fault_rate > 0 or args.degrade else None
        ),
    ))
    # Ring radii scale with the cloud's bounding radius so the near ring
    # exercises full detail and the far ring the LOD-culled path on any
    # scene size.
    model = sess.model
    centroid = model.positions.mean(axis=0)
    bound = max(
        float(np.linalg.norm(model.positions - centroid, axis=1).max()),
        1e-9,
    )
    cams = ring_cameras(
        views_per_ring=4,
        radii=tuple(bound * r for r in (1.3, 4.0, 9.0)),
        center=centroid,
    )
    stream = build_stream(
        args.stream, cams, args.requests, args.rate,
        slo_s=args.slo_ms / 1e3, seed=args.seed,
    )
    report = sess.serve(stream)
    print(format_table(
        ["metric", "value"], report.summary_rows(),
        title=f"repro serve — {args.stream} stream of {args.requests} "
              f"requests over {len(cams)} views ({args.engine} engine, "
              f"{model.num_gaussians} Gaussians)",
        floatfmt="{:.2f}",
    ))
    stats = report.planner_stats
    print(
        f"planner: {stats['plans_built']:.0f} plans built, "
        f"{stats['cache_hits']:.0f} cache hits "
        f"({100 * stats['hit_rate']:.0f}% of {stats['requests']:.0f} "
        f"batches), {stats['evictions']:.0f} evictions"
    )
    if report.lod_subset_sizes:
        levels = ", ".join(
            f"L{level}={size}"
            for level, size in report.lod_subset_sizes.items()
        )
        served = ", ".join(
            f"L{level}:{count}"
            for level, count in report.lod_level_counts().items()
        )
        print(f"lod: subset sizes {levels}; served per level {served}")
    return 0


def cmd_bench_list(args) -> int:
    from repro.bench import discover_benchmarks, benchmark_entries

    discover_benchmarks(args.dir)
    rows = [
        [e.name, e.figure or "-", ",".join(e.tags) or "-", e.description]
        for e in benchmark_entries()
    ]
    print(format_table(
        ["benchmark", "figure", "tags", "description"], rows,
        title="Registered benchmarks (repro bench run --only NAME)",
    ))
    return 0


def cmd_bench_run(args) -> int:
    from repro.analysis.reporting import ResultsLog
    from repro.bench import (
        BenchRunner,
        UnknownBenchmarkError,
        discover_benchmarks,
        dump_results,
        results_document,
        validate_results,
    )

    discover_benchmarks(args.dir)
    tier = "full" if args.full else "quick"
    runner = BenchRunner(
        tier=tier,
        seed=args.seed,
        quiet=args.quiet,
        results_log=None if args.no_log else ResultsLog(),
    )
    try:
        report = runner.run(only=args.only or None)
    except UnknownBenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = {}
    for record in report.records:
        stats = summary.setdefault(record.benchmark, [0, 0.0])
        stats[0] += 1
        stats[1] = max(stats[1], record.wall_time_s)
    rows = [[name, count, wall] for name, (count, wall) in summary.items()]
    print(format_table(
        ["benchmark", "records", "wall s"], rows,
        title=f"bench run — tier={tier} seed={args.seed} "
              f"rev={report.git_rev} ({report.wall_time_s:.1f}s total)",
        floatfmt="{:.2f}",
    ))

    doc = results_document(report.records, tier=tier,
                           git_rev=report.git_rev)
    errors = validate_results(doc)
    for err in errors:
        print(f"SCHEMA ERROR: {err}", file=sys.stderr)
    dump_results(args.output, doc)
    print(f"wrote {len(report.records)} records to {args.output}")

    for failure in report.failures:
        print(f"\nFAILED {failure.benchmark}: {failure.error}",
              file=sys.stderr)
        print(failure.trace, file=sys.stderr)
    return 0 if (report.ok and not errors) else 1


def cmd_bench_compare(args) -> int:
    from repro.bench import (
        CompareThresholds,
        compare_results,
        load_results,
    )

    current = load_results(args.current)
    baseline = load_results(args.baseline)
    thresholds = CompareThresholds(
        throughput_drop=args.threshold,
        transfer_increase=args.transfer_threshold,
        psnr_drop_db=args.psnr_threshold,
        wall_time_increase=args.wall_threshold,
    )
    report = compare_results(
        current, baseline, thresholds,
        fail_on_wall_time=args.fail_on_wall_time,
    )
    for err in report.schema_errors:
        print(f"SCHEMA ERROR: {err}", file=sys.stderr)
    for delta in report.regressions:
        print(f"REGRESSION: {delta.describe()}")
    for delta in report.warnings:
        print(f"warning: {delta.describe()}")
    for delta in report.improvements:
        print(f"improvement: {delta.describe()}")
    print(
        f"compared {report.matched} records "
        f"({len(report.regressions)} regressions, "
        f"{len(report.warnings)} warnings, "
        f"{len(report.improvements)} improvements; "
        f"{len(report.only_in_baseline)} baseline-only, "
        f"{len(report.only_in_current)} current-only)"
    )
    return 0 if report.ok else 1


def cmd_bench_validate(args) -> int:
    from repro.bench import load_results, validate_results

    doc = load_results(args.path)
    errors = validate_results(doc)
    for err in errors:
        print(f"SCHEMA ERROR: {err}", file=sys.stderr)
    if not errors:
        print(
            f"{args.path}: {len(doc['records'])} schema-valid records "
            f"(tier={doc['tier']}, rev={doc['git_rev']})"
        )
    return 0 if not errors else 1


def cmd_bench_gate(args) -> int:
    from repro.bench import check_gates, discover_benchmarks, load_results

    discover_benchmarks(args.dir)
    doc = load_results(args.path)
    problems = check_gates(doc)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    if not problems:
        print(f"{args.path}: declared variants and gates hold")
    return 0 if not problems else 1


def _add_bench_parser(sub) -> None:
    p = sub.add_parser("bench", help="benchmark orchestration (repro.bench)")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    lp = bench_sub.add_parser("list", help="list registered benchmarks")
    lp.add_argument("--dir", default=None,
                    help="benchmarks directory (default: auto-detect)")
    lp.set_defaults(func=cmd_bench_list)

    rp = bench_sub.add_parser("run", help="run benchmarks, write records")
    rp.add_argument("--dir", default=None,
                    help="benchmarks directory (default: auto-detect)")
    rp.add_argument("--quick", action="store_true",
                    help="the CI smoke tier (the default)")
    rp.add_argument("--full", action="store_true",
                    help="the paper-shape scale")
    rp.add_argument("--only", nargs="*", default=None,
                    help="run only these benchmarks (exact names or "
                         "substrings, e.g. --only raster or --only fig)")
    rp.add_argument("--output", default="BENCH_results.json")
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--quiet", action="store_true",
                    help="suppress the per-benchmark tables")
    rp.add_argument("--no-log", action="store_true",
                    help="skip appending to results/experiments.jsonl")
    rp.set_defaults(func=cmd_bench_run)

    cp = bench_sub.add_parser("compare",
                              help="gate a run against a baseline")
    cp.add_argument("--baseline", required=True,
                    help="baseline BENCH_results.json")
    cp.add_argument("--current", default="BENCH_results.json")
    cp.add_argument("--threshold", type=float, default=0.20,
                    help="relative images/s drop that fails (default 0.20)")
    cp.add_argument("--transfer-threshold", type=float, default=0.20,
                    help="relative transfer-bytes growth that fails "
                         "(default 0.20)")
    cp.add_argument("--psnr-threshold", type=float, default=0.5,
                    help="absolute PSNR dB drop that fails (default 0.5)")
    cp.add_argument("--wall-threshold", type=float, default=0.5,
                    help="relative wall-time growth that warns (default 0.5)")
    cp.add_argument("--fail-on-wall-time", action="store_true",
                    help="treat wall-time growth as a failure, not a warning")
    cp.set_defaults(func=cmd_bench_compare)

    vp = bench_sub.add_parser("validate",
                              help="schema-check a BENCH_results.json")
    vp.add_argument("path", nargs="?", default="BENCH_results.json")
    vp.set_defaults(func=cmd_bench_validate)

    gp = bench_sub.add_parser(
        "gate", help="check a BENCH_results.json against the variants and "
                     "gates its benchmarks declare")
    gp.add_argument("path", nargs="?", default="BENCH_results.json")
    gp.add_argument("--dir", default=None,
                    help="benchmarks directory (default: auto-detect)")
    gp.set_defaults(func=cmd_bench_gate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CLM reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsity", help="per-view sparsity statistics")
    _add_scene_args(p)
    p.set_defaults(func=cmd_sparsity)

    p = sub.add_parser("max-size", help="Figure 8-style max model sizes")
    _add_scene_args(p)
    p.add_argument("--testbed", choices=sorted(TESTBEDS), default="rtx4090")
    p.set_defaults(func=cmd_max_size)

    p = sub.add_parser("throughput", help="simulated training throughput")
    _add_scene_args(p)
    p.add_argument("--system", choices=SYSTEM_NAMES, default="clm")
    p.add_argument("--testbed", choices=sorted(TESTBEDS), default="rtx4090")
    p.add_argument("--n", type=float, default=15.3e6,
                   help="paper-scale Gaussian count")
    p.add_argument("--batches", type=int, default=6)
    p.add_argument("--batch-size", type=int, default=None,
                   help="microbatches per batch (default: the scene's "
                        "paper batch size)")
    p.add_argument("--ordering", choices=STRATEGIES, default="tsp")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("comm-volume", help="Figure 14-style volumes")
    _add_scene_args(p)
    p.add_argument("--testbed", choices=sorted(TESTBEDS), default="rtx4090")
    p.add_argument("--n", type=float, default=15.3e6)
    p.add_argument("--batches", type=int, default=6)
    p.add_argument("--batch-size", type=int, default=None)
    p.set_defaults(func=cmd_comm_volume)

    p = sub.add_parser("engines", help="list registered training engines")
    p.set_defaults(func=cmd_engines)

    p = sub.add_parser("backends",
                       help="list registered kernel backends")
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser("train", help="functional training demo")
    p.add_argument("--engine", "--system", dest="engine",
                   choices=available_engines(), default="clm",
                   help="training engine, from the registry "
                        "(see `repro engines`)")
    p.add_argument("--batches", type=int, default=16)
    p.add_argument("--gaussians", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ordering", choices=STRATEGIES, default="tsp",
                   help="microbatch ordering strategy (Table 4)")
    p.add_argument("--overlap-workers", type=int, default=0,
                   help="overlap-runtime worker threads for the CPU Adam "
                        "(0 = synchronous fallback; results are "
                        "bit-identical at any setting)")
    p.add_argument("--devices", type=int, default=1,
                   help="simulated device count; >1 switches clm to the "
                        "clm_sharded engine (spatial shards, halo "
                        "exchange, work stealing)")
    p.add_argument("--kernel-backend", default="auto",
                   help="compiled kernel backend for the raster/Adam hot "
                        "loops (see `repro backends`; 'auto' picks the "
                        "fastest available)")
    p.add_argument("--fail-at", type=int, default=None, metavar="BATCH",
                   help="inject a fail-stop at this batch index "
                        "(requires --devices >= 2; the run recovers by "
                        "re-sharding onto the survivors)")
    p.add_argument("--fail-device", type=int, default=1, metavar="DEV",
                   help="device that fail-stops at --fail-at (default 1)")
    p.add_argument("--task-graph", action="store_true",
                   help="execute batches through the dependency task-graph "
                        "executor instead of the submit/barrier loop "
                        "(bit-identical results)")
    p.add_argument("--autotune", action="store_true",
                   help="plan-guided adaptive runtime: per batch, predict "
                        "every candidate config's makespan through the "
                        "simulator, run the argmin, reconcile prediction "
                        "vs measurement back into the cost model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("serve", help="concurrent render-serving demo")
    p.add_argument("--engine", choices=available_engines(), default="clm",
                   help="engine whose forward path serves the renders")
    p.add_argument("--gaussians", type=int, default=200)
    p.add_argument("--requests", type=int, default=96)
    p.add_argument("--stream", choices=serving_requests.STREAMS,
                   default="trajectory",
                   help="arrival process (trajectory = locality tour)")
    p.add_argument("--rate", type=float, default=500.0,
                   help="mean arrival rate, requests/s")
    p.add_argument("--slo-ms", type=float, default=250.0,
                   help="per-request latency SLO in milliseconds")
    p.add_argument("--max-batch", type=int, default=4)
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="admission-control queue bound (excess sheds)")
    p.add_argument("--plan-cache", type=int, default=64)
    p.add_argument("--ordering", choices=STRATEGIES, default="tsp")
    p.add_argument("--drop-expired", action="store_true",
                   help="drop requests whose deadline passed at dispatch")
    p.add_argument("--no-lod", action="store_true",
                   help="disable level-of-detail culling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="probability a render attempt faults "
                        "transiently (0 disables injection; faults are "
                        "absorbed by retry-with-backoff and a per-view "
                        "circuit breaker)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the render fault injector")
    p.add_argument("--degrade", action="store_true",
                   help="enable queue-watermark degraded mode (coarser "
                        "LOD under backlog)")
    p.set_defaults(func=cmd_serve)

    _add_bench_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
