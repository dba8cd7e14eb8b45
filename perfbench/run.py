"""Benchmark of the `ral` program: desk, noisy16 and slide_vote.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Inputs are generated from --seed in a child process before timing
starts. With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of a separate traced run. Lines before it name the
environment and the sample counts. Scratch files live in `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("desk", "noisy16", "slide_vote")


def nproc():
    return len(os.sched_getaffinity(0))


def parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="seconds-long presets (smoke test)")
    p.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def preset_for(workload, tiny):
    import workloads

    preset = {"desk": workloads.DESK, "noisy16": workloads.NOISY16,
              "slide_vote": workloads.SLIDE_VOTE}[workload]
    return workloads.tiny(preset) if tiny else preset


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_rev": git_revision(),
        "seed": seed,
    }


def git_revision():
    """HEAD of the checkout, read without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result):
    import workloads

    times = result["times"]
    failed = sum(1 for f in result["failures"] if f)
    attempted = len(result["failures"])
    return {
        "setup_s": result["setup_s"],
        "op_ms_p50": 1e3 * workloads.quantile(times, 50),
        "op_ms_p90": 1e3 * workloads.quantile(times, 90),
        "ops_per_s": len(times) / sum(times),
        "records_per_s": result["records_per_s"],
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - failed / attempted,
    }


def per_layer(result, tracer):
    import spans
    import workloads

    m = spans.layer_metrics(tracer.spans, len(result["traced_times"]))
    m.update(result["quality"])
    for key in ("loop.mislabel_recall", "loop.clean_false_removal",
                "loop.prune_precision", "experiment.val_slice_acc", "slices.vote_acc"):
        m.setdefault(key, 0.0)
    untraced = workloads.quantile(result["times"], 50)
    traced = workloads.quantile(result["traced_times"], 50)
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_share"] = (traced - untraced) / untraced
    failed = sum(1 for f in result["failures"] if f)
    m["failed_share"] = failed / len(result["failures"])
    return m


def main(argv=None):
    args = parse(argv)
    if not (SRC / "ral" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'ral'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads: the workloads are one
    # closed-loop client whose small GEMMs gain nothing from a second
    # thread, and a spinning BLAS thread makes timings depend on whatever
    # else the machine runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    preset = preset_for(args.workload, args.tiny)
    if args.generate:
        workloads.generate_inputs(args.workload, preset, args.seed, args.generate)
        return 0

    digest = workloads.src_digest(SRC)
    key = reference_key(args.workload, preset, args.seed, digest)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    for d in (OUT / "refs", OUT / "results", OUT / "traces"):
        d.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", "1", "--generate", str(workdir)]
                       + (["--tiny"] if args.tiny else []), check=True)
        refs = workloads.References(OUT / "refs" / f"{args.workload}-{args.seed}-{key}.json")
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        if args.workload == "slide_vote":
            result = workloads.run_slide_vote(workdir, args.seconds, refs, preset, tracer)
        else:
            result = workloads.run_refinement(workdir, args.seconds, refs,
                                              preset["floors"], tracer)
        refs.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    env["src_sha256"] = digest
    samples = len(result["times"])
    values = per_layer(result, tracer) if args.trace else end_to_end(result)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    failures = result["failures"]
    failed = sum(1 for f in failures if f)
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        tracer.write(OUT / "traces" / f"{name}.json")
    detail = {"workload": args.workload, "env": env, "samples": samples,
              "times_s": result["times"], "raw_times_s": result["raw_times"],
              "traced_times_s": result["traced_times"],
              "probe_mean_s": result["probe_mean_s"],
              "quality": result["quality"],
              "problems": sorted({p for f in failures for p in f})}
    (OUT / "results" / f"{name}.json").write_text(json.dumps(
        dict(detail, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}),
        indent=1))
    print(json.dumps({"env": env}))
    raw = statistics.median(result["raw_times"]) if result["raw_times"] else float("nan")
    print(f"perfbench: {args.workload} seed {args.seed}: {samples} operations timed "
          f"(median {1e3 * raw:.1f} ms as measured), {failed} failed"
          + "".join(f"\n  problem: {p}" for p in detail["problems"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def reference_key(workload, preset, seed, digest):
    """Runs of the same code, preset and seed must produce the same bytes."""
    import hashlib

    blob = json.dumps([workload, preset, seed, digest], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
