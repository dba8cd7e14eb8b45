"""Smoke test of the benchmark itself, at tiny size (about two minutes).

    python3 perfbench/smoke.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, traced and untraced; that a deliberately corrupted artifact, and
deliberately wrong conv kernels, count as failed operations; that the traced
layer totals reconcile; and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "smoke"


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics_printed(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, result
            printed = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            assert set(printed) == set(wanted), set(printed) ^ set(wanted)
            for name, unit in wanted.items():
                assert printed[name]["unit"] == unit, (name, printed[name])
                assert isinstance(printed[name]["value"], (int, float)), name
            if trace:
                ratio = printed["trace.reconcile_ratio"]["value"]
                assert 0.9 <= ratio <= 1.0, f"{workload}: layer totals reconcile to {ratio}"
            print(f"smoke: {workload} trace {trace}: {len(printed)} metrics printed")


def failed(result):
    return sum(1 for problems in result["failures"] if problems)


def check_corruption_counts():
    """A corrupted artifact, and a conv kernel whose outputs or weight
    gradients are 1% off, each make every operation fail."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    import workloads
    from ral import experiment, imageio
    from ral.nn import layers

    def add_audit_row(write_audit):
        def forged(out, result):
            write_audit(out, result)
            with open(Path(out) / "audit.csv", "a") as f:
                f.write("1,forged/0/0/0,confidence\n")
        return forged

    def flip_last_byte(save_image):
        def flipped(path, pixels):
            save_image(path, pixels)
            blob = bytearray(Path(path).read_bytes())
            blob[-1] ^= 0xFF
            Path(path).write_bytes(bytes(blob))
            return path
        return flipped

    def off_by_a_percent(forward):
        def skewed(conv, x):
            y, cache = forward(conv, x)
            return y * 1.01, cache
        return skewed

    def weight_gradient_off(backward):
        def skewed(conv, dy, cache):
            dx, (dw, db) = backward(conv, dy, cache)
            return dx, [dw * 1.01, db]
        return skewed

    # A corrupted artifact fails the byte check against the clean run. A
    # wrong kernel must fail without it, on the reference checks alone, so
    # its run starts fresh digests.
    cases = (("desk", experiment, "write_audit", add_audit_row, False),
             ("slide_vote", imageio, "save_image", flip_last_byte, False),
             ("desk", layers.Conv2d, "forward", off_by_a_percent, True),
             ("desk", layers.Conv2d, "backward", weight_gradient_off, True),
             ("slide_vote", layers.Conv2d, "forward", off_by_a_percent, True))
    for workload, owner, attr, corrupt, fresh in cases:
        workdir = SCRATCH / workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        preset = workloads.tiny(workloads.SLIDE_VOTE if workload == "slide_vote"
                                else workloads.DESK)
        workloads.generate_inputs(workload, preset, 7, workdir)

        def run(refs):
            if workload == "slide_vote":
                return workloads.run_slide_vote(workdir, 0, refs, preset)
            return workloads.run_refinement(workdir, 0, refs, preset["floors"])

        refs = workloads.References(workdir / "refs.json")
        clean = run(refs)
        assert failed(clean) == 0, clean["failures"]
        patches = spans.Patcher()
        patches.patch(owner, attr, corrupt(owner.__dict__[attr]))
        try:
            bad = run(workloads.References(workdir / "fresh.json") if fresh else refs)
        finally:
            patches.undo()
        assert failed(bad) == len(bad["failures"]) >= 1, bad["failures"]
        print(f"smoke: {workload}: {owner.__name__}.{attr} corrupted, counted as "
              f"{failed(bad)} failed of {len(bad['failures'])}: {bad['failures'][-1][0]}")


def check_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench("desk", 0, cwd=bare, script=bare / HERE.name / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("smoke: without sources the benchmark exits", proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_metrics_printed(spec)
        check_corruption_counts()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke: ok")


if __name__ == "__main__":
    main()
