"""cstlab benchmark: one workload, one seed, one run.

    python3 cstbench/run.py --workload {paper,fuzz,solve,render} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Everything runs in this one process on the
pure-Python kernels.  Passes repeat until the next one would overrun
``--seconds``.  Reported times are medians over passes or set-ups, scaled
to the nominal speed of a calibration job sampled throughout the run (see
calibration.py); the raw medians are printed too.
The traced run alternates untraced and traced passes, then replays pass 0
call by call, and writes its spans to ``cstbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibration
from metrics import Tally, layer_metrics, percentile
from spans import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# Set-up is repeated and its median reported, so that work moved into
# import or input generation shows against a steady baseline.
SETUP_REPEATS = 5
# Calibration samples taken before and after every pass, to compare with
# those taken while passes run (printed as pass_bias).
BOUNDARY_SAMPLES = 4


def environment(backend: str) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 0
    return {"backend": backend, "python": platform.python_version(), "nproc": cpus}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Timed:
    value: object
    seconds: float
    window: slice  # calibration samples from just before to just after it


class Clock:
    """Times work, leaving out the calibration samples taken meanwhile."""

    def __init__(self, sampler: calibration.Sampler) -> None:
        self.sampler = sampler

    def time(self, fn, in_pass: bool = False) -> Timed:
        # Each piece starts from a collected heap, so garbage left by the
        # previous one is not charged to it.
        gc.collect()
        stolen, first = self.sampler.stolen, len(self.sampler.samples)
        self.sampler.in_pass = in_pass
        t0 = time.perf_counter()
        try:
            value = fn()
        finally:
            self.sampler.in_pass = False
        seconds = time.perf_counter() - t0 - (self.sampler.stolen - stolen)
        window = slice(max(first - 1, 0), len(self.sampler.samples) + 1)
        return Timed(value, seconds, window)

    def scaled(self, timed: Timed, seconds: float | None = None) -> float:
        """*seconds* (default: the whole piece) at the calibration job's
        nominal speed, by the samples around the piece."""
        samples = self.sampler.samples[timed.window] or self.sampler.samples
        factor = calibration.NOMINAL_S / statistics.mean(samples)
        return (timed.seconds if seconds is None else seconds) * factor


def set_up(name: str, seed: int, workdir: Path, clock: Clock) -> list[Timed]:
    """Import cstlab and build the workload's inputs, SETUP_REPEATS times
    from a clean module cache; only the last Timed keeps its workload."""

    def build():
        workloads = importlib.import_module("workloads")
        return workloads.WORKLOADS[name](seed, workdir)

    setups = []
    for _ in range(SETUP_REPEATS):
        if setups:
            # Drop the previous copy, so that it is not in peak_rss_mb.
            setups[-1].value = None
        for module in list(sys.modules):
            if module.split(".")[0] in ("cstlab", "workloads", "trees"):
                del sys.modules[module]
        setups.append(clock.time(build))
    return setups


def run_passes(workload, seconds: float, clock: Clock, tracer: Tracer | None):
    """Passes until the next would overrun *seconds*.  A traced run pairs
    each untraced pass with a traced pass of the same calls and alternates
    which goes first."""
    untraced: list[Timed] = []
    traced: list[Timed] = []
    start = time.perf_counter()
    for p in range(workload.max_passes):
        if p:
            estimate = statistics.median(t.seconds for t in untraced)
            if tracer is not None:
                estimate += statistics.median(t.seconds for t in traced)
            if time.perf_counter() - start + estimate > seconds:
                break
        clock.sampler.at_boundary(BOUNDARY_SAMPLES)
        sides = [(NULL, untraced)] if tracer is None else [(NULL, untraced), (tracer, traced)]
        for side, timed in sides[:: -1 if p % 2 else 1]:
            if side is tracer:
                tracer.phase = f"pass{p}"
            timed.append(clock.time(lambda: workload.run_pass(p, side), in_pass=True))
    clock.sampler.at_boundary(BOUNDARY_SAMPLES)
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cstlab" / "__init__.py").is_file():
        print(f"error: no cstlab sources under {SRC}", file=sys.stderr)
        return 2
    # The compiled kernel is optional and never built for tier-1; measure
    # the pure-Python kernels that tier-1 runs.
    os.environ["CSTLAB_PURE"] = "1"
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        with calibration.Sampler() as sampler:
            clock = Clock(sampler)
            setups = set_up(args.workload, args.seed, Path(tmp), clock)
            workload = setups[-1].value
            import cstlab

            if not Path(cstlab.__file__).resolve().is_relative_to(SRC):
                print(f"error: cstlab imported from {cstlab.__file__}, not {SRC}", file=sys.stderr)
                return 2
            env = environment(cstlab.BACKEND)
            print("env " + " ".join(f"{k}={v}" for k, v in env.items())
                  + ("" if env["backend"] == "pure" else " WARNING=backend-is-not-pure"))

            tracer = Tracer() if args.trace else None
            untraced, traced = run_passes(workload, args.seconds, clock, tracer)
        tally = Tally()
        for t in untraced + traced:
            tally.merge(t.value.tally)
        if tracer is not None:
            tracer.phase = "detail"
            workload.detail(tracer, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    work = sum(t.value.work for t in untraced)
    latencies = [x for t in untraced for x in t.value.latencies]
    print(f"passes={len(untraced)} {workload.unit}={work} calls={len(latencies)} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"chain_probes={tally.probes} chain_probe_failures={tally.probe_failed}")
    print(f"raw_wall_s={statistics.median(t.seconds for t in untraced):.4f} "
          f"raw_setup_s={statistics.median(t.seconds for t in setups):.4f} "
          f"speed={sampler.scale:.4f} (calibration over {len(sampler.samples)} samples, 1 = nominal)")
    print(f"pass_bias={sampler.pass_bias:.4f} (calibration job's median time during passes over "
          f"between passes, {len(sampler.pass_samples)}/{len(sampler.boundary_samples)} samples)")
    for q in (50, 90):
        try:
            print(f"call_p{q}_ms={percentile(latencies, q) * 1000:.3f} (n={len(latencies)}, raw)")
        except ValueError as exc:
            print(f"call_p{q}_ms unavailable: {exc}")
    for note in tally.notes:
        print(f"failure: {note}", file=sys.stderr)

    if tracer is not None:
        values = layer_metrics(tracer.spans)
        values["trace.overhead"] = statistics.median(
            t.seconds / u.seconds for t, u in zip(traced, untraced)
        )
        wanted = spec["per_layer"]
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                     {**env, "workload": args.workload, "seed": args.seed})
    else:
        values = {
            "setup_s": statistics.median(clock.scaled(t) for t in setups),
            "wall_s": statistics.median(clock.scaled(t) for t in untraced),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": tally.success_rate,
            "work_per_s": statistics.median(
                t.value.work / clock.scaled(t, t.seconds - t.value.probe_s) for t in untraced
            ),
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}={values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted + tally.probes,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
