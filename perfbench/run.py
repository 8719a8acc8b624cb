"""Outside-in benchmark for powpos.

Runs one workload (``honest-perfect``, ``latency-fixed2`` or ``attack-lab``)
as a closed loop of identical operations built from ``--seed``, checks every
operation's output, and prints every metric by name and unit.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of BENCHMARK.json, measured untraced; with ``--trace 1`` they are its
per-layer metrics, from traced operations alternating with untraced ones.

    python3 perfbench/run.py --workload honest-perfect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--workload all`` runs each workload in its own process, so that each
reports its own peak RSS.  Run from the repository root; the package is
imported from ``src/`` next to this directory, never from site-packages.
"""

import time

STARTED = time.perf_counter()

import os

# One process, no extra threads: keep numpy's BLAS pool from starting any.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import reference  # this directory is on sys.path when run as a script

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

SETUP_SAMPLES = 9         # set-ups per run: this process plus eight probes
MIN_OPS = 3               # untraced run
MIN_TRACED_OPS = 4        # traced run: two untraced, two traced
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Import powpos from this checkout's ``src/``; exit if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "powpos", "__init__.py")):
        sys.exit(f"powpos sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import powpos

    if not os.path.abspath(powpos.__file__).startswith(SRC + os.sep):
        sys.exit(f"powpos imported from {powpos.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Machine record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # some enclosing repository, not this checkout
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources: identifies the code where git cannot."""
    import hashlib

    digest = hashlib.sha256()
    package = os.path.join(SRC, "powpos")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine_record(seed: int, load_start) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Operations


class OpRecord:
    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.completed = False
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.work = 0
        self.work_s = 0.0
        self.parts = []          # workloads.Part per part of the op
        self.problems = []
        self.digest = None
        self.layers = None       # per-layer values of a traced op
        self.exact = None        # counts that must repeat across traced ops


def run_op(workload, index: int, tracer) -> OpRecord:
    import layers

    record = OpRecord(index, tracer is not None)
    trace = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = workload.op()
        else:
            with tracer.op(index) as trace:
                out = workload.op()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        record.wall_s = time.perf_counter() - wall0
        record.cpu_s = time.process_time() - cpu0
        record.problems.append(f"op raised {type(exc).__name__}: {exc}")
        return record
    record.wall_s = time.perf_counter() - wall0
    record.cpu_s = time.process_time() - cpu0
    record.completed = True
    record.work, record.work_s, record.parts = out.work, out.work_s, out.parts
    try:
        problems, record.digest = workload.check(out)
        record.problems.extend(problems)
    except Exception as exc:
        record.problems.append(f"check raised {type(exc).__name__}: {exc}")
    if trace:
        record.layers, record.exact = layers.layer_values(out, trace[0])
    return record


def measure(workload, seconds: float, tracer) -> list:
    """Closed loop until ``seconds`` have passed; traced runs alternate."""
    records = []
    min_ops = MIN_TRACED_OPS if tracer is not None else MIN_OPS
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and len(records) % 2 == 1
        records.append(run_op(workload, len(records), tracer if traced else None))
    # Determinism: every op of one seed must give the first op's digest,
    # and every traced op the first traced op's exact counts.
    digests = [r.digest for r in records if r.digest is not None]
    exact = [r.exact for r in records if r.exact is not None]
    for r in records:
        if r.digest is not None and r.digest != digests[0]:
            r.problems.append(f"digest {r.digest[:16]} differs from {digests[0][:16]}")
        if r.exact is not None and r.exact != exact[0]:
            diff = sorted(k for k in set(r.exact) | set(exact[0])
                          if r.exact.get(k) != exact[0].get(k))
            r.problems.append(f"traced counts differ from the first traced op: {diff}")
    return records


def setup_time() -> tuple:
    """Seconds since process start, scaled as ``op_s`` is and raw.

    The reference kernel runs right after the set-up, well inside the same
    phase of the host's speed.
    """
    raw = time.perf_counter() - STARTED
    ref_s = statistics.median(reference.kernel_s() for _ in range(9))
    return raw * reference.NOMINAL_S / ref_s, raw


def probe_setup(args) -> tuple:
    """Set the workload up again in a fresh process; returns its set-up times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    times = json.loads(done.stdout.strip().splitlines()[-1])
    return times["setup_s"], times["raw_setup_s"]


# ---------------------------------------------------------------------------
# Reporting


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric  {name:<44} {value!r:>24} {unit:<12} {note}".rstrip())


def typical(records, field: str, scaled: bool = False) -> float:
    """The op's typical time: each part's median over the run's ops, summed.

    Other tenants of a shared host slow ops down in bursts of seconds; the
    median of each part over many repetitions ignores the bursts, and
    summing over the op's many parts averages out what remains.  With
    ``scaled``, each part's seconds are first scaled to the reference host
    speed (see reference.py), which removes drifts longer than the run.
    """
    def seconds(part):
        value = getattr(part, field)
        return value * reference.NOMINAL_S / part.ref_s if scaled else value

    return sum(statistics.median(seconds(r.parts[i]) for r in records)
               for i in range(len(records[0].parts)))


def end_to_end(records, setup_samples) -> dict:
    timed = [r for r in records if r.completed]
    return {
        "setup_s": statistics.median(scaled for scaled, _raw in setup_samples),
        "op_s": typical(timed, "wall_s", scaled=True),
        "blocks_or_trials_per_s": timed[0].work / typical(timed, "core_s", scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Raw host seconds, printed but not gated: they follow the host's drift.
        "wall_s": typical(timed, "wall_s"),
        "cpu_s": typical(timed, "cpu_s"),
        "reference_kernel_ms": 1000 * statistics.median(
            part.ref_s for r in timed for part in r.parts),
    }


def per_layer(records, workload) -> dict:
    traced = [r for r in records if r.layers is not None]
    plain = [r for r in records if not r.traced and r.completed]
    if not traced or not plain:
        sys.exit("no traced or no untraced op completed")
    values = {}
    for name in traced[0].layers:
        samples = [r.layers[name] for r in traced]
        # Counts repeat exactly (checked in measure) and stay whole numbers.
        same = all(s == samples[0] for s in samples)
        values[name] = samples[0] if same else statistics.median(samples)
    plain_wall = typical(plain, "wall_s", scaled=True)
    values["trace.overhead_s"] = typical(traced, "wall_s", scaled=True) - plain_wall
    values["trace.overhead_share"] = values["trace.overhead_s"] / plain_wall
    retained = workload.retained_bytes_per_block()
    values["chain.rss_per_block_kb"] = retained / 1024.0 if retained else 0.0
    return values


def run_workload(args, spec: dict) -> int:
    load_start = os.getloadavg()
    import_package()
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = setup_time()
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "raw_setup_s": setup[1]}))
            return 0
        tracer = tracing.Tracer(tracing.powpos_targets()) if args.trace else None
        records = measure(workload, args.seconds, tracer)
        if not any(r.completed for r in records):
            sys.exit(f"every op raised; the first: {records[0].problems[0]}")
        if args.trace:
            values = per_layer(records, workload)
            declared = spec["per_layer"]
        else:
            setup_samples = [setup] + [probe_setup(args)
                                         for _ in range(SETUP_SAMPLES - 1)]
            values = end_to_end(records, setup_samples)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for r in records if r.problems)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("machine  " + json.dumps(machine_record(args.seed, load_start), sort_keys=True))
    for r in records:
        status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        print(f"op {r.index:>3} {'traced' if r.traced else 'plain ':<6}  "
              f"wall {r.wall_s:.4f} s  cpu {r.cpu_s:.4f} s  "
              f"{workload.work_unit} {r.work} in {r.work_s:.4f} s  "
              f"digest {(r.digest or '-')[:16]}  {status}")
    digests = sorted({r.digest for r in records if r.digest})
    print(f"digest   {' '.join(digests) or '-'}")
    if not args.trace:
        for i, label in enumerate(("scaled", "raw")):
            print(f"setup    {label:<6} samples "
                  f"{' '.join(f'{sample[i]:.4f}' for sample in setup_samples)} s")
        rates = values["blocks_or_trials_per_s"]
        print_metric(f"{workload.work_unit}_per_s", rates, "1/s")
        print_metric("error_rate", failed / len(records), "ratio",
                     f"{failed} failed of {len(records)}")
        print_metric("wall_s", values["wall_s"], "s", "raw host seconds")
        print_metric("cpu_s", values["cpu_s"], "s", "raw process seconds")
        print_metric("reference_kernel_ms", values["reference_kernel_ms"], "ms",
                     f"nominal {1000 * reference.NOMINAL_S:g} ms")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        print_metric(name, values[name], unit)
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    status = 0
    for entry in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        if done.returncode != 0 or not result.get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
