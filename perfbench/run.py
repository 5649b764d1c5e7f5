"""namelink benchmark: seeded workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run generates its workload's inputs, sets the workload up, then repeats
its cycle until ``--seconds`` have passed; set-up is repeated at even
intervals between cycles, and ``setup_s`` is the median set-up time.  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every other cycle is traced, the
object carries the per-layer metrics instead, and every span is written to
``.perfbench_spans/<workload>.tsv``.  Lines before it report the
environment, the workload's shape and its own named metrics.  ``--workload
all`` runs each workload untraced in a fresh process and prints them all.

The end-to-end metrics are common to all workloads; each reads them so:

    throughput      train-block: training samples/s of the ``train`` command
                    corpus-pass: records/s of ``ingest``
                    resolve:     records resolved per second (median batch)
    latency_p50_ms  train-block: the ``train`` command
                    corpus-pass: ``stats --block``
                    resolve:     one incoming record, routed and predicted
    setup_s, peak_rss_mb  the run's median set-up time and peak memory

BENCHMARK.json gates train-block and resolve.  corpus-pass runs only when
asked for (and in ``all``): its pure-Python parse and store work is too
sensitive to host load for a 0.25 bound, so the corpus commands are also
timed, at A-7 scale, in every train-block cycle.

Every file the program writes goes under a temp dir in ``.perfbench_tmp/``
that is removed at exit.  Exit codes: 0 success (see ``correct`` for the
output checks), 1 failed set-up, 2 refused to run.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches behind in the checkout

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import tempfile
from time import perf_counter

from measure import median

WORKLOADS = ("train-block", "corpus-pass", "resolve")
TMP_ROOT = ".perfbench_tmp"
SPANS_DIR = ".perfbench_spans"
E2E_UNITS = {"setup_s": "s", "throughput": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the cycle loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return "unknown"


def environment(root: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "seed": seed,
    }


def _emit(tag: str, payload) -> None:
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def run_workload(name: str, seed: int, seconds: float, traced_run: bool, tmp: str) -> dict:
    from layers import ALL_LAYER_METRICS, LayerTrace
    from workloads import WORKLOADS as CLASSES

    trace = LayerTrace()
    workload = CLASSES[name](seed, tmp, trace)
    workload.inputs()
    setups = []

    def timed_setup():
        started = perf_counter()
        workload.setup()
        setups.append(perf_counter() - started)

    timed_setup()
    ops = []
    walls = {True: [], False: []}
    begun = perf_counter()
    deadline = begun + seconds
    index = 0
    # a traced run alternates plain and traced cycles; it needs one plain
    # cycle after the first so the overhead compares warm cycles
    while index == 0 or perf_counter() < deadline or (traced_run and index < 3):
        # the other set-ups are spread over the run, so that setup_s sees
        # the host over the same stretch of time as the cycles do
        while len(setups) < workload.SETUP_REPEATS and perf_counter() >= begun + seconds * len(setups) / workload.SETUP_REPEATS:
            timed_setup()
        traced = traced_run and index % 2 == 1
        workload.prepare(index)
        started = perf_counter()
        if traced:
            with trace.cycle():
                cycle_ops = workload.cycle(index)
        else:
            cycle_ops = workload.cycle(index)
        if index > 0:
            walls[traced].append(perf_counter() - started)
        for op in cycle_ops:
            op.cycle, op.traced = index, traced
        ops += cycle_ops
        index += 1
    ops += workload.final_checks()

    plain = [op for op in ops if not op.traced]
    failed = sum(not op.ok for op in ops)
    for position, op in enumerate(ops):
        if not op.ok:
            print(f"check failed: {op.kind} (operation {position})", file=sys.stderr)
    e2e = {
        "setup_s": median(setups),
        **workload.e2e(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    shape = workload.shape()
    if traced_run:
        overhead = median(walls[True]) - median(walls[False])
        values = trace.metrics(overhead)
        shape.update({k: values[k] for k in ("encoders.name_distinct_ratio", "encoders.text_distinct_ratio")})
    _emit("shape", shape)
    for metric, value, unit, samples in workload.named(plain):
        _emit("metric", {"workload": name, "name": metric, "value": value, "unit": unit, "samples": samples})
    _emit("metric", {"workload": name, "name": "setup_s", "value": e2e["setup_s"], "unit": "s", "samples": len(setups)})
    _emit("metric", {"workload": name, "name": "peak_rss_mb", "value": e2e["peak_rss_mb"], "unit": "MB", "samples": 1})
    _emit("metric", {"workload": name, "name": "fail_ratio", "value": failed / len(ops), "unit": "ratio", "samples": len(ops)})
    _emit("cycles", {"plain": index - (index // 2 if traced_run else 0), "traced": index // 2 if traced_run else 0})

    if not traced_run:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    else:
        if trace.missing:
            print(f"not traced (callable missing): {', '.join(trace.missing)}", file=sys.stderr)
        for m in ALL_LAYER_METRICS:
            _emit("layer", {"name": m.name, "value": values[m.name], "unit": m.unit, "moves": m.moves})
        _emit("accounting", _accounting(trace, overhead))
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in ALL_LAYER_METRICS}
        os.makedirs(SPANS_DIR, exist_ok=True)
        trace.tracer.dump(os.path.join(SPANS_DIR, f"{name}.tsv"))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def _accounting(trace, overhead: float) -> dict:
    """Per traced command: its spans' wall time, the part the traced layers'
    self times cover, and the command's own remainder."""
    t = trace.tracer
    selfs = t.self_times()
    cycles = max(trace.cycles, 1)
    out = {}
    for name in sorted({n for n in t.names if n.startswith("cli.")}):
        roots = t.spans_of([name])
        inside = set(roots)
        layers = 0.0
        for i in range(len(t)):
            if t.parent[i] in inside:
                inside.add(i)
                layers += selfs[i]
        wall = sum(t.end[i] - t.start[i] for i in roots)
        out[name] = {"wall_s": wall / cycles, "layers_self_s": layers / cycles, "command_self_s": (wall - layers) / cycles}
    out["trace_overhead_s"] = overhead
    return out


def run_all(args, env: dict) -> int:
    """Each workload untraced, in a fresh process; then every named metric."""
    _emit("env", {**env, "workload": "all", "seconds": args.seconds, "trace": 0})
    results, rows, code = {}, [], 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out", file=sys.stderr)
            code = 1
            continue
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# shape "):
                _emit("shape", {"workload": name, **json.loads(line[len("# shape "):])})
            elif line.startswith("# metric "):
                rows.append(json.loads(line[len("# metric "):]))
    for row in rows:
        value = "n/a" if row["value"] is None else f"{row['value']:.6g}"
        print(f"{row['workload']:<12} {row['name']:<22} {value:>14} {row['unit']:<6} n={row['samples']}")
    print(json.dumps({"env": env, "results": results}, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "namelink", "__init__.py")):
        print("error: ./src/namelink not found; run from the root of a namelink checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import namelink

    if not os.path.abspath(namelink.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: imported namelink from {namelink.__file__}, not from ./src", file=sys.stderr)
        return 2
    env = environment(root, args.seed)
    if env["blas_threads"] is None:
        print("warning: could not ask the BLAS library for its thread count; "
              "the check against nproc was skipped", file=sys.stderr)
    elif env["blas_threads"] > env["nproc"]:
        print(f"error: BLAS would use {env['blas_threads']} threads on {env['nproc']} cpus; "
              "set OPENBLAS_NUM_THREADS to at most nproc", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, env)
    _emit("env", {**env, "workload": args.workload, "seconds": args.seconds, "trace": args.trace})

    from workloads import SetupError

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
