"""homharm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

With --workload, runs one workload in this process: set-up (imports, input
generation from the seed, one untimed warm-up op), then a closed loop of ops
by one client for about S seconds (ending with the op whose end lies nearest
to S), each op verified outside the timed region.
A failed or raising op is counted and the run goes on.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  A full result file, with an environment
block, goes to perfbench/out/.

--trace 1 alternates untraced ops with ops during which every public
function of the homharm modules is wrapped by a span recorder (spans.py);
per-layer values are per traced op, and trace.overhead_frac compares the
two kinds of op.

Without --workload, runs every workload in its own fresh process and prints
a table.  --smoke does that at tiny sizes (spec.json's smoke_params), traced
and untraced, and fails unless every metric is emitted with its unit and no
op failed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # setup_s counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

try:
    NPROC = len(os.sched_getaffinity(0))
except AttributeError:
    NPROC = os.cpu_count() or 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- environment block --------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, op_samples: int, traced_ops: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:   # older numpy has no dict form of its build config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "thread_env": {k: os.environ.get(k) for k in _THREAD_VARS}},
        "nproc": NPROC,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "seed": seed,
        "op_samples": op_samples,   # untraced timed ops behind op_s_p50
        "traced_ops": traced_ops,
    }


# -- one workload in this process ---------------------------------------


def _layer_values(tracer, check_names, n_traced, counts, overhead, top_frac):
    """Every per-layer value this run can give, per traced op; a name a
    workload never touches reads 0."""
    values = {"trace.overhead_frac": overhead, "trace.top_span_frac": top_frac,
              "se_kernels.edges": 0.0}
    values.update({f"checks.{c}.s": 0.0 for c in check_names})
    values.update(counts)
    for name, st in tracer.function_stats().items():
        module = name.split(".")[0]
        values[f"{name}.calls"] = st["calls"] / n_traced
        values[f"{name}.self_s"] = st["self_s"] / n_traced
        values[f"{name}.repeat_frac"] = st["repeats"] / st["calls"] if st["calls"] else 0.0
        values[f"{name}.table_mb"] = st["out_bytes"] / n_traced / 2 ** 20
        values[f"{module}.calls"] = values.get(f"{module}.calls", 0.0) + st["calls"] / n_traced
        values[f"{module}.self_s"] = values.get(f"{module}.self_s", 0.0) + st["self_s"] / n_traced
    return values


def run_workload(args, bench: dict, spec: dict) -> int:
    from workloads import WORKLOADS   # imports homharm
    from homharm.checks import SUITES

    wspec = spec["workloads"][args.workload]
    params = dict(wspec["params"])
    if args.smoke:
        params.update(wspec["smoke_params"])
    params["tolerances"] = wspec.get("tolerances", {})
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    ops = []   # one record per op, the warm-up first

    def attempt(wl, i: int, traced: bool):
        if traced:
            tracer.begin_op(i)
            tracer.install()
        error, output = None, None
        t0 = time.perf_counter()
        try:
            output = wl.op(i)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        rec = {"i": i, "traced": traced, "wall_s": wall, "error": error, "counts": {},
               "top_s": tracer.top_s if traced else None}
        if error is None:
            try:
                rec["error"] = wl.verify(i, output)
                rec["counts"] = wl.op_counts(output)
            except Exception:
                rec["error"] = traceback.format_exc()
        if rec["error"]:
            print(f"op {i} failed: {rec['error']}", file=sys.stderr)
        ops.append(rec)

    wl = WORKLOADS[args.workload](params, args.seed)
    attempt(wl, 0, False)
    start = time.perf_counter()
    setup_s = start - T_START
    while True:
        # stop at the op whose end lies nearest to --seconds: start another
        # only if, lasting as long as the last one, it ends before
        # seconds + half an op
        timed = ops[1:]
        kinds = {r["traced"] for r in timed}
        enough = timed and (not args.trace or len(kinds) == 2)
        if enough and time.perf_counter() - start + timed[-1]["wall_s"] / 2 > args.seconds:
            break
        i = len(ops)
        attempt(wl, i, bool(args.trace) and i % 2 == 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    timed = ops[1:]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    failed = sum(1 for r in ops if r["error"])
    completed = sum(1 for r in plain if not r["error"])
    op_s_p50 = statistics.median(r["wall_s"] for r in plain)
    all_values = {
        "setup_s": setup_s,
        "op_s_p50": op_s_p50,
        "ops_per_s": completed / sum(r["wall_s"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
        "failed_ops_frac": failed / len(ops),
    }
    names = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if tracer is not None:
        counts = {}
        for r in plain:
            for k, v in r["counts"].items():
                counts[k] = counts.get(k, 0.0) + v / len(plain)
        overhead = statistics.median(r["wall_s"] for r in traced) / op_s_p50 - 1.0
        top_frac = sum(r["top_s"] for r in traced) / sum(r["wall_s"] for r in traced)
        check_names = [c for suite in SUITES.values() for c, _, _ in suite]
        all_values.update(_layer_values(tracer, check_names, len(traced), counts,
                                        overhead, top_frac))
        names = [m["name"] for m in bench["per_layer"]]
    metrics = {n: {"value": all_values[n], "unit": units[n]} for n in names}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = {
        "workload": args.workload,
        "params": params,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": environment(args.seed, len(plain), len(traced)),
        "failed_ops_frac": all_values["failed_ops_frac"],
        "metrics": metrics,
        "ops": ops,
        "inputs": wl.facts,
    }
    if tracer is not None:
        result["functions_per_traced_op"] = {
            name: {k: v / len(traced) for k, v in st.items()}
            for name, st in tracer.function_stats().items() if st["calls"]}
        tracer.save(stem + ".spans.npz")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(f"{args.workload}: {len(ops)} ops ({len(timed)} timed), {failed} failed, "
          f"setup_s={setup_s:.3f} op_s_p50={op_s_p50:.3f} "
          f"peak_rss_mb={peak_rss_mb:.1f} -> {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


# -- every workload, each in a fresh process ----------------------------


def _child(name: str, args, trace: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} (trace {trace}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args, bench: dict) -> int:
    traces = (0, 1) if args.smoke else (args.trace,)
    problems = []
    for trace in traces:
        wanted = bench["per_layer" if trace else "end_to_end"]
        if not trace:
            print(f"{'workload':<18} {'setup_s':>9} {'op_s_p50':>9} {'ops_per_s':>10} "
                  f"{'peak_rss_mb':>12} {'failed_ops_frac':>16}")
        for w in bench["workloads"]:
            res = _child(w["name"], args, trace)
            frac = res["failed"] / res["attempted"]
            if res["failed"] or not res["correct"]:
                problems.append(f"{w['name']}: {res['failed']} of {res['attempted']} ops failed")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w['name']}: metric {m['name']} missing or wrong unit")
            if trace and res["metrics"]["trace.top_span_frac"]["value"] < 0.9:
                problems.append(f"{w['name']}: top-level spans cover under 90% of the op")
            if not trace:
                v = {k: m["value"] for k, m in res["metrics"].items()}
                print(f"{w['name']:<18} {v['setup_s']:>9.3f} {v['op_s_p50']:>9.3f} "
                      f"{v['ops_per_s']:>10.4f} {v['peak_rss_mb']:>12.1f} {frac:>16.3f}")
            else:
                print(f"{w['name']}: {len(res['metrics'])} per-layer metrics, "
                      f"{res['failed']} of {res['attempted']} ops failed")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load(os.path.join(HERE, "spec.json"))
    ap = argparse.ArgumentParser(description="homharm benchmark")
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help=f"measuring time (default {bench['run_seconds']}, 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for checking the benchmark itself")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    if not os.path.isfile(os.path.join(SRC, "homharm", "__init__.py")):
        print(f"no homharm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, bench)
    # Both variables act only at interpreter start, so the process replaces
    # itself once.  A fixed hash seed makes repeated runs of one seed
    # allocate alike (peak RSS); BLAS keeps its default thread count unless
    # that exceeds the processors this process may run on.
    fixes = {}
    if os.environ.get("PYTHONHASHSEED") != "0":
        fixes["PYTHONHASHSEED"] = "0"
    if (os.cpu_count() or 1) > NPROC and not any(v in os.environ for v in _THREAD_VARS):
        fixes["OPENBLAS_NUM_THREADS"] = str(NPROC)
    if fixes:
        os.environ.update(fixes)
        rest = sys.argv[1:] if argv is None else list(argv)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *rest])
    sys.path.insert(0, SRC)
    return run_workload(args, bench, spec)


if __name__ == "__main__":
    sys.exit(main())
