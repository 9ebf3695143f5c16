#!/usr/bin/env python3
"""numrange benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. Every request goes through the public
entry point `numrange.cli.main(argv)` in this process, one after another
(a single closed-loop client), with one BLAS thread. Inputs come only from
--seed; every output is checked by an oracle (see workloads.py).

--trace 0 measures for S seconds and prints the end-to-end metrics, with
request times scaled to a reference machine speed (see Speedometer).
--trace 1 runs a fixed list of requests (its length depends only on S),
each once untraced and once traced, and prints the per-layer metrics.

Every metric is printed as "name value unit" first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}. A fuller
record (environment, per-request SHA-256 digests, verdicts) is written to
perfbench/results/.
"""

import os

# One BLAS thread; must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-suites", "cli-matrix", "cli-blaschke")

# Approximate seconds one round takes (2-core x86 box, one BLAS thread).
# Only used to size the fixed request list of a traced run, so that its
# untraced and its traced requests each take about TRACE_SHARE of --seconds.
ROUND_SECONDS = {"verify-suites": 1.0, "cli-matrix": 14.0, "cli-blaschke": 0.4}
TRACE_SHARE = 0.4

# Unmeasured requests run first, from a stream with its own inputs.
WARMUP_REQUESTS = 12

SETUP_REPEATS = 7

SUITE_NAMES = ("berger-stampfli", "power", "local-ineq", "operator-ineq",
               "region-s", "drury", "props52")

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
REPORTED = {"latency_samples": "count", "error_frac": "frac", "wrong_frac": "frac",
            "raw_requests_per_s": "1/s",
            "raw_latency_p50_ms": "ms", "raw_latency_p90_ms": "ms",
            "speed_factor": "ratio"}


def per_layer_units() -> dict:
    units = {
        "linalg.eigh.matrices": "count/op",
        "linalg.eigh.calls": "count/op",
        "linalg.eigh.self_ms": "ms/op",
    }
    for layer in ("fov.numerical_radius", "fov.boundary"):
        units[f"{layer}.calls"] = "count/op"
        units[f"{layer}.self_ms"] = "ms/op"
        units[f"{layer}.eig_per_call"] = "count/call"
    units.update({
        "diskfun.eval_matrix.calls": "count/op",
        "diskfun.eval_matrix.self_ms": "ms/op",
        "linalg.lu.factorizations": "count/op",
        "linalg.lu.self_ms": "ms/op",
        "diskfun.scale_retry_frac": "frac",
        "linalg.min_eigenvalue.calls": "count/op",
        "linalg.min_eigenvalue.self_ms": "ms/op",
        "regions.q_form.self_ms": "ms/op",
        "regions.teardrop_support.self_ms": "ms/op",
        "regions.teardrop_boundary.self_ms": "ms/op",
        "blaschke.clark_decomposition.calls": "count/op",
        "blaschke.clark_decomposition.self_ms": "ms/op",
        "blaschke.level_set.self_ms": "ms/op",
        "blaschke.evaluate.points_per_root": "count/root",
        "formats.parse.self_ms": "ms/op",
        "formats.out_bytes": "bytes/op",
        "cli.main.self_ms": "ms/op",
    })
    for suite in SUITE_NAMES:
        units[f"verify.{suite}.self_ms"] = "ms/op"
    units.update({
        "bench.self_ms": "ms/op",
        "trace.request_ms": "ms/op",
        "trace.overhead_frac": "frac",
        "error_frac": "frac",
        "wrong_frac": "frac",
    })
    return units


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# --------------------------------------------------------------------------
# environment

def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library numpy/scipy ship."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = int(fn())
                    break
    return found


def environment(threads: dict) -> dict:
    import numpy
    import scipy
    deps = numpy.__config__.CONFIG.get("Build Dependencies", {})
    blas = deps.get("blas", {})
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "numrange").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


class Speedometer:
    """Tracks how fast this machine runs right now.

    On a shared machine the same code and inputs run up to 1.8x slower for
    tens of seconds at a time, whenever other tenants load the host. Every
    CALIBRATION_INTERVAL_S, between requests, the benchmark times a fixed
    kernel that does not use numrange (interpreted Python, small and
    batched Hermitian eigensolves, the mix the program runs). A request's
    time is scaled by REFERENCE_S over the kernel time measured around it,
    so the time metrics read as on this machine at its reference speed and
    a change to numrange moves them while machine load mostly does not.
    """

    CALIBRATION_INTERVAL_S = 0.25
    # kernel time at the reference speed: its median on a 2-core x86 box
    # with Python 3.11, numpy 2.4 and one OpenBLAS thread
    REFERENCE_S = 0.0044

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        # 7 x 32 x 32 complex is 112 KiB: below glibc's 128 KiB mmap
        # threshold, so the kernel does not move it and change how the
        # program's own large arrays are allocated (and its peak RSS)
        batch = rng.normal(size=(7, 32, 32)) + 1j * rng.normal(size=(7, 32, 32))
        self.small = small + small.conj().T
        self.batch = batch + np.conj(np.swapaxes(batch, -1, -2))
        self.samples = []     # (start, seconds)
        self.last_end = -math.inf
        for _ in range(3):   # warm-up, discarded
            self.sample()
        self.samples.clear()

    def sample(self):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(2000):
            acc += i * i % 7
            table[i & 255] = f"{acc:.3g}"
        for _ in range(40):
            np.linalg.eigvalsh(self.small)
        np.linalg.eigvalsh(self.batch)
        self.last_end = time.perf_counter()
        self.samples.append((start, self.last_end - start))

    def maybe_sample(self):
        if time.perf_counter() - self.last_end > self.CALIBRATION_INTERVAL_S:
            self.sample()

    def factor(self, t: float) -> float:
        """REFERENCE_S over the mean kernel time of the two samples before
        and the two after time t."""
        i = bisect.bisect_right([s for s, _ in self.samples], t)
        near = self.samples[max(0, i - 2):i + 2]
        return self.REFERENCE_S / statistics.mean(d for _, d in near)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running `import numrange.cli`
    (after one unmeasured run that compiles bytecode). Not scaled: the
    child runs outside this process, where the kernel cannot time it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import numrange.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                              timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"import numrange.cli failed: {proc.stderr.decode(errors='replace')}")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


# --------------------------------------------------------------------------
# requests

def execute(cli, request, tracer=None, speed=None) -> dict:
    """One closed-loop request: cli.main(argv) with stdout/stderr captured."""
    if speed is not None:
        speed.maybe_sample()
    out, err = io.StringIO(), io.StringIO()
    rc, crash = None, None
    index = tracer.begin("bench") if tracer is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(request.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is counted in error_frac, not fatal
        crash = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end(index)
    text = out.getvalue()
    if crash is not None:
        verdict = workloads.Verdict(error=True, note=crash)
    else:
        verdict = request.check(rc, text)
        if verdict.error:
            verdict.note += f"; stderr: {err.getvalue().strip()[:200]}"
    data = text.encode()
    return {
        "kind": request.kind, "start": start, "latency_s": latency,
        "trials": request.trials,
        "roots": request.roots, "rc": rc, "error": verdict.error,
        "wrong": verdict.wrong, "gross": verdict.gross, "note": verdict.note,
        "out_bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
    }


def stream(workload: str, seed: int, workdir: str, salt: int = 0):
    if workload == "verify-suites":
        suites = list(sys.modules["numrange.verify"].SUITES)
        return workloads.verify_rounds(seed, suites, salt)
    if workload == "cli-matrix":
        return workloads.matrix_rounds(seed, workdir, salt)
    return workloads.blaschke_rounds(seed, workdir, salt)


def run_round(cli, requests, speed=None) -> list:
    return [execute(cli, req, speed=speed) for req in requests]


def outcome(records: list) -> dict:
    n = len(records)
    return {
        "attempted": n,
        "failed": sum(r["error"] for r in records),
        "error_frac": sum(r["error"] for r in records) / n,
        "wrong_frac": sum(r["wrong"] for r in records) / n,
        "gross": sum(r["gross"] for r in records),
    }


def end_to_end(rounds: list, setup_s: float, speed: Speedometer) -> dict:
    records = [r for recs in rounds for r in recs]
    for r in records:
        r["scaled_s"] = r["latency_s"] * speed.factor(r["start"])

    def rates(key, per_round):
        # per-round rates, reported as medians so that one slow stretch
        # does not move the figure
        return statistics.median(per_round(recs) / sum(r[key] for r in recs)
                                 for recs in rounds)

    def deciles(key):
        ms = sorted(r[key] * 1e3 for r in records)
        return statistics.quantiles(ms, n=10, method="inclusive")

    return {
        "setup_s": setup_s,
        "trials_per_s": rates("scaled_s", lambda recs: sum(r["trials"] for r in recs)),
        "requests_per_s": rates("scaled_s", len),
        "latency_p50_ms": statistics.median(r["scaled_s"] * 1e3 for r in records),
        "latency_p90_ms": deciles("scaled_s")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_samples": len(records),
        "raw_requests_per_s": rates("latency_s", len),
        "raw_latency_p50_ms": statistics.median(r["latency_s"] * 1e3 for r in records),
        "raw_latency_p90_ms": deciles("latency_s")[8],
        "speed_factor": statistics.median(speed.factor(r["start"]) for r in records),
    }


def per_layer(tracer, records: list, untraced: list) -> dict:
    ops = sum(r["trials"] for r in records)
    totals = spans.layer_totals(tracer)
    empty = {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "errors": 0,
             "eig": 0, "lu": 0, "pts": 0}

    def t(name):
        return totals.get(name, empty)

    def ms(name):
        return t(name)["self_s"] * 1e3 / ops

    def per_call(name, kind):
        return t(name)[kind] / t(name)["calls"] if t(name)["calls"] else 0.0

    roots = sum(r["roots"] for r in records if r["kind"] == "clark" and not r["error"])
    traced_s = sum(r["latency_s"] for r in records)
    untraced_s = sum(r["latency_s"] for r in untraced)
    m = {
        "linalg.eigh.matrices": tracer.counts["eig"] / ops,
        "linalg.eigh.calls": t("linalg.eigh")["calls"] / ops,
        "linalg.eigh.self_ms": ms("linalg.eigh"),
    }
    for layer in ("fov.numerical_radius", "fov.boundary"):
        m[f"{layer}.calls"] = t(layer)["calls"] / ops
        m[f"{layer}.self_ms"] = ms(layer)
        m[f"{layer}.eig_per_call"] = per_call(layer, "eig")
    m.update({
        "diskfun.eval_matrix.calls": t("diskfun.eval_matrix")["calls"] / ops,
        "diskfun.eval_matrix.self_ms": ms("diskfun.eval_matrix"),
        "linalg.lu.factorizations": tracer.counts["lu"] / ops,
        "linalg.lu.self_ms": ms("linalg.lu"),
        "diskfun.scale_retry_frac": per_call("diskfun.eval_matrix", "errors"),
        "linalg.min_eigenvalue.calls": t("linalg.min_eigenvalue")["calls"] / ops,
        "linalg.min_eigenvalue.self_ms": ms("linalg.min_eigenvalue"),
        "regions.q_form.self_ms": ms("regions.q_form"),
        "regions.teardrop_support.self_ms": ms("regions.teardrop_support"),
        "regions.teardrop_boundary.self_ms": ms("regions.teardrop_boundary"),
        "blaschke.clark_decomposition.calls": t("blaschke.clark_decomposition")["calls"] / ops,
        "blaschke.clark_decomposition.self_ms": ms("blaschke.clark_decomposition"),
        "blaschke.level_set.self_ms": ms("blaschke.level_set"),
        "blaschke.evaluate.points_per_root":
            t("blaschke.clark_decomposition")["pts"] / roots if roots else 0.0,
        "formats.parse.self_ms": ms("formats.parse"),
        "formats.out_bytes": sum(r["out_bytes"] for r in records) / ops,
        "cli.main.self_ms": ms("cli.main"),
    })
    for suite in SUITE_NAMES:
        m[f"verify.{suite}.self_ms"] = ms(f"verify.{suite}")
    m.update({
        "bench.self_ms": ms("bench"),
        "trace.request_ms": t("bench")["wall_s"] * 1e3 / ops,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return m


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "numrange" / "cli.py").is_file():
        fail(f"no numrange sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import numrange.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "numrange":
        fail(f"imported numrange from {cli.__file__}, not from {SRC}")

    threads = blas_threads()
    if any(n != 1 for n in threads.values()):
        fail(f"BLAS thread count is not 1: {threads}", code=3)
    env = environment(threads)

    workdir = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = next(stream(args.workload, args.seed, str(workdir), salt=1))
        run_round(cli, warmup[:WARMUP_REQUESTS])
        rounds = stream(args.workload, args.seed, str(workdir))
        if args.trace:
            count = max(1, round(TRACE_SHARE * args.seconds / ROUND_SECONDS[args.workload]))
            fixed = [req for _ in range(count) for req in next(rounds)]
            tracer = spans.Tracer()
            patched = spans.Patched(tracer)
            records, untraced = [], []
            # each request runs untraced and traced back to back, in
            # alternating order, so that both see the same machine speed
            for i, req in enumerate(fixed):
                if i % 2:
                    with patched:
                        records.append(execute(cli, req, tracer))
                untraced.append(execute(cli, req))
                if not i % 2:
                    with patched:
                        records.append(execute(cli, req, tracer))
            metrics = per_layer(tracer, records, untraced)
            units = per_layer_units()
        else:
            setup_s = measure_setup()
            speed = Speedometer()
            measured = []
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                measured.append(run_round(cli, next(rounds), speed))
            speed.sample()
            records = [r for recs in measured for r in recs]
            metrics = end_to_end(measured, setup_s, speed)
            units = dict(END_TO_END, **REPORTED)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = outcome(records)
    metrics.update({k: out[k] for k in ("error_frac", "wrong_frac")})
    digest = hashlib.sha256("".join(r["sha256"] for r in records).encode()).hexdigest()
    correct = out["gross"] == 0 and out["failed"] == 0

    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "git_sha"):
        print(f"env {key}: {env[key]}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{out['attempted']} requests, {out['failed']} failed, "
          f"{sum(r['wrong'] for r in records)} wrong, {out['gross']} grossly wrong")
    for r in records:
        if r["error"] or r["wrong"]:
            print(f"  {'error' if r['error'] else 'wrong'} {r['kind']}: {r['note']}")
    print(f"output digest: {digest}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct, **out,
              "output_sha256": digest,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              "requests": records}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    wanted = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
