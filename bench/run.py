"""Benchmark entry point for hyperslice.

Run from the repository root:

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 1

Untraced (--trace 0): the workload's end-to-end metrics.  Each workload runs
in its own fresh interpreter (bench/worker.py) with PYTHONPATH=src,
HYPERSLICE_THREADS=min(4, nproc) and one BLAS/OpenMP thread, set before
numpy loads.  Traced (--trace 1): the per-layer metrics, from fixed item
sets of all three workloads, a repeat of the probe items at
HYPERSLICE_THREADS=1, cold CLI runs and ``-X importtime``.

A human-readable report goes to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The full
result with run metadata is written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from scipy.special import betainc

import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE = Path("src") / "hyperslice" / "__init__.py"

#: Fresh interpreters launched per untraced run to sample set-up time; the
#: workload's own interpreter adds one more sample.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170.0

CLI_COMMANDS = {
    "volume": ["volume", "--d", "5", "--a", "0.3,0.4,0.5,0.6,0.7", "--t", "0.2",
               "--method", "all"],
    "maximize": ["maximize", "--d", "5", "--t", "1.05", "--starts", "16"],
    "certify": ["certify", "--d-range", "6:10", "--grid", "2000", "--rigorous"],
    "scan": ["scan", "--d", "6", "--t-range", "0.9:1.2:8", "--mode", "diagonal"],
}
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bench_env() -> dict:
    """Child environment; thread counts are fixed before numpy is imported.

    threadpoolctl is not installed, so these variables are the only lever
    on the BLAS pool.
    """
    env = dict(os.environ)
    env.update(
        PYTHONPATH="src",
        HYPERSLICE_THREADS=str(min(4, nproc())),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Worker:
    """One bench/worker.py interpreter; its start-to-READY time is a set-up
    sample."""

    def __init__(self, env, workload, seed, mode, seconds=None, items=None):
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        if items is not None:
            cmd += ["--items", str(items)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "READY":
                raise RuntimeError(f"worker {workload}/{mode} failed during set-up")
        except BaseException:
            self.close()
            raise

    def wait(self) -> str:
        """Wait for the worker to exit; returns what it printed after READY."""
        try:
            out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def result(self) -> dict:
        return json.loads(self.wait().strip().splitlines()[-1])

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  With a few dozen heavy-tailed latencies it moves far
    less between runs than interpolating the two nearest order statistics.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- untraced


def run_untraced(env, workload, seed, seconds, items=None):
    w = Worker(env, workload, seed, "run", seconds=seconds, items=items)
    setup = [w.setup_s]
    res = w.result()
    # the extra set-up samples come after the timed loop, so their exiting
    # interpreters cannot disturb it
    for _ in range(SETUP_SAMPLES):
        w = Worker(env, workload, seed, "setup")
        setup.append(w.setup_s)
        w.wait()
    recs = res["items"]
    ms = [r["ms"] for r in recs]
    failed = sum(bool(r["failures"]) for r in recs)
    metrics = {
        "items_per_s": metric(len(recs) / res["wall_s"], "1/s"),
        "item_p50_ms": metric(quantile(ms, 0.5), "ms"),
        "item_p90_ms": metric(quantile(ms, 0.9), "ms"),
        "pass_frac": metric(1.0 - failed / len(recs), "fraction"),
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mb": metric(res["rss_mb"], "MB"),
    }
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "wall_s": res["wall_s"], "setup_samples_s": setup, "blas": res["blas"],
        "attempted": len(recs), "failed": failed,
        "unexpected": [(r["id"], r["unexpected"]) for r in recs if r["unexpected"]],
        "failures_by_family": _count_failures(recs),
        "metrics": metrics, "items": recs,
    }


def _count_failures(recs):
    out = {}
    for r in recs:
        fam = out.setdefault(f"{r['kind']}/{r['family']}", [0, 0])
        fam[0] += 1
        fam[1] += bool(r["failures"])
    return out


def report_untraced(res):
    m = res["metrics"]
    n = res["attempted"]
    beyond = sum(r["ms"] > m["item_p90_ms"]["value"] for r in res["items"])
    print(f"workload {res['workload']}  seed {res['seed']}  items {n}  "
          f"wall {res['wall_s']:.2f} s  closed loop, one caller")
    print(f"  items_per_s  {m['items_per_s']['value']:.4f} 1/s")
    print(f"  item_p50_ms  {m['item_p50_ms']['value']:.3f} ms  (n={n})")
    print(f"  item_p90_ms  {m['item_p90_ms']['value']:.3f} ms  (n={n}, {beyond} beyond p90)")
    print(f"  fail_frac    {res['failed'] / n:.4f} fraction  ({res['failed']}/{n})")
    print(f"  pass_frac    {m['pass_frac']['value']:.4f} fraction")
    print(f"  setup_s      {m['setup_s']['value']:.4f} s  (median of {len(res['setup_samples_s'])})")
    print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:.1f} MB")
    for fam, (count, bad) in sorted(res["failures_by_family"].items()):
        print(f"    {fam:22s} {bad:4d}/{count} failed")
    for iid, what in res["unexpected"]:
        print(f"    UNEXPECTED FAILURE {iid}: {what}")


# ------------------------------------------------------------------ traced


def run_traced(env, seed):
    seg = {}
    for wl in workloads.WORKLOADS:
        seg[wl] = Worker(env, wl, seed, "trace").result()
    single = dict(env, HYPERSLICE_THREADS="1")
    one_thread = {wl: Worker(single, wl, seed, "probe").result()
                  for wl in ("crosscheck", "diagonal")}
    cli, cli_ok = cold_cli(env)
    imports = import_times(env)
    recs = [r for wl in workloads.WORKLOADS for r in seg[wl]["items"]]
    metrics = layer_metrics(seg, one_thread, cli, imports)
    failed = sum(bool(r["failures"]) for r in recs) + sum(not ok for ok in cli_ok)
    return {
        "seed": seed, "blas": seg["exact"]["blas"],
        "attempted": len(recs) + len(cli_ok), "failed": failed,
        "unexpected": [(r["id"], r["unexpected"]) for r in recs if r["unexpected"]]
        + [("cli", "nonzero exit")] * sum(not ok for ok in cli_ok),
        "failures_by_family": _count_failures(recs),
        "metrics": metrics,
        "spans": {wl: seg[wl]["spans"] for wl in workloads.WORKLOADS},
        "items": recs,
    }


def cold_cli(env):
    """Wall time of each cold `python -m hyperslice.cli` command."""
    times, oks = {}, []
    for name, argv in CLI_COMMANDS.items():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hyperslice.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
        times[name] = time.perf_counter() - t0
        oks.append(proc.returncode == 0)
    return times, oks


def import_times(env):
    """Import time from ``python -X importtime``: the summed self time of
    each package's modules, and the whole of ``import hyperslice``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperslice"],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us, cumulative_us = float(parts[0].split(":")[1]), float(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        if name.split(".")[0] in out:
            out[name.split(".")[0]] += self_us / 1e3
        if name == "hyperslice":
            out["hyperslice"] = cumulative_us / 1e3
    return out


def _span_ms(spans, name, ids):
    return [(s[2] - s[1]) * 1e3 for s in spans if s[0] == name and s[4] in ids]


def layer_metrics(seg, one_thread, cli, imports):
    cc, ex, dg = seg["crosscheck"], seg["exact"], seg["diagonal"]
    ids = {}
    for wl in workloads.WORKLOADS:
        for r in seg[wl]["items"]:
            ids.setdefault(f"{r['kind']}/{r['family']}", set()).add(r["id"])
    exact_ids = set().union(*(v for k, v in ids.items() if k.startswith("exact/")))
    tail_ids = {r["id"] for r in ex["items"] if r.get("analytic_tail")}
    deep, random_, tiny = ids["exact/deep"], ids["exact/random"], ids["exact/tiny"]
    m = {}

    # geometry
    classify = _span_ms(ex["spans"], "geometry.classify", deep)
    deep_verts = sum(r["count_below"] for r in ex["items"] if r["id"] in deep)
    m["geometry.classify_ms.deep"] = metric(median(classify), "ms")
    m["geometry.vertices_per_s.deep"] = metric(deep_verts / (sum(classify) / 1e3), "1/s")
    m["geometry.vertices_enumerated"] = metric(
        sum(r.get("count_below", 0) for r in ex["items"]), "count")

    # vertexsum and integral, on the exact item set
    for fam, fam_ids in (("random", random_), ("deep", deep), ("tiny", tiny)):
        m[f"vertexsum.section_ms.{fam}"] = metric(
            median(_span_ms(ex["spans"], "vertexsum.section", fam_ids)), "ms")
    m["vertexsum.halfspace_ms.deep"] = metric(
        median(_span_ms(ex["spans"], "vertexsum.halfspace", deep)), "ms")
    viol = [v for r in ex["items"] for v in r.get("violations", [])]
    m["vertexsum.err_violations"] = metric(
        sum(v in ("vertex_sum", "halfspace") for v in viol), "count")
    m["integral.ms.panels"] = metric(
        median(_span_ms(ex["spans"], "integral.section", exact_ids - tail_ids)), "ms")
    m["integral.ms.analytic_tail"] = metric(
        median(_span_ms(ex["spans"], "integral.section", tail_ids)), "ms")
    m["integral.ms.deep"] = metric(median(_span_ms(ex["spans"], "integral.section", deep)), "ms")
    m["integral.analytic_tail_frac"] = metric(len(tail_ids) / len(ex["items"]), "fraction")
    m["integral.err_violations"] = metric(sum(v == "integral" for v in viol), "count")

    # montecarlo, on the crosscheck item set (n = 10^6 per call)
    cc_ids = ids["crosscheck/random"]
    mc = [e for r in cc["items"] for e in r.get("mc", [])]
    section_mc = [e for e in mc if "accept" in e]
    m["montecarlo.section_ms_per_1e6"] = metric(
        median(_span_ms(cc["spans"], "montecarlo.section", cc_ids)), "ms")
    m["montecarlo.halfspace_ms_per_1e6"] = metric(
        median(_span_ms(cc["spans"], "montecarlo.halfspace", cc_ids)), "ms")
    m["montecarlo.accept_frac"] = metric(median([e["accept"] for e in section_mc]), "fraction")
    m["montecarlo.rel_stderr_median"] = metric(
        median([e["rel_se"] for e in section_mc if e["rel_se"] is not None]), "fraction")
    m["montecarlo.miss3_frac"] = metric(sum(e["miss3"] for e in mc) / len(mc), "fraction")

    # maximizer and certificates
    maxi = [r for r in dg["items"] if r["kind"] == "maximize"]
    for fam in ("corner", "edge"):
        m[f"maximizer.run_ms.{fam}"] = metric(
            median(_span_ms(dg["spans"], "maximizer.maximize", ids[f"maximize/{fam}"])), "ms")
    starts = sum(r.get("starts", 0) for r in maxi)
    m["maximizer.ms_per_start"] = metric(sum(r["ms"] for r in maxi) / starts, "ms")
    m["maximizer.converged_frac"] = metric(
        sum(r.get("converged", 0) for r in maxi) / starts, "fraction")
    certs = {r["d"]: r for r in dg["items"] if r["kind"] == "certify"}
    for d in (12, 16, 20, 22):
        m[f"certificates.rigorous_ms.d{d}"] = metric(
            _span_ms(dg["spans"], "certificates.rigorous", {certs[d]["id"]})[0], "ms")
    m["certificates.grid_ms"] = metric(
        median(_span_ms(dg["spans"], "certificates.grid", ids["certify/certify"])), "ms")
    claims = [r["claims"] for r in certs.values() if "claims" in r]
    m["certificates.claims_certified_frac"] = metric(
        sum(c[1] for c in claims) / sum(c[0] for c in claims), "fraction")

    # parallel: probe items at one thread over the same items at the default pool
    for wl, name in (("crosscheck", "mc_speedup"), ("diagonal", "maximize_speedup")):
        base = {p["id"]: p["ms"] for p in seg[wl]["probe"]}
        single = sum(r["ms"] for r in one_thread[wl]["items"])
        m[f"parallel.{name}"] = metric(single / sum(base.values()), "ratio")

    # set-up and cold CLI
    for pkg in IMPORT_PACKAGES + ("hyperslice",):
        m[f"setup.import_ms.{pkg}"] = metric(imports[pkg], "ms")
    for name in CLI_COMMANDS:
        m[f"cli.{name}_cold_s"] = metric(cli[name], "s")

    # tracing overhead: traced latency of the probe items over their untraced latency
    untraced = traced = 0.0
    for wl in workloads.WORKLOADS:
        lat = {r["id"]: r["ms"] for r in seg[wl]["items"]}
        for p in seg[wl]["probe"]:
            untraced += p["ms"]
            traced += lat[p["id"]]
    m["trace.overhead_frac"] = metric(traced / untraced - 1.0, "fraction")
    return m


def report_traced(res):
    print(f"traced run  seed {res['seed']}  items {res['attempted']}  failed {res['failed']}")
    for name, v in res["metrics"].items():
        print(f"  {name:40s} {v['value']:.6g} {v['unit']}")
    for fam, (count, bad) in sorted(res["failures_by_family"].items()):
        print(f"    {fam:22s} {bad:4d}/{count} failed")
    for iid, what in res["unexpected"]:
        print(f"    UNEXPECTED FAILURE {iid}: {what}")


# -------------------------------------------------------------------- main


def run_metadata(env, blas):
    def git_commit():
        if not Path(".git").exists():
            return "unavailable"
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10).stdout.strip() or "unavailable"
        except OSError:
            return "unavailable"

    cache = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                cache[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(), "cpu_model": cpu, "cache": cache,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "blas": blas, "git_commit": git_commit(),
        "threads": {k: env[k] for k in ("HYPERSLICE_THREADS", "OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "thread_control": "environment variables set before numpy loads; "
                          "threadpoolctl is not installed",
    }


def final_line(res):
    correct = not res["unexpected"]
    return json.dumps({"correct": correct, "attempted": res["attempted"],
                       "failed": res["failed"],
                       "metrics": res["metrics"]})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hyperslice benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, default=None,
                   help="run only the first N items of each workload (self-test)")
    args = p.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found; run from the repository root", file=sys.stderr)
        return 2
    env = bench_env()
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        res = run_traced(env, args.seed)
        res["metadata"] = run_metadata(env, res["blas"])
        report_traced(res)
        (OUT_DIR / f"trace-seed{args.seed}.json").write_text(json.dumps(res))
        print(final_line(res))
        return 0

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for wl in names:
        res = run_untraced(env, wl, args.seed, args.seconds, args.items)
        res["metadata"] = run_metadata(env, res["blas"])
        report_untraced(res)
        (OUT_DIR / f"{wl}-seed{args.seed}.json").write_text(json.dumps(res))
        results[wl] = res
    if args.workload == "all":
        print(json.dumps({wl: json.loads(final_line(r)) for wl, r in results.items()}))
    else:
        print(final_line(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
